"""Tests of the benchmark itself, on shrunken workloads.

Run from the repository root with ``python -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import runpy
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from sfbench import measure, pace
from sfbench import workloads as wl
from sfbench.spans import Tracer
from subjfair.harness.runfile import dumps_run

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALL = {
    name: replace(w, n=40, baseline_people=min(w.baseline_people, 12))
    for name, w in wl.WORKLOADS.items()
}


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(wl, "WORKLOADS", SMALL)
    monkeypatch.setattr(measure, "OUT_DIR", tmp_path)


def run_main(argv: list[str], capsys) -> tuple[int, list[str]]:
    main = runpy.run_path(str(BENCH / "run.py"))["main"]
    code = main(argv)
    return code, capsys.readouterr().out.splitlines()


def test_spec_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == measure.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_prints_every_metric_with_its_unit(small, capsys, workload, trace):
    code, lines = run_main(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)], capsys
    )
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _corrupting(after: int):
    """A run_op whose output has one decision flipped from call ``after``
    on (the first set-up makes the first call)."""
    calls = []
    original = wl.run_op

    def run_op(w, path):
        data = original(w, path)
        calls.append(1)
        if len(calls) > after:
            doc = json.loads(data)
            if isinstance(doc, list):  # a sweep table: change one value
                doc[0]["value"] += 1
            else:
                first = next(iter(doc["dec"]))
                doc["dec"][first] = 1 - doc["dec"][first]
            data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
        return data

    return run_op


@pytest.mark.parametrize("workload", ["sparse_wide", "trust_sweep"])
@pytest.mark.parametrize("after", [0, 1])
def test_corrupted_document_counts_as_failed(small, monkeypatch, after, workload):
    # after=0: the reference output is corrupt, so its check against the
    # oracle-checked documents fails and every operation fails. after=1:
    # only later outputs are corrupt.
    monkeypatch.setattr(wl, "run_op", _corrupting(after))
    result = measure.run_benchmark(SMALL[workload], seed=1, seconds=0, trace=False)
    assert result["correct"] is False
    if after == 0:
        assert result["failed"] == result["attempted"]
    else:
        assert result["failed"] == 1  # the in-process operation; the command is fine
    assert result["metrics"]["success_rate"]["value"] < 1.0


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_setup_is_deterministic_for_a_seed(workload):
    w = SMALL[workload]
    first = dumps_run(wl.build_run(w, 5, Tracer()))
    assert dumps_run(wl.build_run(w, 5, Tracer())) == first
    assert dumps_run(wl.build_run(w, 6, Tracer())) != first


def test_traced_operation_times_the_programs_own_calls(tmp_path):
    w = SMALL["dense_report"]
    path = tmp_path / "run.json"
    path.write_text(dumps_run(wl.build_run(w, 2, Tracer())), encoding="utf-8")
    originals = [getattr(module, attr) for module, attr, _ in wl.TRACED_CALLS]
    tracer = Tracer()
    tracer.next_op()
    assert wl.traced_op(w, path, tracer) == wl.run_op(w, path)
    assert [getattr(module, attr) for module, attr, _ in wl.TRACED_CALLS] == originals
    # Every engine call the report command makes shows up, nested as the
    # program nests it: audit_run validates once more inside its own span.
    names = {s.name for s in tracer.spans}
    assert names == {"op"} | {name for _, _, name in wl.TRACED_CALLS}
    parents = {tracer.spans[s.parent].name for s in tracer.spans if s.name == "core.validate"}
    assert parents == {"report.audit_run"}


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.next_op()
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
    outer, inner, leaf = tracer.spans
    assert inner.parent == 0 and leaf.parent == 1
    selfs = tracer.self_times(1)
    assert selfs["outer"] == pytest.approx(outer.duration - inner.duration)
    assert selfs["inner"] == pytest.approx(inner.duration - leaf.duration)
    assert sum(selfs.values()) == pytest.approx(outer.duration)


def test_samples_are_scaled_by_the_reference_around_them(monkeypatch):
    # A machine running at half speed: every reference loop takes twice
    # REFERENCE_S, so a sample counts half its wall time.
    monkeypatch.setattr(pace, "reference_seconds", lambda: 2 * pace.REFERENCE_S)
    clock = pace.Pace()
    wall, scaled, result = clock.time(lambda: sum(range(100_000)))
    assert result == sum(range(100_000))
    assert scaled == pytest.approx(wall / 2)
    assert len(clock.references) == 2
    clock.time(lambda: None)  # the reference after one sample serves the next
    assert len(clock.references) == 3


def test_middle_mean_drops_the_outer_quarters():
    assert pace.middle_mean([100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]) == 3.5
    assert pace.middle_mean([2.0, 4.0]) == 3.0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "dense_report",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
