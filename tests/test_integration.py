"""End-to-end flows across modules: acceptance rounds through run files,
score-kind audits, and semantics pinned against the oracle."""

import json
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import replace

import pytest

from subjfair import (
    ACCEPTED,
    FAIR,
    UNFAIR,
    PENDING,
    REJECTED,
    AcceptanceLedger,
    AggregationStrategy,
    PerceptionTable,
    run_pipeline,
)
from subjfair.harness.cli import main
from subjfair.harness.fixtures import crossed_clusters_path, crossed_clusters_run
from subjfair.harness.oracle import brute_force_oracle
from subjfair.harness.report import REPORT_SCHEMA, audit_run, build_audit_doc, build_report_doc
from subjfair.harness.runfile import load_run, save_run, to_dict
from subjfair.harness.synth import SynthProfile, generate_population

from helpers import as_run, by_id, make_inputs


class TestAcceptanceRoundsThroughRunFiles:
    """The ledger persists in the run file, so explanation rounds survive
    re-running the audit."""

    def test_rounds(self, tmp_path):
        path = save_run(crossed_clusters_run(), tmp_path / "round0.json")

        # round 0: obligations issued, nothing recorded yet
        result = audit_run(load_run(path))
        assert build_report_doc(result)["explanation_fairness"] == PENDING
        assert len(result.obligations) == 6

        # round 1: every addressee accepts except one rejection
        doc = json.loads(path.read_text())
        ledger = {}
        for o in result.obligations:
            ledger.setdefault(o.individual, {})[o.kind] = "accepted"
        ledger["x"]["SYSTEM_RECOMMENDATION"] = "rejected"
        doc["ledger"] = ledger
        path.write_text(json.dumps(doc))
        result = audit_run(load_run(path))
        assert build_report_doc(result)["explanation_fairness"] == UNFAIR

        # round 2: a new argument lands; the new ledger supersedes the rejection
        run = load_run(path)
        states = {**run.ledger, ("x", "SYSTEM_RECOMMENDATION"): "accepted"}
        run = replace(run, ledger=AcceptanceLedger(states))
        path = save_run(run, tmp_path / "round2.json")
        result = audit_run(load_run(path))
        assert build_report_doc(result)["explanation_fairness"] == FAIR

    def test_ledger_survives_save_load(self, tmp_path):
        run = crossed_clusters_run()
        doc = to_dict(run)
        doc["ledger"] = {"x": {"SYSTEM_RECOMMENDATION": "accepted"}}
        path = tmp_path / "with_ledger.json"
        path.write_text(json.dumps(doc))
        reloaded = load_run(path)
        assert reloaded.ledger[("x", "SYSTEM_RECOMMENDATION")] == "accepted"
        assert to_dict(reloaded)["ledger"] == doc["ledger"]

    def test_audited_ledger_stays_what_the_report_reads(self):
        # the ledger could be rewritten in place after the audit: the report
        # then echoed the new state while its verdict read the old one
        run = crossed_clusters_run()
        kinds = audit_run(run).owed["u"]
        run = replace(run, ledger=AcceptanceLedger({("u", k): ACCEPTED for k in kinds}))
        result = audit_run(run)
        assert not hasattr(run.ledger, "record")
        with pytest.raises(TypeError):
            run.ledger[("u", kinds[0])] = REJECTED
        doc = build_report_doc(result)
        assert doc["ledger"] == {"u": dict.fromkeys(kinds, ACCEPTED)}
        echoed = [
            doc["ledger"].get(o["individual"], {}).get(o["kind"], PENDING)
            for o in doc["obligations"]
        ]
        assert REJECTED not in echoed and PENDING in echoed
        assert doc["explanation_fairness"] == PENDING


class TestPerOwnerClusterCounting:
    """Two owners perceiving identical clusters still vote once each in
    the cross-cluster stage."""

    def test_duplicate_cluster_contents_count_per_owner(self):
        # a and b perceive the identical cluster {a, b, i}; c perceives
        # {c, i}. i is in three clusters: two labeled 1, one labeled 0.
        rows = {
            "a": {"a": 1.0, "b": 0.9, "i": 0.9},
            "b": {"b": 1.0, "a": 0.9, "i": 0.9},
            "c": {"c": 1.0, "i": 0.9},
            "i": {"i": 1.0},
        }
        inputs = make_inputs(rows, {"a": 1, "b": 1, "c": 0, "i": 0}, theta=0.4)
        strategy = AggregationStrategy(theta=0.4)
        set_labels, decisions = run_pipeline(inputs.pop, inputs.family, inputs.tally, strategy)
        assert by_id(inputs.pop.individuals, set_labels) == {"a": 1, "b": 1, "c": 0, "i": 0}
        assert inputs.family.owners[3] == [0, 1, 2, 3]  # a, b, c, i
        # per-owner counting: mean over {1, 1, 0, 0} = 0.5;
        # collapsing identical clusters would give mean over {1, 0, 0}
        assert decisions[3] == 1  # 0.5 > 0.4 only with per-owner counting


class TestScoreKindEndToEnd:
    def _run(self, epsilon=0.15):
        inputs = make_inputs(
            {
                "a": {"a": 1.0, "b": 0.8, "c": 0.6},
                "b": {"b": 1.0, "a": 0.8},
                "c": {"c": 1.0, "b": 0.7},
            },
            {"a": 0.9, "b": 0.75, "c": 0.2},
            kind="score",
            epsilon=epsilon,
        )
        return as_run(inputs)

    def test_engine_matches_oracle_on_scores(self):
        run = self._run()
        assert build_audit_doc(audit_run(run)) == brute_force_oracle(run)

    def test_score_verdicts_use_raw_similarity(self):
        result = audit_run(self._run(epsilon=0.5))
        # a's cluster is {a, b, c}: T(0.9, 0.2) = 0.3 <= 0.5, so c's
        # distant score makes a unfair
        assert result.report.isf[0] == UNFAIR
        # b's cluster is {b, a}: T(0.75, 0.9) = 0.85 > 0.5
        assert result.report.isf[1] == FAIR

    def test_round_trip_preserves_score_kind(self, tmp_path):
        path = save_run(self._run(), tmp_path / "scores.json")
        reloaded = load_run(path)
        assert reloaded.recommendations.kind == "score"
        assert reloaded.recommendations.values["a"] == 0.9


def test_no_stage_builds_the_tuple_keyed_entries(tmp_path, monkeypatch):
    # Loading, validation, clustering and the report read the per-observer
    # rows; the (observer, target) view exists only for outside readers.
    path = save_run(
        generate_population(SynthProfile(n=300, cluster_density=0.3, seed=8)),
        tmp_path / "run.json",
    )

    def refuse(self):
        raise AssertionError("the entries view was built")

    monkeypatch.setattr(PerceptionTable, "entries", property(refuse))
    result = audit_run(load_run(path))
    doc = build_report_doc(result, include_baselines=True)
    assert doc["validation"]["ok"] and doc["n"] == 300


def test_module_entry_point_runs():
    # in development mode with every warning an error, and nothing on stderr
    env = dict(os.environ)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            "-X",
            "dev",
            "-W",
            "error",
            "-m",
            "subjfair",
            "audit",
            "--input",
            str(crossed_clusters_path()),
            "--format",
            "json",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["schema"] == REPORT_SCHEMA
    assert doc["sf"]["verdict"] == "unfair"


#: Run in a fresh interpreter as ``-c ENTRY ARGS...``: the process entry
#: ``ENTRY``, a module run as ``python -m`` runs it or the ``module:function``
#: an installed script calls, then a last stdout line with its exit code and
#: the collector's state at exit.
_PROCESS_ENTRY = """
import gc, importlib, json, runpy, sys
entry = sys.argv.pop(1)
try:
    if ":" in entry:
        module, function = entry.split(":")
        getattr(importlib.import_module(module), function)()
    else:
        runpy.run_module(entry, run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, gc.isenabled(), gc.get_freeze_count()]))
"""


def _script_target():
    # the ``subjfair`` script's ``module:function`` in pyproject.toml
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    section = pyproject.read_text(encoding="utf-8").split("[project.scripts]\n")[1]
    (target,) = re.findall(r'^subjfair = "(.+)"$', section.split("\n[")[0], re.M)
    return target


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--input", str(crossed_clusters_path()), "--format", "json"],
        ["audit", "--input", str(crossed_clusters_path()), "--strict"],
        ["audit", "--input", "missing.json"],
        ["audit", "--input", str(crossed_clusters_path()), "--bogus"],
        ["--help"],
        ["--version"],
    ],
    ids=["exit-0", "exit-1", "input-error", "unknown-flag", "help", "version"],
)
def test_every_process_entry_exits_with_mains_code_and_leaves_the_collector_frozen(
    argv, tmp_path, monkeypatch, capsys
):
    # ``python -m subjfair``, ``python -m subjfair.harness.cli`` and the
    # installed script print what ``main`` prints and exit with its code,
    # with the collector off and what is alive at exit frozen
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    printed = capsys.readouterr()
    env = dict(os.environ)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    for entry in ("subjfair", "subjfair.harness.cli", _script_target()):
        proc = subprocess.run(
            [sys.executable, "-c", _PROCESS_ENTRY, entry, *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        *lines, last = proc.stdout.splitlines(keepends=True)
        exit_code, collector, frozen = json.loads(last)
        assert (exit_code, collector) == (code, False), entry
        assert frozen > 0, entry
        assert ("".join(lines), proc.stderr) == (printed.out, printed.err), entry


#: Run in a fresh interpreter: the modules that importing the CLI and building
#: its full parser load, and the dataclasses among the classes of the subjfair
#: modules then loaded.
_COLD_START = """
import sys
bare = set(sys.modules)
import subjfair.harness.cli
subjfair.harness.cli.build_parser()
loaded = set(sys.modules) - bare
import dataclasses, json
records = {
    cls.__module__ + "." + cls.__qualname__
    for name, module in list(sys.modules.items())
    if name.split(".")[0] == "subjfair"
    for cls in vars(module).values()
    if isinstance(cls, type)
    and cls.__module__.startswith("subjfair")
    and dataclasses.is_dataclass(cls)
}
print(json.dumps({"loaded": sorted(loaded), "dataclasses": sorted(records)}))
"""


def test_importing_the_cli_loads_only_what_every_command_runs():
    # start-up gate: the generator, the oracle, the CSV writer and the
    # traceback printer load only in the command or fault path that uses
    # them, not with the CLI or its full parser, and the one dataclass is
    # the run, which callers ``replace``
    env = dict(os.environ)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert "subjfair.harness.cli" in found["loaded"]
    deferred = {"subjfair.harness.oracle", "subjfair.harness.synth", "csv", "traceback"}
    assert deferred.isdisjoint(found["loaded"])
    assert found["dataclasses"] == ["subjfair.harness.runfile.AuditRunFile"]


def test_readme_report_table_names_every_key_of_the_report():
    # the first column of the README's report table, against the fixture's
    # report; the audit core comes first, in the order the engine writes it
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Report format")[1].split("\n## ")[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    present = {key.strip().strip("`"): when.strip() for key, when in rows}
    result = audit_run(crossed_clusters_run())
    optional = {key for key, when in present.items() if when == "optional"}
    assert optional == {"explanation_fairness", "ledger", "baselines"}
    assert {key for key, when in present.items() if when == "always"} == (
        set(build_report_doc(result)) - optional
    )
    core = list(build_audit_doc(result))
    assert list(present)[: len(core)] == core


def test_readme_report_format_names_the_schema_the_engine_writes():
    # the heading of the report table and its ``schema`` row
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    headings = [line for line in text.splitlines() if line.startswith("## Report format")]
    assert headings == [f"## Report format (`{REPORT_SCHEMA}`)"]
    section = text.split(headings[0])[1].split("\n## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("| `schema` |")]
    assert rows == [f'| `schema` | always | `"{REPORT_SCHEMA}"` |']


def test_readme_quick_start_runs():
    # every Python example in README.md, run as written, in order
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = readme.read_text(encoding="utf-8").split("```python\n")[1:]
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(block.split("```", 1)[0], namespace)
    ids = namespace["pop"].individuals
    assert by_id(ids, namespace["set_labels"]) == {"x": 0, "y": 1, "u": 0, "v": 1}
    assert by_id(ids, namespace["decisions"]) == {"x": 0, "y": 1, "u": 0, "v": 1}
    report = namespace["report"]
    assert report.sf == UNFAIR
    assert report.dissenters == {"x", "y", "u"}
    assert namespace["doc"]["sf"] == {"verdict": UNFAIR, "dissenters": ["u", "x", "y"]}


def test_the_engine_and_the_harness_each_refuse_through_one_type():
    # the engine raises InputError with its path, the harness RunFileError
    # at its field; no module defines another exception class
    import importlib
    import pkgutil

    import subjfair

    names = [subjfair.__name__] + [
        info.name for info in pkgutil.walk_packages(subjfair.__path__, "subjfair.")
    ]
    defined = {
        value.__qualname__
        for module in map(importlib.import_module, names)
        for value in vars(module).values()
        if isinstance(value, type)
        and issubclass(value, BaseException)
        and value.__module__ == module.__name__
    }
    assert defined == {"InputError", "RunFileError"}
    assert not {"ConfigError", "LedgerIntegrityError"} & set(vars(subjfair))
