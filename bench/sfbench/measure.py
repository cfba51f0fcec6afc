"""One benchmark run: set-up, the timed loop, the checks and the metrics.

An untraced run alternates the in-process operation with the matching
``python -m subjfair`` command, run twice, until the time is up, one at a
time. A traced run alternates a traced and an untraced in-process
operation, so their ratio is the tracing overhead, and then measures the
layers that need a process of their own or tracemalloc.

Every timed sample sits between two runs of a fixed reference loop and is
reported in reference seconds (see ``pace``); the whole run, the commands'
children included, is held to one core. ``audit_s`` and ``cli_s``
are the mean of the middle half of a run's samples, ``setup_s`` the median
of several set-ups spread over the run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Callable

from subjfair.harness.runfile import AuditRunFile, dumps_run, loads_run

from . import workloads as wl
from .pace import Pace, middle_mean
from .spans import Tracer

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Set-ups per run, spread over the timed loop; set-up time is their median.
SETUPS = 5
#: Commands per in-process operation in an untraced run. A command's time
#: spreads about twice as much from sample to sample as the in-process
#: operation's, so it gets more samples.
COMMANDS_PER_OP = 3
#: Interpreter starts per kind when timing the CLI's import.
IMPORT_REPEATS = 5

END_TO_END = {
    "audit_s": "s",
    "cli_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
}

#: Spans whose summed time per operation is a per-layer metric, named
#: <span>_s. ``runfile.parse_s`` is the self time of the ``runfile.load``
#: span instead: ``load_run`` less the ``validate_run`` it calls.
LAYER_SPANS = (
    "runfile.validate",
    "core.validate",
    "clustering.build",
    "aggregation.pipeline",
    "audit.population",
    "audit.sf",
    "explanations.obligations",
    "explanations.ledger",
    "baselines.objective_if",
    "baselines.subjective_if",
    "baselines.parity",
    "report.audit_run",
    "report.build_doc",
    "report.dumps",
)

#: Per-layer counts and the input-shape field each is read from.
LAYER_COUNTS = {
    "runfile.entries": "entries",
    "clustering.members": "members",
    "explanations.obligations": "obligations",
    "baselines.pairs": "baseline_pairs",
    "report.bytes": "output_bytes",
}

PER_LAYER = {
    "runfile.parse_s": "s",
    **{f"{span}_s": "s" for span in LAYER_SPANS},
    "runfile.heap_mb": "MB",
    "runfile.entries": "count",
    "clustering.members": "count",
    "clustering.fill_ratio": "ratio",
    "explanations.obligations": "count",
    "baselines.pairs": "count",
    "report.bytes": "bytes",
    "cli.import_s": "s",
    "synth.generate_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Tally:
    """Counts operations and keeps the problems found with them."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


def tail_line(name: str, samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, when
    that is at or above the median."""
    n = len(samples)
    if n < 20:
        return f"{name}: no tail percentile with 10 samples beyond it ({n} samples)"
    ordered = sorted(samples)
    return (
        f"{name}: p{100 * (n - 10) / n:.1f} = {ordered[n - 11]:.6f} s "
        f"(10 of {n} samples beyond it)"
    )


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def run_cli(args: list[str], workdir: Path) -> tuple[float, int, Path]:
    """Run ``python -m subjfair ARGS`` with stdout going to a file.

    Returns the child's own peak RSS in MB (from ``wait4``, so no other
    child's peak leaks in), its exit code and the output path.
    """
    out_path = workdir / "cli.out"
    with open(out_path, "wb") as out, open(workdir / "cli.err", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "subjfair", *args],
            stdout=out,
            stderr=err,
            env=_child_env(),
            cwd=ROOT,
        )
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024, proc.returncode, out_path


def import_seconds() -> float:
    """Median time to import the CLI module in a fresh interpreter, less a
    bare interpreter start, alternating the two."""
    def start(code: str) -> float:
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT, check=True)
        return time.perf_counter() - began

    return median(
        [start("import subjfair.harness.cli") - start("pass") for _ in range(IMPORT_REPEATS)]
    )


def parse_heap_mb(path: Path) -> float:
    """Peak traced heap while parsing the run file, in MB."""
    text = path.read_text(encoding="utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        loads_run(text, validate=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _guarded(op: Callable[[], bytes]) -> Callable[[], tuple[bytes | None, list[str]]]:
    """``op`` returning its output and no problems, or no output and the
    traceback: a crash is a failed operation, not the end of the run."""
    def guarded() -> tuple[bytes | None, list[str]]:
        try:
            return op(), []
        except Exception:
            return None, [traceback.format_exc(limit=3)]

    return guarded


def _compare(out: bytes | None, ref: bytes) -> list[str]:
    if out == ref:
        return []
    return ["output differs from the first output"]


def set_up(
    w: wl.Workload, seed: int, path: Path, tracer: Tracer
) -> tuple[AuditRunFile, str, bytes]:
    """Build and write the inputs, then do one untimed warm-up operation.

    Returns the run, the file's text and the warm-up output.
    """
    with tracer.span("setup"):
        run = wl.build_run(w, seed, tracer)
        with tracer.span("setup.write"):
            text = dumps_run(run)
            path.write_text(text, encoding="utf-8")
        out = tracer.call("setup.warmup", wl.run_op, w, path)
    return run, text, out


def run_benchmark(w: wl.Workload, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Run one workload and return the result object the benchmark prints
    last. Info lines go to stdout before it."""
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    # One core for the whole run, children included, so that the reference
    # loop measures the speed of the core the timed work runs on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return _run(w, seed, seconds, trace, workdir)
    finally:
        os.sched_setaffinity(0, cpus)
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)


def _run(w: wl.Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict[str, Any]:
    pace = Pace()
    tracer = Tracer()
    setup_tracer = Tracer()
    book = Tally()
    path = workdir / "run.json"
    # Wall and reference seconds of each timed series.
    samples: dict[str, list[float]] = {}

    def timed(name: str, fn: Callable[[], Any]) -> Any:
        wall, scaled, result = pace.time(fn)
        samples.setdefault(f"{name} wall", []).append(wall)
        samples.setdefault(name, []).append(scaled)
        return result

    run, text, ref = timed("setup_s", lambda: set_up(w, seed, path, setup_tracer))

    def set_up_again() -> None:
        _, again, out = timed(
            "setup_s", lambda: set_up(w, seed, workdir / "again.json", setup_tracer)
        )
        if again != text or out != ref:
            book.problems.append("set-up is not deterministic for one seed")

    docs = wl.reference_docs(w, run)
    ref_problems = wl.check_reference(w, run, ref, docs)
    book.problems += [f"first output: {p}" for p in ref_problems]
    shape = wl.input_shape(w, run, seed, ref, docs)
    digest = hashlib.sha256(ref).hexdigest()
    del docs
    # Keep what set-up left alive out of the collector's way, so each timed
    # operation pays for its own garbage only, as a fresh process would.
    gc.collect()
    gc.freeze()

    def judge(what: str, problems: list[str]) -> None:
        if ref_problems:
            problems = problems + ["first output failed its checks"]
        book.record(what, problems)

    rss: list[float] = []
    start = time.perf_counter()
    while True:
        if trace:
            tracer.next_op()
            out, errors = timed(
                "traced_audit_s", _guarded(lambda: wl.traced_op(w, path, tracer))
            )
            judge("traced operation", errors or _compare(out, ref))
        out, errors = timed("audit_s", _guarded(lambda: wl.run_op(w, path)))
        judge("operation", errors or _compare(out, ref))
        del out
        for _ in range(0 if trace else COMMANDS_PER_OP):
            rss_mb, code, out_path = timed("cli_s", lambda: run_cli(wl.cli_args(w, path), workdir))
            rss.append(rss_mb)
            problems = [] if code == 0 else [f"exit code {code}"]
            if code == 0 and out_path.read_bytes() != ref:
                problems.append("output differs from the in-process output")
            judge("command", problems)
        # Set-ups are spread over the run so that they see the machine in
        # the same states the timed operations do.
        done = len(samples["setup_s"])
        elapsed = time.perf_counter() - start
        if done < SETUPS and elapsed >= done * seconds / SETUPS:
            set_up_again()
        if elapsed >= seconds:
            break
    while len(samples["setup_s"]) < SETUPS:
        set_up_again()

    if trace:
        metrics, layers = _per_layer(shape, tracer, setup_tracer, samples, path)
    else:
        metrics = {
            "audit_s": middle_mean(samples["audit_s"]),
            "cli_s": middle_mean(samples["cli_s"]),
            "peak_rss_mb": median(rss),
            "setup_s": median(samples["setup_s"]),
            "success_rate": (book.attempted - book.failed) / book.attempted,
        }
        layers = None
    units = PER_LAYER if trace else END_TO_END

    lines = [
        f"workload {w.name} seed {seed} trace {int(trace)}",
        "input " + " ".join(f"{k}={v}" for k, v in shape.items()),
        f"output sha256 {digest}",
        f"operations attempted {book.attempted} failed {book.failed} "
        f"error_rate {book.failed / book.attempted:.4f}",
        "reference loop: median {:.6f} s, min {:.6f} s over {} loops".format(
            median(pace.references), min(pace.references), len(pace.references)
        ),
    ]
    for name, values in samples.items():
        lines.append(
            f"{name}: median {median(values):.6f} over {len(values)} samples, "
            f"min {min(values):.6f} max {max(values):.6f}"
        )
        if name.endswith("_s"):
            lines.append(tail_line(name, values))
    if layers is not None:
        lines += _layer_lines(layers)
    lines += [f"problem: {p}" for p in book.problems]
    for line in lines:
        print(line)

    results = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "shape": shape,
        "output_sha256": digest,
        "samples": samples,
        "references": pace.references,
        "metrics": metrics,
        "problems": book.problems,
    }
    if layers is not None:
        results["layers"] = layers
        results["spans"] = tracer.to_json()
        results["setup_spans"] = setup_tracer.to_json()
    name = f"{w.name}-seed{seed}-trace{int(trace)}.json"
    (OUT_DIR / name).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")

    return {
        "correct": book.failed == 0 and not book.problems,
        "attempted": book.attempted,
        "failed": book.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _per_layer(
    shape: dict[str, Any],
    tracer: Tracer,
    setup_tracer: Tracer,
    samples: dict[str, list[float]],
    path: Path,
) -> tuple[dict[str, float], dict[str, Any]]:
    ops = range(1, tracer.op + 1)
    totals = [tracer.totals(op) for op in ops]
    selfs = [tracer.self_times(op) for op in ops]
    metrics: dict[str, float] = {
        f"{span}_s": median([t.get(span, 0.0) for t in totals]) for span in LAYER_SPANS
    }
    metrics["runfile.parse_s"] = median([s.get("runfile.load", 0.0) for s in selfs])
    for metric, key in LAYER_COUNTS.items():
        metrics[metric] = shape[key]
    # Pairs the n^2 scan visits: n^2 for each cluster family built.
    metrics["clustering.fill_ratio"] = shape["members"] / (
        shape["grid_points"] * shape["n"] ** 2
    )
    metrics["runfile.heap_mb"] = parse_heap_mb(path)
    metrics["cli.import_s"] = import_seconds()
    metrics["synth.generate_s"] = median(
        [s.duration for s in setup_tracer.spans if s.name == "synth.generate"]
    )
    metrics["trace.overhead_ratio"] = middle_mean(samples["traced_audit_s"]) / middle_mean(
        samples["audit_s"]
    )
    layers = {
        name: {
            "total_s": median([t.get(name, 0.0) for t in totals]),
            "self_s": median([s.get(name, 0.0) for s in selfs]),
        }
        for name in sorted({name for t in totals for name in t})
    }
    layers["op"]["attributed_s"] = median(
        [sum(v for k, v in s.items() if k != "op") for s in selfs]
    )
    # Span times are wall times, so they are set against wall times here.
    layers["op"]["untraced_s"] = median(samples["audit_s wall"])
    return metrics, layers


def _layer_lines(layers: dict[str, Any]) -> list[str]:
    op = layers["op"]
    lines = ["layer self times per traced operation (median over operations):"]
    for name, times in layers.items():
        share = times["self_s"] / op["total_s"]
        lines.append(
            f"  {name:<28} total {times['total_s']:.6f} s  self {times['self_s']:.6f} s  "
            f"{100 * share:5.1f}% of traced op"
        )
    lines.append(
        f"  layers account for {op['attributed_s']:.6f} s of the traced op "
        f"({op['total_s']:.6f} s); untraced operation median {op['untraced_s']:.6f} s"
    )
    return lines
