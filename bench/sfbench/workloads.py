"""The three workloads: seeded inputs, the timed operation, and its checks.

Each workload is one run file built from a seed and one ``subjfair``
command on it. The operation runs that command either in process, through
the CLI's own ``main`` with its printed output captured, or as a
``python -m subjfair`` subprocess; both must print the same bytes.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import ExitStack, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import subjfair.audit as audit_module
import subjfair.harness.cli as cli_module
import subjfair.harness.report as report_module
import subjfair.harness.runfile as runfile_module
from subjfair.aggregation import MAJORITY, TRUST_WEIGHTED, AggregationStrategy
from subjfair.baselines import ObjectiveDistanceTable
from subjfair.core import AuditParams, Population
from subjfair.explanations import ACCEPTED, PENDING, REJECTED, AcceptanceLedger
from subjfair.harness.oracle import brute_force_oracle
from subjfair.harness.report import audit_run, build_audit_doc, build_report_doc
from subjfair.harness.runfile import AuditRunFile, BaselineInputs
from subjfair.harness.synth import SynthProfile, generate_population

from .spans import Tracer

REPORT = "report"
AUDIT = "audit"
SWEEP = "sweep"


@dataclass(frozen=True)
class Workload:
    """One population shape and the command run on it.

    command: ``report`` (report --group-attr), ``audit`` or ``sweep``
        (simulate --sweep over ``deltas`` x ``thetas``).
    baseline_people: how many people get a baseline score, with a distance
        for every pair of them (0: no baseline section).
    ledger_share: share of the obligations the acceptance ledger covers.
    """

    name: str
    n: int
    density: float
    command: str
    strategy: str = MAJORITY
    group_attr: str | None = None
    baseline_people: int = 0
    ledger_share: float = 0.0
    deltas: tuple[float, ...] = ()
    thetas: tuple[float, ...] = ()


# Sizes are set so that one operation takes about 0.35-0.45 reference
# seconds (see ``pace``) on a 2-core x86 machine with Python 3.11, so that a
# 36 s run collects 10-16 in-process and 30-48 command samples. The reasons
# for each workload are recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense_report",
            n=500,
            density=0.3,
            command=REPORT,
            group_attr="group",
            baseline_people=200,
            ledger_share=0.8,
        ),
        Workload("sparse_wide", n=1800, density=0.003, command=AUDIT),
        Workload(
            "trust_sweep",
            n=150,
            density=0.3,
            command=SWEEP,
            strategy=TRUST_WEIGHTED,
            deltas=(0.3, 0.5, 0.7),
            thetas=(0.4, 0.5, 0.6),
        ),
    )
}

GROUPS = ("a", "b", "c")


# --- inputs ------------------------------------------------------------------


def build_run(w: Workload, seed: int, tracer: Tracer) -> AuditRunFile:
    """The workload's run file, a pure function of ``seed``."""
    profile = SynthProfile(n=w.n, cluster_density=w.density, seed=seed)
    run = tracer.call("synth.generate", generate_population, profile)
    rng = random.Random(f"{w.name}/{seed}")
    ids = run.population.individuals
    changes: dict[str, Any] = {}
    if w.strategy != MAJORITY:
        changes["strategy"] = AggregationStrategy(kind=w.strategy, theta=run.params.theta)
    if w.group_attr:
        attributes = {i: {w.group_attr: rng.choice(GROUPS)} for i in ids}
        changes["population"] = Population(ids, attributes)
    if w.baseline_people:
        people = sorted(rng.sample(ids, w.baseline_people))
        # The same evenly spaced scores for every seed, shuffled: how many
        # pairs violate a distance then varies little from seed to seed.
        grid_scores = [round((k + 0.5) / len(people), 3) for k in range(len(people))]
        rng.shuffle(grid_scores)
        scores = dict(zip(people, grid_scores))
        distances: dict[tuple[str, str], float] = {}
        overrides: dict[tuple[str, str, str], float] = {}
        for pair in itertools.combinations(people, 2):
            distances[pair] = round(0.5 + 0.5 * rng.random(), 3)
            if rng.random() < 0.1:
                overrides[(rng.choice(pair),) + pair] = round(rng.random(), 3)
        changes["baseline"] = BaselineInputs(
            scores, ObjectiveDistanceTable(distances, overrides)
        )
    run = replace(run, **changes)
    if w.ledger_share:
        obligations = audit_run(run).obligations
        chosen = rng.sample(obligations, round(w.ledger_share * len(obligations)))
        states = {
            o.key: ACCEPTED if rng.random() < 0.9 else rng.choice((REJECTED, PENDING))
            for o in chosen
        }
        run = replace(run, ledger=AcceptanceLedger(states))
    return run


# --- the operation ------------------------------------------------------------


def cli_args(w: Workload, path: Path) -> list[str]:
    """Arguments of the ``subjfair`` command that is the workload's operation."""
    if w.command == SWEEP:
        return [
            "simulate", "--input", str(path), "--sweep",
            "--deltas", ",".join(map(str, w.deltas)),
            "--thetas", ",".join(map(str, w.thetas)),
            "--format", "json",
        ]
    args = [w.command, "--input", str(path), "--format", "json"]
    if w.group_attr:
        args += ["--group-attr", w.group_attr]
    return args


def run_op(w: Workload, path: Path) -> bytes:
    """One operation in process: the command's own ``main``, with what it
    prints captured. Returns the printed bytes."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_module.main(cli_args(w, path))
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return buffer.getvalue().encode("utf-8")


#: The engine calls recorded as spans in a traced operation: (module whose
#: attribute the caller looks up, attribute, span name). Replacing the
#: attribute for the length of the operation puts a span around every call
#: the program itself makes, in its own order.
TRACED_CALLS = (
    (cli_module, "load_run", "runfile.load"),
    (runfile_module, "validate_run", "runfile.validate"),
    (cli_module, "audit_run", "report.audit_run"),
    (report_module, "validate_population", "core.validate"),
    (report_module, "build_cluster_family", "clustering.build"),
    (report_module, "run_pipeline", "aggregation.pipeline"),
    (report_module, "audit_population", "audit.population"),
    (audit_module, "sf_process", "audit.sf"),
    (report_module, "derive_obligations", "explanations.obligations"),
    (report_module, "fairness_through_explanations", "explanations.ledger"),
    (cli_module, "build_report_doc", "report.build_doc"),
    (cli_module, "build_audit_doc", "report.build_doc"),
    (report_module, "statistical_parity_gap", "baselines.parity"),
    (report_module, "dwork_if_check", "baselines.objective_if"),
    (report_module, "subjective_if_check", "baselines.subjective_if"),
    (cli_module, "dumps_doc", "report.dumps"),
)

#: ``simulate --sweep`` prints its table with ``json.dumps`` itself.
SWEEP_DUMPS = (json, "dumps", "report.dumps")


def traced_op(w: Workload, path: Path, tracer: Tracer) -> bytes:
    """``run_op`` with a span around it and around each engine call it makes."""
    calls = TRACED_CALLS + ((SWEEP_DUMPS,) if w.command == SWEEP else ())
    with ExitStack() as stack:
        for module, attr, name in calls:
            stack.enter_context(tracer.interpose(module, attr, name))
        with tracer.span("op"):
            return run_op(w, path)


# --- checks --------------------------------------------------------------------


def grid(w: Workload, run: AuditRunFile) -> list[AuditRunFile]:
    """The run as audited at each point of the operation: the run itself, or
    one copy per (delta, theta) of a sweep, in the order the table lists them."""
    if w.command != SWEEP:
        return [run]
    return [
        replace(
            run,
            params=AuditParams(delta=delta, epsilon=run.params.epsilon, theta=theta),
            strategy=AggregationStrategy(
                kind=run.strategy.kind, theta=theta, veto_rules=run.strategy.veto_rules
            ),
        )
        for delta in w.deltas
        for theta in w.thetas
    ]


def reference_docs(w: Workload, run: AuditRunFile) -> list[dict[str, Any]]:
    """The document the output is checked against at each grid point: the
    report the command prints, or the audit document of each sweep point."""
    if w.command == SWEEP:
        return [build_audit_doc(audit_run(point)) for point in grid(w, run)]
    doc = build_report_doc(
        audit_run(run), group_attr=w.group_attr, include_baselines=w.command == REPORT
    )
    return [doc]


def check_reference(
    w: Workload, run: AuditRunFile, data: bytes, docs: list[dict[str, Any]]
) -> list[str]:
    """Problems found in one operation's output ``data``. ``docs`` (from
    ``reference_docs``) are checked against the brute-force oracle at every
    grid point and, for the fields the oracle does not cover, against direct
    recomputation from ``run``; the output must then say what they say."""
    problems = []
    for point, doc in zip(grid(w, run), docs):
        expected = brute_force_oracle(point, bound=point.n)
        where = f"delta={point.params.delta} theta={point.params.theta}"
        for key, value in expected.items():
            if doc.get(key) != value:
                problems.append(f"{where}: field {key!r} differs from the oracle")
    try:
        printed = json.loads(data)
    except ValueError:
        return problems + ["output is not JSON"]
    if w.command == SWEEP:
        problems += _check_sweep_table(grid(w, run), docs, printed)
    else:
        problems += _check_report_fields(w, run, docs[0])
        if printed != docs[0]:
            problems.append("output does not parse back to the checked document")
    return problems


def _check_sweep_table(
    points: list[AuditRunFile], docs: list[dict[str, Any]], rows: list[dict[str, Any]]
) -> list[str]:
    # Each metric of the table, read off the grid point's audit document.
    printed: dict[tuple[float, float, float], dict[str, float]] = {}
    for row in rows:
        key = (row["delta"], row["epsilon"], row["theta"])
        printed.setdefault(key, {})[row["metric"]] = row["value"]
    problems = []
    if len(printed) != len(points):
        problems.append(f"table has {len(printed)} grid points, expected {len(points)}")
    for point, doc in zip(points, docs):
        params = point.params
        expected = {
            "sf_fair": float(doc["sf"]["verdict"] == "fair"),
            "dissenters": float(len(doc["sf"]["dissenters"])),
            "isf_fair": float(doc["counts"]["isf_fair"]),
            "relaxed_isf_fair": float(doc["counts"]["relaxed_isf_fair"]),
            "obligations": float(len(doc["obligations"])),
            "positive_decision_rate": sum(doc["dec"].values()) / doc["n"],
        }
        for histogram in ("scenario", "conflict"):
            for label, count in doc[f"{histogram}_histogram"].items():
                expected[f"{histogram}_{label}"] = float(count)
        if printed.get((params.delta, params.epsilon, params.theta)) != expected:
            problems.append(
                f"delta={params.delta} theta={params.theta}: table row differs from the audit"
            )
    return problems


def _check_report_fields(w: Workload, run: AuditRunFile, doc: dict[str, Any]) -> list[str]:
    problems = []
    if doc.get("validation") != {"ok": True, "violations": []}:
        problems.append("validation section is not clean")

    ledger = run.ledger.as_rows() if run.ledger is not None else {}
    owed = [(o["individual"], o["kind"]) for o in doc["obligations"]]
    states = [ledger.get(i, {}).get(kind, PENDING) for i, kind in owed]
    if REJECTED in states:
        expected_fairness = "unfair"
    elif all(s == ACCEPTED for s in states):
        expected_fairness = "fair"
    else:
        expected_fairness = PENDING
    if doc.get("explanation_fairness") != expected_fairness:
        problems.append("explanation_fairness does not follow from the ledger")
    if run.ledger is not None and doc.get("ledger") != ledger:
        problems.append("ledger is not echoed")

    baselines = doc.get("baselines", {})
    if w.group_attr:
        groups: dict[str, list[int]] = {}
        for i in run.population.individuals:
            group = str(run.population.attributes_of(i)[w.group_attr])
            groups.setdefault(group, []).append(doc["dec"][i])
        rates = {g: sum(v) / len(v) for g, v in groups.items()}
        expected_parity = {
            "attribute": w.group_attr,
            "rates": rates,
            "gap": max(rates.values()) - min(rates.values()),
        }
        if baselines.get("statistical_parity") != expected_parity:
            problems.append("statistical_parity differs from recomputation")
    if w.command == REPORT and run.baseline is not None:
        objective, subjective = _baseline_violations(run.baseline)
        if baselines.get("objective_if") != objective:
            problems.append("objective_if differs from recomputation")
        if baselines.get("subjective_if") != subjective:
            problems.append("subjective_if differs from recomputation")
    return problems


def _baseline_violations(
    baseline: BaselineInputs,
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    # Pairs whose score gap exceeds the distance by more than 1e-9, first
    # objectively, then as each party of the pair perceives it.
    scores = baseline.scores
    distances = baseline.distances.entries
    overrides = baseline.distances.subjective_overrides
    objective, subjective = [], []
    for x, y in itertools.combinations(sorted(scores), 2):
        gap = abs(scores[x] - scores[y])
        d = distances[(x, y)]
        if gap > d + 1e-9:
            objective.append({"pair": [x, y], "score_gap": gap, "distance": d})
        for observer in (x, y):
            perceived = overrides.get((observer, x, y), d)
            if gap > perceived + 1e-9:
                subjective.append(
                    {
                        "observer": observer,
                        "pair": [x, y],
                        "score_gap": gap,
                        "perceived_distance": perceived,
                    }
                )
    return objective, subjective


def input_shape(
    w: Workload, run: AuditRunFile, seed: int, data: bytes, docs: list[dict[str, Any]]
) -> dict[str, Any]:
    """The sizes every ratio in the results is taken against."""
    k = len(run.baseline.scores) if run.baseline is not None else 0
    return {
        "seed": seed,
        "n": run.n,
        "entries": len(run.perceptions.entries),
        "members": sum(len(m) for doc in docs for m in doc["clusters"].values()),
        "obligations": sum(len(doc["obligations"]) for doc in docs),
        "ledger_entries": len(run.ledger) if run.ledger is not None else 0,
        "baseline_pairs": k * (k - 1) // 2 if w.command == REPORT else 0,
        "grid_points": len(docs),
        "output_bytes": len(data),
    }
