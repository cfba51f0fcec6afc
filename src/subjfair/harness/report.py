"""Audit orchestration and report emission.

``audit_grid`` wires the full pipeline for one run file at a sequence of
points: validation, clustering, both aggregation stages, fairness
verdicts and obligations. ``audit_run`` is
its single-point case; ``decide_run`` runs its part before the audit alone,
for the commands that print no audit. Reports come in a
machine form, a plain dict that ``dumps_doc`` (from ``runfile``) writes as
compact JSON with sorted keys, and a human-readable text form; both are
deterministic for a given run file and engine version.
Each is written from the family's position lists, the audit's columns and
the baselines' violation tuples, and states each fact once
(``subjfair-report/3``): ``clusters`` with no transposed membership, the
per-person verdicts, scenarios and conflicts as columns that follow one
``individuals`` list, each obligation as its individual and kind beside
one ``obligation_tags`` table, and the procedural check as
``{tag: provenance}``, which ``build_report_doc`` adds from the run's
``metadata.ethicality_asserted``, beside the explanation-level verdict,
which only it reads off the ledger.
``baselines_section`` builds the baselines part on its own, for the report
and for the ``baseline`` command.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any

from .. import __version__
from ..aggregation import AggregationStrategy, cluster_tally, run_pipeline
from ..audit import CONFLICTS, FAIR, SCENARIOS, SYSTEM_SUSPECT, AuditReport, audit_population
from ..baselines import dwork_if_check, statistical_parity_gap, subjective_if_check
from ..clustering import ClusterFamily, build_cluster_family
from ..core import AuditParams, Value, validate_population
from ..explanations import (
    KIND_TAGS,
    ExplanationObligation,
    derive_obligations,
    fairness_through_explanations,
    procedural_check,
)
from .runfile import AuditRunFile, _build, dumps_doc, settings_to_dict, validate_run

REPORT_SCHEMA = "subjfair-report/3"

#: The settings a run is audited at, a point of a grid.
Point = tuple[AuditParams, AggregationStrategy]

#: Report flag raised whenever any individual's conflict is SYSTEM_SUSPECT.
SYSTEM_REVIEW_FLAG = "ADMS recommendation requires review"

#: Report flag raised when a run that carries a ledger is audited at
#: settings other than its own: the ledger was not read.
OTHER_SETTINGS_FLAG = "ledger not read: it answers the run file's own settings"


class RunResult(Value):
    """Everything one audit of ``run`` at the point ``(params, strategy)``
    produced; ``owed`` is ``derive_obligations``'s."""

    _fields = ("run", "params", "strategy", "family", "report", "owed")
    run: AuditRunFile
    params: AuditParams
    strategy: AggregationStrategy
    family: ClusterFamily
    report: AuditReport
    owed: Mapping[str, tuple[str, ...]]

    @property
    def obligations(self) -> tuple[ExplanationObligation, ...]:
        """Read-only view: one record per owed kind, by id, then kind."""
        return tuple(ExplanationObligation(x, k) for x, kinds in self.owed.items() for k in kinds)


def _decide_grid(run: AuditRunFile, settings: Iterable[Point]) -> Iterator[tuple]:
    """``audit_grid``'s part before the audit: ``(params, strategy, family,
    tally, (set_labels, decisions))`` per point of ``settings``, in order.
    Validation does not depend on the settings, so it runs once, and not
    at all for a run whose inputs ``load_run`` has validated. Clusters and
    their stage-1 tally depend on delta alone: both are made only when delta
    differs from the previous point's, and only one of each is kept."""
    if validate_population(run.population, run.perceptions, run.recommendations):
        validate_run(run)  # refuses as ``load_run`` does; the table kept the result
    pop, recs = run.population, run.recommendations
    family = tally = delta = None
    for params, strategy in settings:
        if params.delta != delta:
            family = tally = None  # the previous ones go before the next are built
            delta = params.delta
            family = build_cluster_family(pop, run.perceptions, delta)
            tally = cluster_tally(pop, family, recs)
        yield params, strategy, family, tally, run_pipeline(pop, family, tally, strategy)


def audit_grid(run: AuditRunFile, settings: Iterable[Point]) -> Iterator[RunResult]:
    """One ``RunResult`` per ``(params, strategy)`` point of ``settings``, in order.

    Every point is audited on ``run`` itself, with the stage-1 tally its
    pipeline read, and each result records its point; the ledger is not
    read here (``build_report_doc`` reads it).

    Raises:
        RunFileError: at the first model invariant the inputs break.
    """
    pop, recs = run.population, run.recommendations
    for params, strategy, family, tally, labels in _decide_grid(run, settings):
        report = audit_population(pop, family, recs, params, tally, *labels)
        yield RunResult(run, params, strategy, family, report, derive_obligations(report))


def audit_run(run: AuditRunFile, settings: Point | None = None) -> RunResult:
    """The full audit of ``run`` at the point ``settings``, by default its
    own: ``audit_grid`` at one point, raising as it does."""
    return next(audit_grid(run, [settings or (run.params, run.strategy)]))


def decide_run(run: AuditRunFile, settings: Point | None = None) -> tuple[list[int], list[int]]:
    """The 0/1 cluster labels and decisions of ``run`` at the point
    ``settings``, by default its own, by person position: ``audit_grid``
    with no audit, validating and raising as it does."""
    return next(_decide_grid(run, [settings or (run.params, run.strategy)]))[-1]


def label_fields(
    ids: Sequence[str], set_labels: Sequence[int], decisions: Sequence[int]
) -> dict[str, dict[str, int]]:
    """The ``set_rec`` and ``dec`` fields of the audit document: the 0/1
    cluster label and decision of each person, by position in ``ids``, keyed
    by id."""
    return {"set_rec": dict(zip(ids, set_labels)), "dec": dict(zip(ids, decisions))}


def summary_counts(report: AuditReport) -> dict[str, dict[str, int]]:
    """The ``counts``, ``scenario_histogram`` and ``conflict_histogram``
    fields of the audit document, each label in its fixed order."""
    scenarios = Counter(report.scenario)
    conflicts = Counter(report.conflict)
    return {
        "counts": {
            "isf_fair": report.isf.count(FAIR),
            "relaxed_isf_fair": report.relaxed_isf.count(FAIR),
        },
        "scenario_histogram": {k: scenarios[k] for k in SCENARIOS},
        "conflict_histogram": {k: conflicts[k] for k in CONFLICTS},
    }


def build_audit_doc(result: RunResult) -> dict[str, Any]:
    """The audit core as a plain document, comparable field-for-field with
    the brute-force oracle's output. Written from the family's lists and
    the report's columns by position, each list of people in id order:
    ``individuals`` lists the ids so, and each per-person column (the
    verdicts, ``scenarios`` and ``conflicts``) follows it."""
    run = result.run
    report = result.report
    ids = run.population.individuals
    named = ids.__getitem__
    order = run.population.order

    def by_id(column: Sequence[Any]) -> list[Any]:
        return list(map(column.__getitem__, order))

    return {
        "schema": REPORT_SCHEMA,
        "purpose": run.purpose,
        "n": len(ids),
        **settings_to_dict(result.params, result.strategy),
        "clusters": {x: list(map(named, c)) for x, c in zip(ids, result.family.members)},
        **label_fields(ids, report.set_labels, report.decisions),
        "individuals": by_id(ids),
        "verdicts": {
            "isf": by_id(report.isf),
            "relaxed_isf": by_id(report.relaxed_isf),
            "satisfaction_ratio": by_id(report.satisfaction_ratio),
        },
        "scenarios": by_id(report.scenario),
        "conflicts": by_id(report.conflict),
        "sf": {"verdict": report.sf, "dissenters": sorted(report.dissenters)},
        **summary_counts(report),
        "obligations": [
            {"individual": x, "kind": kind} for x, kinds in result.owed.items() for kind in kinds
        ],
        "obligation_tags": {kind: sorted(tags) for kind, tags in KIND_TAGS.items()},
    }


def build_report_doc(
    result: RunResult,
    group_attr: str | None = None,
    include_baselines: bool = False,
) -> dict[str, Any]:
    """The full report document: audit core plus validation, explanation
    state, procedural tags, review flags, and optional baseline metrics.

    A ledger answers the obligations of its file's own settings, so it is
    read and echoed only at that point; at any other, a run that carries
    one gets no explanation verdict, and a flag says why.

    Raises:
        RunFileError: at the ledger entry that names no obligation.
    """
    doc = build_audit_doc(result)
    doc["engine_version"] = __version__
    # Only a run whose inputs pass validation is audited (``audit_grid``).
    doc["validation"] = {"ok": True, "violations": []}
    run, ledger = result.run, result.run.ledger
    # Only JSON ``true`` asserts ethicality; the loader refuses any other
    # value but ``false``.
    doc["procedural"] = procedural_check(run.metadata.get("ethicality_asserted") is True)
    flags = []
    if doc["conflict_histogram"][SYSTEM_SUSPECT] > 0:
        flags.append(SYSTEM_REVIEW_FLAG)
    if ledger is None or (result.params, result.strategy) == (run.params, run.strategy):
        doc["explanation_fairness"] = _build(
            lambda: fairness_through_explanations(result.owed, ledger or {}), ".".join
        )
        if ledger is not None:
            doc["ledger"] = ledger.as_rows()
    else:
        flags.append(OTHER_SETTINGS_FLAG)
    doc["flags"] = flags

    baselines = baselines_section(run, result.report.decisions, group_attr, include_baselines)
    if baselines:
        doc["baselines"] = baselines
    return doc


def baselines_section(
    run: AuditRunFile,
    decisions: Sequence[int] | None,
    group_attr: str | None = None,
    include_if: bool = False,
) -> dict[str, Any]:
    """The ``baselines`` section of the report: statistical parity of the
    0/1 ``decisions``, by person position, on ``group_attr`` when one is
    given, and both individual-fairness checks when ``include_if`` and the
    run carries baseline inputs. Empty when neither applies."""
    baselines: dict[str, Any] = {}
    if group_attr is not None:
        rates, gap = statistical_parity_gap(decisions, run.population, group_attr)
        baselines["statistical_parity"] = {
            "attribute": group_attr,
            "rates": {str(g): r for g, r in sorted(rates.items(), key=lambda kv: str(kv[0]))},
            "gap": gap,
        }
    if include_if and run.baseline is not None:
        objective = dwork_if_check(run.baseline)
        baselines["objective_if"] = [
            {"pair": list(pair), "score_gap": gap, "distance": d}
            for pair, gap, d in objective
        ]
        baselines["subjective_if"] = [
            {
                "observer": observer,
                "pair": list(pair),
                "score_gap": gap,
                "perceived_distance": perceived,
            }
            for observer, pair, gap, perceived in subjective_if_check(run.baseline, objective)
        ]
    return baselines


def render_labels(doc: dict[str, Any]) -> list[str]:
    """The text lines of the ``set_rec`` and ``dec`` fields, by sorted id."""
    return [
        f"{title}: " + " ".join(f"{i}={doc[field][i]}" for i in sorted(doc[field]))
        for title, field in (("set recommendations", "set_rec"), ("decisions", "dec"))
    ]


def render_baselines(baselines: dict[str, Any]) -> list[str]:
    """The text lines of a ``baselines`` section: the parity line, and each
    IF check's violation count followed by one line per violation."""
    lines = []
    if "statistical_parity" in baselines:
        parity = baselines["statistical_parity"]
        rates = " ".join(f"{g}={r:.4f}" for g, r in parity["rates"].items())
        lines.append(
            f"statistical parity on {parity['attribute']!r}: {rates} "
            f"(gap {parity['gap']:.4f})"
        )
    if "objective_if" in baselines:
        lines.append(f"objective IF violations: {len(baselines['objective_if'])}")
        for v in baselines["objective_if"]:
            lines.append(
                f"  - ({v['pair'][0]}, {v['pair'][1]}): gap {v['score_gap']:.4f} "
                f"> distance {v['distance']:.4f}"
            )
    if "subjective_if" in baselines:
        lines.append(f"subjective IF violations: {len(baselines['subjective_if'])}")
        for v in baselines["subjective_if"]:
            lines.append(
                f"  - observer {v['observer']} on ({v['pair'][0]}, {v['pair'][1]}): "
                f"gap {v['score_gap']:.4f} > perceived {v['perceived_distance']:.4f}"
            )
    return lines


def render_text(doc: dict[str, Any]) -> str:
    """Human-readable form of a report document, ordered by individual id
    throughout."""
    lines = [
        f"subjective-fairness audit: purpose {doc['purpose']!r}, n={doc['n']}",
        "params: delta={delta} epsilon={epsilon} theta={theta}".format(**doc["params"])
        + f", strategy={doc['strategy']['kind']}",
        "validation: clean",
    ]

    sf = doc["sf"]
    if sf["dissenters"]:
        lines.append(
            f"SF: {sf['verdict']} ({len(sf['dissenters'])} dissenters: "
            + ", ".join(sf["dissenters"])
            + ")"
        )
    else:
        lines.append(f"SF: {sf['verdict']}, 0 dissenters")
    lines.append(
        f"ISF fair: {doc['counts']['isf_fair']}/{doc['n']}; "
        f"relaxed ISF fair: {doc['counts']['relaxed_isf_fair']}/{doc['n']}"
    )
    lines.append(
        "scenarios: "
        + " ".join(f"{k}={v}" for k, v in doc["scenario_histogram"].items())
    )
    lines.append(
        "conflicts: "
        + " ".join(f"{k}={v}" for k, v in doc["conflict_histogram"].items())
    )
    lines += render_labels(doc)

    lines.append(f"obligations: {len(doc['obligations'])}")
    tags = {kind: ",".join(kind_tags) for kind, kind_tags in doc["obligation_tags"].items()}
    for o in doc["obligations"]:
        lines.append(f"  - {o['individual']}: {o['kind']} [{tags[o['kind']]}]")
    if "explanation_fairness" in doc:
        lines.append(f"explanation fairness: {doc['explanation_fairness']}")
    if "procedural" in doc:
        satisfied = ", ".join(sorted(doc["procedural"])) or "none"
        lines.append(f"procedural rules satisfied: {satisfied}")
    for flag in doc.get("flags", []):
        lines.append(f"flag: {flag}")

    lines += render_baselines(doc.get("baselines", {}))
    return "\n".join(lines) + "\n"
