"""Metamorphic properties of the engine at n = 200-400.

The brute-force oracle stops at n <= 10. These properties relate two runs
of the engine to each other instead, so they reach the flat pipeline at
the sizes the benchmark and the golden hashes use, without a second engine.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

from subjfair import (
    MAJORITY,
    PESSIMISTIC,
    TRUST_WEIGHTED,
    VETO,
    AggregationStrategy,
    SCORE,
    AuditParams,
    PerceptionTable,
    Population,
    RecommendationVector,
    VetoRule,
    binarize,
    build_cluster_family,
)
from subjfair.harness.cli import main
from subjfair.harness.report import audit_run, build_audit_doc
from subjfair.harness.runfile import from_dict, to_dict
from subjfair.harness.synth import SynthProfile, generate_population

#: (n, density, recommendation kind, seed)
RUNS = [
    (200, 0.3, "binary", 1),
    (250, 0.05, "score", 2),
    (300, 0.3, "score", 3),
    (400, 0.01, "binary", 4),
]
IDS = [f"n{c[0]}-d{c[1]}-{c[2]}" for c in RUNS]

#: The per-person fields of an audit report: the label lists and the
#: verdict, scenario and conflict columns.
COLUMNS = (
    "set_labels",
    "decisions",
    "isf",
    "relaxed_isf",
    "satisfaction_ratio",
    "scenario",
    "conflict",
)


def _run(n, density, kind, seed, delta=0.5, epsilon=0.0, theta=0.5):
    run = generate_population(SynthProfile(n=n, cluster_density=density, seed=seed))
    rng = random.Random(f"metamorphic/{seed}")
    ids = run.population.individuals
    changes = {
        "params": AuditParams(delta=delta, epsilon=epsilon, theta=theta),
        "strategy": AggregationStrategy(MAJORITY, theta=theta),
        "population": Population(ids, {i: {"age": rng.randint(10, 60)} for i in ids}),
    }
    if kind == "score":
        changes["recommendations"] = RecommendationVector(
            run.purpose, {i: round(rng.random(), 3) for i in ids}, SCORE
        )
    return replace(run, **changes)


def _with_strategy(run, kind):
    return replace(run, strategy=AggregationStrategy(kind, theta=run.params.theta))


@pytest.mark.parametrize("case", RUNS, ids=IDS)
@pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
def test_pessimistic_decisions_never_exceed_majority(case, theta):
    run = _run(*case, delta=0.4, theta=theta)
    majority = audit_run(run).report
    pessimistic = audit_run(_with_strategy(run, PESSIMISTIC)).report
    for field in ("set_labels", "decisions"):
        assert all(map(int.__le__, getattr(pessimistic, field), getattr(majority, field))), field


@pytest.mark.parametrize("case", RUNS, ids=IDS)
def test_veto_without_rules_is_majority(case):
    run = _run(*case, epsilon=0.2, theta=0.4)
    majority = audit_run(run)
    veto = audit_run(_with_strategy(run, VETO))
    for field in COLUMNS:
        assert getattr(veto.report, field) == getattr(majority.report, field), field
    assert veto.report.sf == majority.report.sf
    assert veto.report.dissenters == majority.report.dissenters
    assert veto.obligations == majority.obligations


@pytest.mark.parametrize("case", RUNS, ids=IDS)
def test_raising_delta_only_shrinks_clusters_and_memberships(case):
    run = _run(*case)
    deltas = [0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 1.0]
    families = [build_cluster_family(run.population, run.perceptions, d) for d in deltas]
    for loose, tight in zip(families, families[1:]):
        for k in range(run.n):
            assert set(tight.members[k]) <= set(loose.members[k])
            assert set(tight.owners[k]) <= set(loose.owners[k])
    assert all(len(members) == run.n for members in families[0].members)


def _renamed_run(run, name):
    doc = to_dict(run)
    doc["individuals"] = [name[i] for i in doc["individuals"]]
    doc["attributes"] = {name[i]: v for i, v in doc["attributes"].items()}
    doc["sim"] = {
        name[o]: {name[t]: v for t, v in row.items()} for o, row in doc["sim"].items()
    }
    doc["rec"]["values"] = {name[i]: v for i, v in doc["rec"]["values"].items()}
    return from_dict(doc)


def _renamed_doc(doc, name):
    # the per-person columns follow ``individuals``, which keeps its order
    renamed = dict(doc)
    renamed["clusters"] = {name[x]: [name[m] for m in c] for x, c in doc["clusters"].items()}
    for field in ("set_rec", "dec"):
        renamed[field] = {name[x]: v for x, v in doc[field].items()}
    renamed["individuals"] = [name[x] for x in doc["individuals"]]
    renamed["sf"] = {
        "verdict": doc["sf"]["verdict"],
        "dissenters": [name[x] for x in doc["sf"]["dissenters"]],
    }
    renamed["obligations"] = [
        {**o, "individual": name[o["individual"]]} for o in doc["obligations"]
    ]
    return renamed


@pytest.mark.parametrize("case", RUNS, ids=IDS)
@pytest.mark.parametrize("kind", [MAJORITY, "trust_weighted", PESSIMISTIC])
def test_order_preserving_renaming_renames_the_report(case, kind):
    run = _with_strategy(_run(*case, epsilon=0.1), kind)
    # Ranks in sorted order, zero-padded, then a suffix that varies: the
    # new ids sort exactly as the old ones do.
    ordered = sorted(run.population.individuals)
    name = {old: f"person-{rank:05d}-{rank * 7919 % 997}" for rank, old in enumerate(ordered)}
    assert sorted(name.values()) == [name[old] for old in ordered]
    expected = _renamed_doc(build_audit_doc(audit_run(run)), name)
    assert build_audit_doc(audit_run(_renamed_run(run, name))) == expected


def _printed(doc, path, argv):
    path.write_text(json.dumps(doc), encoding="utf-8")
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert main([argv[0], "--input", str(path), *argv[1:]]) == 0
    return buffer.getvalue()


#: The commands whose output must not depend on the order of ``individuals``.
ORDER_FREE = {
    "report": ["report", "--format", "json", "--group-attr", "age"],
    "sweep": [
        "simulate", "--sweep", "--deltas", "0,0.3,0.6", "--epsilons", "0,0.2",
        "--thetas", "0.4,0.5", "--format", "json",
    ],
    "decide": ["decide", "--format", "json"],
}
STRATEGIES = [MAJORITY, TRUST_WEIGHTED, PESSIMISTIC, VETO]


@pytest.mark.parametrize("kind", ["binary", "score"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_shuffling_the_population_leaves_the_report_unchanged(tmp_path, strategy, kind):
    # People are indexed by their position in ``individuals``, so every
    # loop runs in that order; the printed bytes must not.
    seed = 1 + 2 * STRATEGIES.index(strategy) + (kind == "score")
    run = _run(250, [0.3, 0.05][seed % 2], kind, seed, epsilon=0.1)
    rules = (VetoRule("age", "<", 18),) if strategy == VETO else ()
    run = replace(run, strategy=AggregationStrategy(strategy, theta=0.5, veto_rules=rules))
    doc = to_dict(run)
    shuffled = dict(doc, individuals=random.Random(seed).sample(doc["individuals"], run.n))
    assert shuffled["individuals"] != doc["individuals"]
    for name, argv in ORDER_FREE.items():
        expected = _printed(doc, tmp_path / f"{name}-a.json", argv)
        assert _printed(shuffled, tmp_path / f"{name}-b.json", argv) == expected, name


def _self_consistent(run):
    """The run with the row of everyone whose label differs from their own
    cluster's majority label cut down to themself. A row is one person's
    own statement, so this changes only their own cluster, which then holds
    them alone and agrees with them: every trust weight becomes 1."""
    majority = audit_run(run).report.set_labels
    rows = run.perceptions.as_rows()
    dissenting = [
        x for x, own in zip(run.population.individuals, majority)
        if binarize(run.recommendations.values[x]) != own
    ]
    for x in dissenting:
        rows[x] = {x: 1.0}
    perceptions = PerceptionTable(rows, run.perceptions.provenance)
    return replace(run, perceptions=perceptions), len(dissenting)


@pytest.mark.parametrize("case", RUNS, ids=IDS)
@pytest.mark.parametrize("theta", [0.3, 0.5])
def test_trust_weighted_is_majority_when_everyone_agrees_with_their_cluster(case, theta):
    run, cut = _self_consistent(_run(*case, delta=0.4, epsilon=0.1, theta=theta))
    majority = audit_run(run)
    family = majority.family
    assert cut > 0
    assert sum(map(len, family.members)) > 2 * run.n
    for x, own in zip(run.population.individuals, majority.report.set_labels):
        assert binarize(run.recommendations.values[x]) == own
    weighted = audit_run(_with_strategy(run, TRUST_WEIGHTED))
    for field in COLUMNS:
        assert getattr(weighted.report, field) == getattr(majority.report, field), field
    assert weighted.obligations == majority.obligations


def _as_scores(run):
    """The run with each binary label restated as the score 0.0 or 1.0."""
    values = run.recommendations.values
    return replace(run, recommendations=RecommendationVector(run.purpose, values, SCORE))


#: (n, density, seed) of the binary runs restated as scores
BINARY_RUNS = [(200, 0.3, 11), (300, 0.1, 12), (400, 0.02, 13)]


@pytest.mark.parametrize("case", BINARY_RUNS, ids=[f"n{c[0]}-d{c[1]}" for c in BINARY_RUNS])
@pytest.mark.parametrize("epsilon", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("kind", [MAJORITY, TRUST_WEIGHTED, PESSIMISTIC, VETO])
def test_binary_labels_audit_as_their_zero_one_scores(case, epsilon, kind):
    # Binary ISF is counted from the stage-1 tally; scores go member by
    # member. On 0/1 values the two must agree at every epsilon.
    n, density, seed = case
    run = _run(n, density, "binary", seed, epsilon=epsilon, theta=0.4)
    rules = (VetoRule("age", "<", 18),) if kind == VETO else ()
    run = replace(run, strategy=AggregationStrategy(kind, theta=0.4, veto_rules=rules))
    scored = _as_scores(run)
    assert scored.recommendations.kind == "score"
    binary, score = audit_run(run), audit_run(scored)
    ratios = set(binary.report.satisfaction_ratio)
    assert any(0.0 < r < 1.0 for r in ratios)
    for field in COLUMNS:
        assert getattr(score.report, field) == getattr(binary.report, field), field
    assert score.report.sf == binary.report.sf
    assert score.report.dissenters == binary.report.dissenters
    assert score.obligations == binary.obligations
