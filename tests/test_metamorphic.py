"""Metamorphic properties of the engine at n = 200-400.

The brute-force oracle stops at n <= 10. These properties relate two runs
of the engine to each other instead, so they reach the flat pipeline at
the sizes the benchmark and the golden hashes use, without a second engine.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from subjfair import (
    MAJORITY,
    PESSIMISTIC,
    VETO,
    AggregationStrategy,
    AuditParams,
    Outcome,
    Population,
    RecommendationVector,
    build_cluster_family,
)
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
            run.purpose, {i: Outcome.score(round(rng.random(), 3)) for i in ids}
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
    for x in run.population.individuals:
        assert pessimistic.set_recommendations[x].value <= majority.set_recommendations[x].value
        assert pessimistic.decisions[x].value <= majority.decisions[x].value


@pytest.mark.parametrize("case", RUNS, ids=IDS)
def test_veto_without_rules_is_majority(case):
    run = _run(*case, epsilon=0.2, theta=0.4)
    majority = audit_run(run)
    veto = audit_run(_with_strategy(run, VETO))
    for field in ("set_recommendations", "decisions", "verdicts", "scenarios", "conflicts"):
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
        for x in run.population.individuals:
            assert tight.cluster_of(x).members <= loose.cluster_of(x).members
            assert tight.containing(x) <= loose.containing(x)
    assert all(len(families[0].cluster_of(x)) == run.n for x in run.population.individuals)


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
    by_id = ("set_rec", "dec", "verdicts", "scenarios", "conflicts")
    renamed = dict(doc)
    renamed["clusters"] = {name[x]: [name[m] for m in c] for x, c in doc["clusters"].items()}
    renamed["membership"] = {
        name[x]: [name[o] for o in owners] for x, owners in doc["membership"].items()
    }
    for field in by_id:
        renamed[field] = {name[x]: v for x, v in doc[field].items()}
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
