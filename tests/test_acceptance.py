"""Acceptance suite.

One test per acceptance criterion; each prints a PASS line on success.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import dataclasses
import itertools
import random
import time

from subjfair import (
    ACCEPTED,
    PENDING,
    REJECTED,
    FAIR,
    UNFAIR,
    AcceptanceLedger,
    AggregationStrategy,
    AuditParams,
    BaselineInputs,
    ObjectiveDistanceTable,
    Population,
    PerceptionTable,
    build_cluster_family,
    cluster_tally,
    dwork_if_check,
    fairness_through_explanations,
    run_pipeline,
    subjective_if_check,
)
from subjfair.audit import ISF_SATISFIED, NEITHER, RELAXED_ONLY
from subjfair.explanations import SYSTEM_RECOMMENDATION
from subjfair.harness.fixtures import crossed_clusters_run
from subjfair.harness.oracle import brute_force_oracle
from subjfair.harness.report import audit_run, build_audit_doc
from subjfair.harness.synth import SynthProfile, generate_population

from helpers import (
    audit,
    by_id,
    cluster_label,
    find_manipulation_instance,
    make_inputs,
    obligation_records,
    random_instance,
    random_rows,
    similarity,
)


def _passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_acceptance_1_stage_one_reproduction():
    run = crossed_clusters_run()
    family = build_cluster_family(run.population, run.perceptions, run.params.delta)
    start = time.perf_counter()
    tally = cluster_tally(run.population, family, run.recommendations)
    set_labels, _ = run_pipeline(run.population, family, tally, run.strategy)
    elapsed = time.perf_counter() - start
    assert by_id(run.population.individuals, set_labels) == {
        "x": 0,
        "y": 1,
        "u": 0,
        "v": 1,
    }
    assert elapsed < 1.0
    _passed(1, "stage-1 cluster labels on the bundled fixture")


def test_acceptance_2_stage_two_reproduction():
    run = crossed_clusters_run()
    family = build_cluster_family(run.population, run.perceptions, run.params.delta)
    start = time.perf_counter()
    tally = cluster_tally(run.population, family, run.recommendations)
    _, decisions = run_pipeline(run.population, family, tally, run.strategy)
    elapsed = time.perf_counter() - start
    assert by_id(run.population.individuals, decisions) == {
        "x": 0,
        "y": 1,
        "u": 0,
        "v": 1,
    }
    assert elapsed < 1.0
    _passed(2, "stage-2 decisions on the bundled fixture")


def test_acceptance_3_objective_vs_subjective_distance():
    scores = {"x": 0.85, "y": 0.90}
    distances = ObjectiveDistanceTable({("x", "y"): 0.05}, {("x", "x", "y"): 0.04})
    baseline = BaselineInputs(scores, distances)
    objective = dwork_if_check(baseline)
    assert objective == []
    subjective = subjective_if_check(baseline, objective)
    assert [observer for observer, _, _, _ in subjective] == ["x"]
    _passed(3, "objective check passes while one observer dissents")


def test_acceptance_4_oracle_equivalence():
    deltas = [0.0, 0.3, 0.5, 0.8, 1.0]
    thetas = [0.4, 0.5, 0.6]
    start = time.perf_counter()
    checked = 0
    for seed in range(200):
        rng = random.Random(seed)
        base = generate_population(
            SynthProfile(
                n=rng.randint(1, 8),
                cluster_density=rng.random(),
                base_positive_rate=rng.random(),
                seed=seed,
            )
        )
        for delta, theta in itertools.product(deltas, thetas):
            params = AuditParams(delta=delta, epsilon=0.0, theta=theta)
            run = dataclasses.replace(
                base, params=params, strategy=AggregationStrategy(theta=theta)
            )
            engine_doc = build_audit_doc(audit_run(run))
            oracle_doc = brute_force_oracle(run)
            assert engine_doc == oracle_doc, f"seed={seed} delta={delta} theta={theta}"
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 200 * len(deltas) * len(thetas)
    assert elapsed < 60.0
    _passed(4, f"oracle equivalence on {checked} audits in {elapsed:.1f}s")


def test_acceptance_5_property_suite():
    cases = 1000

    # delta-monotonicity of perceived clusters
    rng = random.Random(101)
    for _ in range(cases):
        n = rng.randint(1, 8)
        ids = [f"p{k}" for k in range(n)]
        pop = Population(tuple(ids))
        table = PerceptionTable(random_rows(rng, ids, rng.random()))
        lo, hi = sorted((rng.random(), rng.random()))
        k = rng.randrange(n)
        assert set(build_cluster_family(pop, table, hi).members[k]) <= set(
            build_cluster_family(pop, table, lo).members[k]
        )

    # theta-antitonicity of aggregates
    rng = random.Random(102)
    for _ in range(cases):
        size = rng.randint(1, 8)
        labels = [rng.randint(0, 1) for _ in range(size)]
        lo, hi = sorted((rng.uniform(0, 0.99), rng.uniform(0, 0.99)))
        assert cluster_label(labels, hi) <= cluster_label(labels, lo)

    # unanimity preservation through both stages
    rng = random.Random(103)
    for _ in range(cases):
        constant = rng.randint(0, 1)
        n = rng.randint(1, 6)
        ids = [f"p{k}" for k in range(n)]
        inputs = make_inputs(
            random_rows(rng, ids, rng.random()),
            {i: constant for i in ids},
            delta=rng.random(),
            theta=rng.uniform(0, 0.99),
        )
        strategy = AggregationStrategy(theta=inputs.params.theta)
        set_labels, decisions = run_pipeline(inputs.pop, inputs.family, inputs.tally, strategy)
        assert set_labels == decisions == [constant] * n

    # ISF implies relaxed ISF for binary outcomes under majority aggregation
    rng = random.Random(104)
    for _ in range(cases):
        inputs = random_instance(rng, max_n=6)
        report = audit(inputs, epsilon=0.0)
        for isf, relaxed_isf in zip(report.isf, report.relaxed_isf):
            if isf == FAIR:
                assert relaxed_isf == FAIR

    # totality of decisions
    rng = random.Random(105)
    for _ in range(cases):
        inputs = random_instance(rng, max_n=6)
        _, decisions = run_pipeline(inputs.pop, inputs.family, inputs.tally)
        assert len(decisions) == len(inputs.pop)

    # scenario classes partition the population
    rng = random.Random(106)
    for _ in range(cases):
        inputs = random_instance(rng, max_n=6)
        report = audit(inputs)
        ids = inputs.pop.individuals
        values, kind = inputs.recs.values, inputs.recs.kind
        for k, x in enumerate(ids):
            r_x = values[x]
            members = [ids[j] for j in inputs.family.members[k]]
            own_vs_set = similarity(r_x, report.set_labels[k], kind)
            all_match = all(similarity(values[y], r_x, kind) > 0.0 for y in members)
            conds = [
                own_vs_set > 0.0 and all_match,
                own_vs_set > 0.0 and not all_match,
                own_vs_set <= 0.0,
            ]
            assert sum(conds) == 1
            expected = [ISF_SATISFIED, RELAXED_ONLY, NEITHER][conds.index(True)]
            assert report.scenario[k] == expected

    # a tally exactly equal to theta resolves to 0 at both stages
    rng = random.Random(107)
    for _ in range(cases):
        size = rng.randint(1, 8)
        count = rng.randint(0, size - 1) if size > 1 else 0
        theta = count / size
        labels = [1] * count + [0] * (size - count)
        assert cluster_label(labels, theta) == 0

        # t, recommended 0, sits in its own cluster {t} (label 0) and in the
        # cluster of each owner o_k: {o_k, t} and `size` supporters who share
        # o_k's label, so that cluster tallies 0 or (size + 1) / (size + 2),
        # on the side of theta its label says.
        rows, recs = {"t": {"t": 1.0}}, {"t": 0}
        for k, label in enumerate(labels[:-1]):
            supporters = [f"s{k}_{j}" for j in range(size)]
            rows[f"o{k}"] = dict.fromkeys([f"o{k}", "t", *supporters], 1.0)
            rows.update({s: {s: 1.0} for s in supporters})
            recs.update(dict.fromkeys([f"o{k}", *supporters], label))
        inputs = make_inputs(rows, recs, theta=theta)
        strategy = AggregationStrategy(theta=theta)
        set_labels, decisions = run_pipeline(inputs.pop, inputs.family, inputs.tally, strategy)
        t = inputs.pop.positions["t"]
        assert sorted(set_labels[o] for o in inputs.family.owners[t]) == sorted(labels)
        assert decisions[t] == 0

    # subjective check with no overrides is the objective check per observer
    rng = random.Random(108)
    for _ in range(cases):
        n = rng.randint(2, 8)
        ids = [f"p{k}" for k in range(n)]
        scores = {i: round(rng.random(), 3) for i in ids}
        distances = ObjectiveDistanceTable(
            {(a, b): round(rng.random(), 3) for a, b in itertools.combinations(ids, 2)}
        )
        baseline = BaselineInputs(scores, distances)
        found = dwork_if_check(baseline)
        objective = {pair for pair, _, _ in found}
        subjective = subjective_if_check(baseline, found)
        assert {pair for _, pair, _, _ in subjective} == objective
        assert all(observer in pair for observer, pair, _, _ in subjective)
        assert len(subjective) == 2 * len(objective)

    _passed(5, f"eight properties, {cases} randomized cases each")


def test_acceptance_6_manipulation_mitigation():
    run = find_manipulation_instance()
    agent, target = run.metadata["manipulation"][0]
    oracle_doc = brute_force_oracle(run)
    assert oracle_doc["set_rec"][target] == 1
    assert oracle_doc["set_rec"][agent] == 1
    assert oracle_doc["dec"][agent] == 0
    assert oracle_doc == build_audit_doc(audit_run(run))
    _passed(6, f"agent {agent} joins a favorable cluster yet is denied")


def test_acceptance_7_explanation_state_machine():
    assert fairness_through_explanations({}, AcceptanceLedger()) == FAIR

    single = {"a": (SYSTEM_RECOMMENDATION,)}
    ledger = AcceptanceLedger({("a", SYSTEM_RECOMMENDATION): REJECTED})
    assert fairness_through_explanations(single, ledger) == UNFAIR

    order = {UNFAIR: 0, PENDING: 1, FAIR: 2}
    rng = random.Random(109)
    kinds = [
        "SYSTEM_RECOMMENDATION",
        "AGGREGATION_METHOD",
        "GROUP_IDENTIFICATION",
        "SYSTEM_ERROR_REVIEW",
    ]
    for _ in range(500):
        owed = {f"p{k}": (rng.choice(kinds),) for k in range(rng.randint(1, 6))}
        obligations = obligation_records(owed)
        ledger = AcceptanceLedger(
            {o.key: rng.choice([ACCEPTED, REJECTED, PENDING]) for o in obligations}
        )
        before = fairness_through_explanations(owed, ledger)
        flipped = rng.choice(obligations)
        ledger = AcceptanceLedger({**ledger, flipped.key: ACCEPTED})
        after = fairness_through_explanations(owed, ledger)
        assert order[after] >= order[before]
    _passed(7, "vacuous fairness, rejection, and 500 acceptance mutations")
