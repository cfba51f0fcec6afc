import random

import pytest
from hypothesis import given, strategies as st

from subjfair import (
    AggregationStrategy,
    ConfigError,
    Outcome,
    RecommendationVector,
    SetRecommendationVector,
    VetoRule,
    aggregate_individual_decision,
    aggregate_set_recommendation,
    apply_veto,
    binarize,
    resolve_pessimistic,
    run_pipeline,
    trust_weight,
)
from subjfair import aggregation
from subjfair.aggregation import validate_veto_rules
from subjfair.clustering import PerceivedCluster

from helpers import make_inputs, random_instance, random_rows


def _recs(values, kind="binary"):
    make = Outcome.label if kind == "binary" else Outcome.score
    return RecommendationVector("test", {i: make(v) for i, v in values.items()})


def _cluster(owner, members):
    return PerceivedCluster(owner, frozenset(members))


CROSSED_ROWS = {
    "x": {"x": 1.0, "y": 0.8, "u": 0.1, "v": 0.1},
    "y": {"x": 0.1, "y": 1.0, "u": 0.8, "v": 0.8},
    "u": {"x": 0.8, "y": 0.1, "u": 1.0, "v": 0.8},
    "v": {"x": 0.1, "y": 0.8, "u": 0.1, "v": 1.0},
}
CROSSED_RECS = {"x": 0, "y": 1, "u": 0, "v": 1}


class TestStageOne:
    def test_two_to_one_majority(self):
        recs = _recs({"y": 1, "u": 0, "v": 1})
        got = aggregate_set_recommendation(_cluster("y", ["y", "u", "v"]), recs, 0.5)
        assert got == Outcome.label(1)

    def test_exact_tie_resolves_to_zero(self):
        recs = _recs({"x": 0, "y": 1})
        got = aggregate_set_recommendation(_cluster("x", ["x", "y"]), recs, 0.5)
        assert got == Outcome.label(0)

    def test_unanimous_cluster(self):
        recs = _recs({"a": 1, "b": 1, "c": 1})
        for theta in (0.0, 0.5, 0.9):
            got = aggregate_set_recommendation(_cluster("a", ["a", "b", "c"]), recs, theta)
            assert got == Outcome.label(1)

    def test_scores_binarized_before_tally(self):
        recs = _recs({"a": 0.7, "b": 0.3}, kind="score")
        got = aggregate_set_recommendation(_cluster("a", ["a", "b"]), recs, 0.5)
        assert got == Outcome.label(0)  # binarized to {1, 0}: tally 0.5, strict
        recs = _recs({"a": 0.7, "b": 0.6, "c": 0.2}, kind="score")
        got = aggregate_set_recommendation(_cluster("a", ["a", "b", "c"]), recs, 0.5)
        assert got == Outcome.label(1)

    def test_score_exactly_half_binarizes_to_zero(self):
        assert binarize(Outcome.score(0.5)) == Outcome.label(0)
        assert binarize(Outcome.score(0.51)) == Outcome.label(1)


class TestStageTwo:
    def _set_recs(self, values):
        return SetRecommendationVector("test", {i: Outcome.label(v) for i, v in values.items()})

    def test_majority_across_clusters(self):
        inputs = make_inputs(CROSSED_ROWS, CROSSED_RECS)
        set_recs = self._set_recs({"x": 0, "y": 1, "u": 0, "v": 1})
        got = aggregate_individual_decision("y", inputs.family, set_recs, 0.5)
        assert got == Outcome.label(1)

    def test_tie_across_clusters_resolves_to_zero(self):
        inputs = make_inputs(CROSSED_ROWS, CROSSED_RECS)
        set_recs = self._set_recs({"x": 0, "y": 1, "u": 0, "v": 1})
        # u sits in the clusters of y (1) and u (0)
        got = aggregate_individual_decision("u", inputs.family, set_recs, 0.5)
        assert got == Outcome.label(0)

    def test_single_cluster_membership_inherits_label(self):
        inputs = make_inputs({"a": {"a": 1.0}, "b": {"b": 1.0}}, {"a": 1, "b": 0})
        set_recs = self._set_recs({"a": 1, "b": 0})
        assert aggregate_individual_decision("a", inputs.family, set_recs, 0.5) == Outcome.label(1)


class TestPipeline:
    def test_crossed_clusters_stage_one(self):
        inputs = make_inputs(CROSSED_ROWS, CROSSED_RECS)
        set_recs, _ = run_pipeline(inputs.pop, inputs.family, inputs.recs)
        assert {i: int(o.value) for i, o in set_recs.values.items()} == {
            "x": 0,
            "y": 1,
            "u": 0,
            "v": 1,
        }

    def test_crossed_clusters_stage_two(self):
        inputs = make_inputs(CROSSED_ROWS, CROSSED_RECS)
        _, decisions = run_pipeline(inputs.pop, inputs.family, inputs.recs)
        assert {i: int(o.value) for i, o in decisions.values.items()} == {
            "x": 0,
            "y": 1,
            "u": 0,
            "v": 1,
        }

    def test_unanimous_population(self):
        rng = random.Random(11)
        ids = [f"p{k}" for k in range(5)]
        rows = {
            x: {z: 1.0 if z == x else rng.choice([0.0, 0.4, 0.8]) for z in ids}
            for x in ids
        }
        inputs = make_inputs(rows, {i: 1 for i in ids}, delta=0.5)
        set_recs, decisions = run_pipeline(inputs.pop, inputs.family, inputs.recs)
        assert all(o.value == 1.0 for o in set_recs.values.values())
        assert all(o.value == 1.0 for o in decisions.values.values())

    def test_decisions_are_total(self):
        rng = random.Random(5)
        for _ in range(20):
            inputs = random_instance(rng)
            _, decisions = run_pipeline(inputs.pop, inputs.family, inputs.recs)
            assert set(decisions.values) == set(inputs.pop.individuals)


class TestTrustWeighting:
    def test_agreement_gives_full_weight(self):
        inputs = make_inputs({"a": {"a": 1.0, "b": 0.8}, "b": {"b": 1.0}}, {"a": 0, "b": 0})
        assert trust_weight("a", inputs.family, inputs.recs) == 1.0

    def test_crossed_clusters_aligned_member(self):
        # y recommends 1 and y's own cluster aggregates to 1
        inputs = make_inputs(CROSSED_ROWS, CROSSED_RECS)
        assert trust_weight("y", inputs.family, inputs.recs) == 1.0

    def test_disagreement_gives_zero_weight(self):
        inputs = make_inputs({"a": {"a": 1.0, "b": 0.8}, "b": {"b": 1.0}}, {"a": 1, "b": 0})
        # a's cluster {a, b} tallies 0.5 -> label 0, against a's own 1
        assert trust_weight("a", inputs.family, inputs.recs) == 0.0

    def test_weighting_can_flip_a_majority(self):
        # o's cluster {o, m, m1} holds a 2/3 majority for 1, but m1's vote
        # carries no trust (m1 disagrees with their own cluster), so the
        # weighted tally lands on the tie and resolves to 0.
        rows = {
            "o": {"o": 1.0, "m": 0.8, "m1": 0.8},
            "m": {"m": 1.0, "z": 0.8},
            "m1": {"m1": 1.0, "z": 0.8, "m": 0.8},
            "z": {"z": 1.0},
        }
        recs = {"o": 1, "m": 0, "m1": 1, "z": 0}
        inputs = make_inputs(rows, recs)
        plain, _ = run_pipeline(inputs.pop, inputs.family, inputs.recs)
        weighted, _ = run_pipeline(
            inputs.pop, inputs.family, inputs.recs, AggregationStrategy("trust_weighted")
        )
        assert plain["o"] == Outcome.label(1)
        assert weighted["o"] == Outcome.label(0)

    def test_all_zero_weights_fall_back_to_majority(self):
        # every member of a's cluster disagrees with their own cluster's
        # majority, so the weighted tally has no mass and falls back
        rows = {
            "a": {"a": 1.0, "b": 0.8},
            "b": {"b": 1.0, "c": 0.8, "d": 0.8},
            "c": {"c": 1.0},
            "d": {"d": 1.0},
        }
        recs = {"a": 1, "b": 0, "c": 1, "d": 1}
        inputs = make_inputs(rows, recs)
        assert trust_weight("a", inputs.family, inputs.recs) == 0.0
        assert trust_weight("b", inputs.family, inputs.recs) == 0.0
        plain, _ = run_pipeline(inputs.pop, inputs.family, inputs.recs)
        weighted, _ = run_pipeline(
            inputs.pop, inputs.family, inputs.recs, AggregationStrategy("trust_weighted")
        )
        assert weighted["a"] == plain["a"]


    def test_pipeline_matches_per_member_trust_weights(self):
        # the pipeline reads precomputed weights; restate stage 1 from the
        # public trust_weight, recomputed for every member of every cluster
        rng = random.Random(11)
        for _ in range(6):
            inputs = random_instance(rng, max_n=60, delta=rng.choice([0.3, 0.5, 0.8]))
            family, recs, theta = inputs.family, inputs.recs, inputs.params.theta
            strategy = AggregationStrategy("trust_weighted", theta)
            labels, _ = run_pipeline(inputs.pop, family, recs, strategy)
            for owner in inputs.pop.individuals:
                cluster = family.cluster_of(owner)
                weights = {m: trust_weight(m, family, recs, theta) for m in cluster.members}
                total = sum(weights.values())
                if total == 0.0:
                    expected = aggregate_set_recommendation(cluster, recs, theta)
                else:
                    tally = sum(w * recs[m].value for m, w in weights.items()) / total
                    expected = Outcome.label(1 if tally > theta else 0)
                assert labels[owner] == expected

    def test_pipeline_aggregates_each_cluster_once(self, monkeypatch):
        # complexity gate by counted calls: one unweighted majority per
        # cluster, not one per (cluster, member) pair
        rng = random.Random(3)
        ids = [f"p{k:03d}" for k in range(100)]
        recs = {i: rng.randint(0, 1) for i in ids}
        inputs = make_inputs(random_rows(rng, ids, density=0.5), recs, delta=0.3)
        sum_c = sum(len(c) for c in inputs.family.clusters.values())
        assert sum_c > 4 * len(ids)

        calls = 0
        aggregate = aggregation.aggregate_set_recommendation

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return aggregate(*args, **kwargs)

        monkeypatch.setattr(aggregation, "aggregate_set_recommendation", counting)
        strategy = AggregationStrategy("trust_weighted")
        run_pipeline(inputs.pop, inputs.family, inputs.recs, strategy)
        assert calls <= 2 * len(ids)


@pytest.mark.parametrize("kind", ["majority", "trust_weighted", "pessimistic", "veto"])
def test_pipeline_binarizes_each_recommendation_once(monkeypatch, kind):
    # complexity gate by counted calls: at most n binarize calls, so none
    # per cluster member, under every strategy
    rng = random.Random(19)
    ids = [f"p{k:03d}" for k in range(200)]
    recs = {i: round(rng.random(), 3) for i in ids}
    attributes = {i: {"age": rng.randint(10, 60)} for i in ids}
    inputs = make_inputs(
        random_rows(rng, ids, density=0.5), recs, delta=0.3, kind="score", attributes=attributes
    )
    assert sum(len(c) for c in inputs.family.clusters.values()) > 20 * len(ids)
    rules = (VetoRule("age", "<", 18, vetoed_label=1),) if kind == "veto" else ()
    strategy = AggregationStrategy(kind, veto_rules=rules)
    expected = run_pipeline(inputs.pop, inputs.family, inputs.recs, strategy)

    calls = 0

    def counting(outcome):
        nonlocal calls
        calls += 1
        return binarize(outcome)

    monkeypatch.setattr(aggregation, "binarize", counting)
    assert run_pipeline(inputs.pop, inputs.family, inputs.recs, strategy) == expected
    assert calls <= len(ids)


class TestPessimistic:
    def test_conflict_resolves_to_bad_outcome(self):
        assert resolve_pessimistic([Outcome.label(0), Outcome.label(1)]) == Outcome.label(0)

    def test_no_conflict(self):
        assert resolve_pessimistic([Outcome.label(1), Outcome.label(1)]) == Outcome.label(1)

    def test_singleton(self):
        assert resolve_pessimistic([Outcome.label(0)]) == Outcome.label(0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            resolve_pessimistic([])

    def test_dominated_by_majority(self):
        rng = random.Random(23)
        for _ in range(200):
            labels = [rng.randint(0, 1) for _ in range(rng.randint(1, 7))]
            theta = rng.choice([0.25, 0.5, 0.75])
            outcomes = [Outcome.label(v) for v in labels]
            pessimistic = resolve_pessimistic(outcomes).value
            majority = 1.0 if sum(labels) / len(labels) > theta else 0.0
            assert pessimistic <= majority

    def test_pipeline_uses_min_at_both_stages(self):
        inputs = make_inputs(CROSSED_ROWS, CROSSED_RECS)
        set_recs, decisions = run_pipeline(
            inputs.pop, inputs.family, inputs.recs, AggregationStrategy("pessimistic")
        )
        # every cluster but v's contains at least one 0 recommendation
        assert {i: int(o.value) for i, o in set_recs.values.items()} == {
            "x": 0,
            "y": 0,
            "u": 0,
            "v": 1,
        }
        # v belongs to clusters of y (0), u (0) and v (1) -> 0
        assert all(o.value == 0.0 for o in decisions.values.values())


class TestVeto:
    def test_matching_rule_strips_positive_decision(self):
        rule = VetoRule("age", "<", 18, vetoed_label=1)
        got = apply_veto("kid", Outcome.label(1), [rule], {"kid": {"age": 16}})
        assert got == Outcome.label(0)

    def test_non_matching_rule_passes_through(self):
        rule = VetoRule("age", "<", 18, vetoed_label=1)
        got = apply_veto("adult", Outcome.label(1), [rule], {"adult": {"age": 30}})
        assert got == Outcome.label(1)

    def test_veto_is_idempotent_on_zero(self):
        rule = VetoRule("age", "<", 18, vetoed_label=1)
        got = apply_veto("kid", Outcome.label(0), [rule], {"kid": {"age": 16}})
        assert got == Outcome.label(0)

    def test_unknown_attribute_rejected_at_validation(self):
        inputs = make_inputs(
            {"a": {"a": 1.0}},
            {"a": 1},
            attributes={"a": {"age": 20}},
        )
        with pytest.raises(ConfigError):
            validate_veto_rules([VetoRule("income", "<", 100)], inputs.pop)

    def test_incomparable_operand_rejected_at_validation(self):
        inputs = make_inputs(
            {"a": {"a": 1.0}, "b": {"b": 1.0}},
            {"a": 1, "b": 1},
            attributes={"a": {"age": 16}, "b": {"age": "young"}},
        )
        with pytest.raises(ConfigError, match="cannot compare b's value 'young'"):
            validate_veto_rules([VetoRule("age", "<", 18)], inputs.pop)
        validate_veto_rules([VetoRule("age", "==", 18)], inputs.pop)

    def test_pipeline_applies_veto_to_final_decisions(self):
        inputs = make_inputs(
            {"a": {"a": 1.0}, "b": {"b": 1.0}},
            {"a": 1, "b": 1},
            attributes={"a": {"age": 16}, "b": {"age": 40}},
        )
        strategy = AggregationStrategy(
            "veto", theta=0.5, veto_rules=(VetoRule("age", "<", 18),)
        )
        _, decisions = run_pipeline(inputs.pop, inputs.family, inputs.recs, strategy)
        assert decisions["a"] == Outcome.label(0)
        assert decisions["b"] == Outcome.label(1)

    def test_rules_only_valid_on_veto_strategy(self):
        with pytest.raises(ConfigError):
            AggregationStrategy("majority", veto_rules=(VetoRule("age", "<", 18),))

    def test_bad_operator_rejected(self):
        with pytest.raises(ConfigError):
            VetoRule("age", "~", 18)


class TestStrategyValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            AggregationStrategy("median")

    def test_theta_range(self):
        with pytest.raises(ConfigError):
            AggregationStrategy(theta=1.0)


@st.composite
def tallies(draw):
    size = draw(st.integers(1, 8))
    positives = draw(st.integers(0, size))
    labels = [1] * positives + [0] * (size - positives)
    lo = draw(st.sampled_from([0.0, 0.2, 0.4, 0.5, 0.6, 0.8]))
    hi = draw(st.sampled_from([0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 0.99]))
    if hi < lo:
        lo, hi = hi, lo
    return labels, lo, hi


@given(tallies())
def test_theta_antitonicity(case):
    labels, lo, hi = case
    ids = [f"p{k}" for k in range(len(labels))]
    recs = _recs(dict(zip(ids, labels)))
    cluster = _cluster(ids[0], ids)
    assert (
        aggregate_set_recommendation(cluster, recs, hi).value
        <= aggregate_set_recommendation(cluster, recs, lo).value
    )


def test_tally_equal_to_theta_yields_zero():
    rng = random.Random(31)
    for _ in range(200):
        size = rng.randint(1, 8)
        positives = rng.randint(0, size)
        theta = positives / size
        if theta >= 1.0:
            continue
        ids = [f"p{k}" for k in range(size)]
        labels = [1] * positives + [0] * (size - positives)
        recs = _recs(dict(zip(ids, labels)))
        got = aggregate_set_recommendation(_cluster(ids[0], ids), recs, theta)
        assert got == Outcome.label(0)


def test_pipeline_matches_naive_rederivation():
    # exhaustive double-loop re-derivation, independent of the pipeline code
    rng = random.Random(41)
    for _ in range(60):
        inputs = random_instance(rng)
        set_recs, decisions = run_pipeline(
            inputs.pop,
            inputs.family,
            inputs.recs,
            AggregationStrategy(theta=inputs.params.theta),
        )
        ids = list(inputs.pop.individuals)
        theta = inputs.params.theta
        expected_set = {}
        for owner in ids:
            members = [z for z in ids if inputs.table.similarity(owner, z) >= inputs.params.delta]
            tally = sum(inputs.recs[m].value for m in members) / len(members)
            expected_set[owner] = 1 if tally > theta else 0
        for owner in ids:
            assert int(set_recs[owner].value) == expected_set[owner]
        for i in ids:
            owners = [
                o
                for o in ids
                if inputs.table.similarity(o, i) >= inputs.params.delta or o == i
            ]
            tally = sum(expected_set[o] for o in owners) / len(owners)
            assert int(decisions[i].value) == (1 if tally > theta else 0)
