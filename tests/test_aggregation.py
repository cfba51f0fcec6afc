import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from subjfair import (
    MAJORITY,
    PESSIMISTIC,
    TRUST_WEIGHTED,
    VETO,
    AggregationStrategy,
    InputError,
    VetoRule,
    binarize,
    cluster_tally,
    run_pipeline,
)
from subjfair import aggregation
from subjfair.aggregation import STRATEGY_KINDS, veto_flags
from subjfair.harness.oracle import brute_force_oracle

from helpers import (
    as_run,
    by_id,
    cluster_label,
    make_inputs,
    pipeline_by_cluster,
    random_instance,
    random_rows,
)


CROSSED_ROWS = {
    "x": {"x": 1.0, "y": 0.8, "u": 0.1, "v": 0.1},
    "y": {"x": 0.1, "y": 1.0, "u": 0.8, "v": 0.8},
    "u": {"x": 0.8, "y": 0.1, "u": 1.0, "v": 0.8},
    "v": {"x": 0.1, "y": 0.8, "u": 0.1, "v": 1.0},
}
CROSSED_RECS = {"x": 0, "y": 1, "u": 0, "v": 1}


class TestStageOne:
    def test_two_to_one_majority(self):
        assert cluster_label([1, 0, 1]) == 1

    def test_exact_tie_resolves_to_zero(self):
        assert cluster_label([0, 1]) == 0

    def test_unanimous_cluster(self):
        for theta in (0.0, 0.5, 0.9):
            assert cluster_label([1, 1, 1], theta) == 1

    def test_scores_binarized_before_tally(self):
        # binarized to {1, 0}: tally 0.5, strict
        assert cluster_label([0.7, 0.3], kind="score") == 0
        assert cluster_label([0.7, 0.6, 0.2], kind="score") == 1

    def test_score_exactly_half_binarizes_to_zero(self):
        assert binarize(0.5) == 0
        assert binarize(0.51) == 1
        assert binarize(1) == 1 and binarize(0) == 0
        assert cluster_label([0.5], kind="score") == 0
        assert cluster_label([0.51], kind="score") == 1


class TestStageTwo:
    # Stage 1 labels the crossed clusters x=0, y=1, u=0, v=1.

    def test_majority_across_clusters(self):
        inputs = make_inputs(CROSSED_ROWS, CROSSED_RECS)
        _, decisions = run_pipeline(inputs.pop, inputs.family, inputs.tally)
        decisions = by_id(inputs.pop.individuals, decisions)
        # y sits in the clusters of x (0), y (1) and v (1)
        assert inputs.family.owners[1] == [3, 0, 1]  # v, x, y in id order
        assert decisions["y"] == 1

    def test_tie_across_clusters_resolves_to_zero(self):
        inputs = make_inputs(CROSSED_ROWS, CROSSED_RECS)
        _, decisions = run_pipeline(inputs.pop, inputs.family, inputs.tally)
        decisions = by_id(inputs.pop.individuals, decisions)
        # u sits in the clusters of y (1) and u (0)
        assert inputs.family.owners[2] == [2, 1]  # u, y in id order
        assert decisions["u"] == 0

    def test_single_cluster_membership_inherits_label(self):
        inputs = make_inputs({"a": {"a": 1.0}, "b": {"b": 1.0}}, {"a": 1, "b": 0})
        _, decisions = run_pipeline(inputs.pop, inputs.family, inputs.tally)
        assert by_id(inputs.pop.individuals, decisions) == {"a": 1, "b": 0}


class TestPipeline:
    def test_crossed_clusters_stage_one(self):
        inputs = make_inputs(CROSSED_ROWS, CROSSED_RECS)
        set_labels, _ = run_pipeline(inputs.pop, inputs.family, inputs.tally)
        assert by_id(inputs.pop.individuals, set_labels) == {
            "x": 0,
            "y": 1,
            "u": 0,
            "v": 1,
        }

    def test_crossed_clusters_stage_two(self):
        inputs = make_inputs(CROSSED_ROWS, CROSSED_RECS)
        _, decisions = run_pipeline(inputs.pop, inputs.family, inputs.tally)
        assert by_id(inputs.pop.individuals, decisions) == {
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
        set_labels, decisions = run_pipeline(inputs.pop, inputs.family, inputs.tally)
        assert set_labels == decisions == [1] * len(ids)

    def test_decisions_are_total(self):
        rng = random.Random(5)
        for _ in range(20):
            inputs = random_instance(rng)
            _, decisions = run_pipeline(inputs.pop, inputs.family, inputs.tally)
            assert len(decisions) == len(inputs.pop)


def _trusted(inputs):
    """Who carries trust weight 1, by its definition: a person whose
    binarized recommendation matches their own cluster's plain majority."""
    plain, _ = run_pipeline(inputs.pop, inputs.family, inputs.tally)
    ids = inputs.pop.individuals
    return {x for x, own in zip(ids, plain) if binarize(inputs.recs.values[x]) == own}


def _matches_oracle(inputs):
    """Whether the trust-weighted cluster labels equal the oracle's."""
    weighted, _ = run_pipeline(
        inputs.pop, inputs.family, inputs.tally, AggregationStrategy("trust_weighted")
    )
    doc = brute_force_oracle(as_run(inputs, "trust_weighted"), bound=len(inputs.pop))
    return by_id(inputs.pop.individuals, weighted) == doc["set_rec"]


class TestTrustWeighting:
    def test_agreement_gives_full_weight(self):
        inputs = make_inputs({"a": {"a": 1.0, "b": 0.8}, "b": {"b": 1.0}}, {"a": 0, "b": 0})
        assert _trusted(inputs) == {"a", "b"}
        assert _matches_oracle(inputs)

    def test_crossed_clusters_aligned_member(self):
        # y recommends 1 and y's own cluster aggregates to 1
        inputs = make_inputs(CROSSED_ROWS, CROSSED_RECS)
        assert "y" in _trusted(inputs)
        assert _matches_oracle(inputs)

    def test_disagreement_gives_zero_weight(self):
        inputs = make_inputs({"a": {"a": 1.0, "b": 0.8}, "b": {"b": 1.0}}, {"a": 1, "b": 0})
        # a's cluster {a, b} tallies 0.5 -> label 0, against a's own 1
        assert _trusted(inputs) == {"b"}
        assert _matches_oracle(inputs)

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
        plain, _ = run_pipeline(inputs.pop, inputs.family, inputs.tally)
        weighted, _ = run_pipeline(
            inputs.pop, inputs.family, inputs.tally, AggregationStrategy("trust_weighted")
        )
        o = inputs.pop.positions["o"]
        assert (plain[o], weighted[o]) == (1, 0)

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
        assert {"a", "b"}.isdisjoint(_trusted(inputs))
        plain, _ = run_pipeline(inputs.pop, inputs.family, inputs.tally)
        weighted, _ = run_pipeline(
            inputs.pop, inputs.family, inputs.tally, AggregationStrategy("trust_weighted")
        )
        a = inputs.pop.positions["a"]
        assert weighted[a] == plain[a]
        assert _matches_oracle(inputs)

    def test_pipeline_matches_per_member_trust_weights(self):
        # the pipeline reads one weight per person; the oracle recomputes
        # each member's weight from their own cluster, for every cluster
        rng = random.Random(11)
        for _ in range(6):
            inputs = random_instance(rng, max_n=60, delta=rng.choice([0.3, 0.5, 0.8]))
            strategy = AggregationStrategy("trust_weighted", inputs.params.theta)
            labels, _ = run_pipeline(inputs.pop, inputs.family, inputs.tally, strategy)
            doc = brute_force_oracle(as_run(inputs, "trust_weighted"), bound=len(inputs.pop))
            assert by_id(inputs.pop.individuals, labels) == doc["set_rec"]

    def test_pipeline_aggregates_each_cluster_once(self, monkeypatch):
        # complexity gate by counted calls: at most three whole-column
        # majority tallies per pipeline (stage 1, the weighted recount,
        # stage 2), each over at most n items, not one per cluster or
        # (cluster, member) pair
        rng = random.Random(3)
        ids = [f"p{k:03d}" for k in range(100)]
        recs = {i: rng.randint(0, 1) for i in ids}
        inputs = make_inputs(random_rows(rng, ids, density=0.5), recs, delta=0.3)
        sum_c = sum(map(len, inputs.family.members))
        assert sum_c > 4 * len(ids)

        sizes = []
        tally = aggregation.majority_labels

        def counting(positive, size, theta):
            positive, size = list(positive), list(size)
            sizes.append(len(positive))
            return tally(positive, size, theta)

        monkeypatch.setattr(aggregation, "majority_labels", counting)
        strategy = AggregationStrategy("trust_weighted")
        run_pipeline(inputs.pop, inputs.family, inputs.tally, strategy)
        assert 0 < len(sizes) <= 3
        assert max(sizes) <= len(ids)


@pytest.mark.parametrize("kind", ["majority", "trust_weighted", "pessimistic", "veto"])
def test_pipeline_binarizes_each_recommendation_once(monkeypatch, kind):
    # complexity gate by counted calls: the tally and both stages make at
    # most n binarize calls, so none per cluster member, under every strategy
    rng = random.Random(19)
    ids = [f"p{k:03d}" for k in range(200)]
    recs = {i: round(rng.random(), 3) for i in ids}
    attributes = {i: {"age": rng.randint(10, 60)} for i in ids}
    inputs = make_inputs(
        random_rows(rng, ids, density=0.5), recs, delta=0.3, kind="score", attributes=attributes
    )
    assert sum(map(len, inputs.family.members)) > 20 * len(ids)
    rules = (VetoRule("age", "<", 18, vetoed_label=1),) if kind == "veto" else ()
    strategy = AggregationStrategy(kind, veto_rules=rules)
    expected = run_pipeline(inputs.pop, inputs.family, inputs.tally, strategy)

    calls = 0

    def counting(value):
        nonlocal calls
        calls += 1
        return binarize(value)

    monkeypatch.setattr(aggregation, "binarize", counting)
    tally = cluster_tally(inputs.pop, inputs.family, inputs.recs)
    assert run_pipeline(inputs.pop, inputs.family, tally, strategy) == expected
    assert calls <= len(ids)


class TestPessimistic:
    def test_conflict_resolves_to_bad_outcome(self):
        assert cluster_label([0, 1], strategy="pessimistic") == 0
        assert cluster_label([1, 0], strategy="pessimistic") == 0

    def test_no_conflict(self):
        assert cluster_label([1, 1], strategy="pessimistic") == 1

    def test_singleton(self):
        assert cluster_label([0], strategy="pessimistic") == 0
        assert cluster_label([1], strategy="pessimistic") == 1

    def test_dominated_by_majority(self):
        rng = random.Random(23)
        for _ in range(200):
            labels = [rng.randint(0, 1) for _ in range(rng.randint(1, 7))]
            theta = rng.choice([0.25, 0.5, 0.75])
            pessimistic = cluster_label(labels, theta, strategy="pessimistic")
            majority = 1 if sum(labels) / len(labels) > theta else 0
            assert cluster_label(labels, theta) == majority
            assert pessimistic <= majority

    def test_pipeline_uses_min_at_both_stages(self):
        inputs = make_inputs(CROSSED_ROWS, CROSSED_RECS)
        set_labels, decisions = run_pipeline(
            inputs.pop, inputs.family, inputs.tally, AggregationStrategy("pessimistic")
        )
        # every cluster but v's contains at least one 0 recommendation
        assert by_id(inputs.pop.individuals, set_labels) == {
            "x": 0,
            "y": 0,
            "u": 0,
            "v": 1,
        }
        # v belongs to clusters of y (0), u (0) and v (1) -> 0
        assert decisions == [0, 0, 0, 0]


def _vetoed_decision(person, rec, age, rule):
    """The final decision of a lone ``person`` of the given age who is
    recommended ``rec``, under the veto strategy with one rule."""
    inputs = make_inputs({person: {person: 1.0}}, {person: rec}, attributes={person: {"age": age}})
    strategy = AggregationStrategy("veto", veto_rules=(rule,))
    _, decisions = run_pipeline(inputs.pop, inputs.family, inputs.tally, strategy)
    return decisions[0]


class TestVeto:
    def test_matching_rule_strips_positive_decision(self):
        rule = VetoRule("age", "<", 18, vetoed_label=1)
        assert _vetoed_decision("kid", 1, 16, rule) == 0

    def test_non_matching_rule_passes_through(self):
        rule = VetoRule("age", "<", 18, vetoed_label=1)
        assert _vetoed_decision("adult", 1, 30, rule) == 1

    def test_veto_is_idempotent_on_zero(self):
        for vetoed_label in (0, 1):
            rule = VetoRule("age", "<", 18, vetoed_label=vetoed_label)
            assert _vetoed_decision("kid", 0, 16, rule) == 0

    def test_unknown_attribute_rejected_at_validation(self):
        inputs = make_inputs(
            {"a": {"a": 1.0}},
            {"a": 1},
            attributes={"a": {"age": 20}},
        )
        with pytest.raises(InputError, match="unknown attribute 'income'") as err:
            veto_flags([VetoRule("income", "<", 100)], inputs.pop)
        assert err.value.path == ("veto_rules",)

    def test_incomparable_operand_rejected_at_validation(self):
        inputs = make_inputs(
            {"a": {"a": 1.0}, "b": {"b": 1.0}},
            {"a": 1, "b": 1},
            attributes={"a": {"age": 16}, "b": {"age": "young"}},
        )
        with pytest.raises(InputError, match="cannot compare b's value 'young'") as err:
            veto_flags([VetoRule("age", "<", 18)], inputs.pop)
        assert err.value.path == ("veto_rules",)
        veto_flags([VetoRule("age", "==", 18)], inputs.pop)

    def test_pipeline_applies_veto_to_final_decisions(self):
        inputs = make_inputs(
            {"a": {"a": 1.0}, "b": {"b": 1.0}},
            {"a": 1, "b": 1},
            attributes={"a": {"age": 16}, "b": {"age": 40}},
        )
        strategy = AggregationStrategy(
            "veto", theta=0.5, veto_rules=(VetoRule("age", "<", 18),)
        )
        _, decisions = run_pipeline(inputs.pop, inputs.family, inputs.tally, strategy)
        assert by_id(inputs.pop.individuals, decisions) == {"a": 0, "b": 1}

    def test_rules_only_valid_on_veto_strategy(self):
        with pytest.raises(InputError, match="only valid with the veto strategy") as err:
            AggregationStrategy("majority", veto_rules=(VetoRule("age", "<", 18),))
        assert err.value.path == ("veto_rules",)

    def test_flags_mark_whom_a_rule_vetoing_1_matches(self):
        # c is left out by the attributes, and a rule vetoing 0 flags no one
        inputs = make_inputs(
            {"a": {"a": 1.0}, "b": {"b": 1.0}, "c": {"c": 1.0}},
            {"a": 1, "b": 1, "c": 1},
            attributes={"a": {"age": 16}, "b": {"age": 40}},
        )
        rules = [VetoRule("age", ">", 30, vetoed_label=0), VetoRule("age", "<", 18)]
        assert by_id(inputs.pop.individuals, veto_flags(rules, inputs.pop)) == {
            "a": 1,
            "b": 0,
            "c": 0,
        }

    def test_bad_operator_rejected(self):
        with pytest.raises(InputError, match="unknown veto operator '~'") as err:
            VetoRule("age", "~", 18)
        assert err.value.path == ("op",)


class TestStrategyValidation:
    def test_unknown_kind(self):
        with pytest.raises(InputError, match="unknown strategy kind 'median'") as err:
            AggregationStrategy("median")
        assert err.value.path == ("kind",)

    def test_theta_range(self):
        with pytest.raises(InputError, match=r"theta must be in \[0, 1\), got 1.0") as err:
            AggregationStrategy(theta=1.0)
        assert err.value.path == ("theta",)


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
    assert cluster_label(labels, hi) <= cluster_label(labels, lo)


def test_tally_equal_to_theta_yields_zero():
    rng = random.Random(31)
    for _ in range(200):
        size = rng.randint(1, 8)
        positives = rng.randint(0, size)
        theta = positives / size
        if theta >= 1.0:
            continue
        labels = [1] * positives + [0] * (size - positives)
        assert cluster_label(labels, theta) == 0


def test_pipeline_matches_naive_rederivation():
    # exhaustive double-loop re-derivation, independent of the pipeline code
    rng = random.Random(41)
    for _ in range(60):
        inputs = random_instance(rng)
        set_labels, decisions = run_pipeline(
            inputs.pop,
            inputs.family,
            inputs.tally,
            AggregationStrategy(theta=inputs.params.theta),
        )
        ids = list(inputs.pop.individuals)
        theta = inputs.params.theta
        expected_set = {}
        for owner in ids:
            members = [z for z in ids if inputs.table.similarity(owner, z) >= inputs.params.delta]
            tally = sum(inputs.recs.values[m] for m in members) / len(members)
            expected_set[owner] = 1 if tally > theta else 0
        assert set_labels == [expected_set[owner] for owner in ids]
        for i, decision in zip(ids, decisions):
            owners = [
                o
                for o in ids
                if inputs.table.similarity(o, i) >= inputs.params.delta or o == i
            ]
            tally = sum(expected_set[o] for o in owners) / len(owners)
            assert decision == (1 if tally > theta else 0)


MINOR_VETO = VetoRule("age", "<", 18, vetoed_label=1)


def _owner_labels(rows, recs, strategies, delta, attributes=None):
    """The cluster labels, by position, under each of ``strategies``."""
    inputs = make_inputs(rows, recs, delta=delta, attributes=attributes)
    return [run_pipeline(inputs.pop, inputs.family, inputs.tally, s)[0] for s in strategies]


def test_no_row_of_x_moves_another_owners_label_but_under_trust_weighting():
    # brute force at n <= 6: for each person x, every binary row x could
    # state. An owner's cluster label reads only that owner's members and
    # their recommendations, and x's row names only x's own members, so
    # under majority, pessimistic and veto no other owner's label moves.
    rng = random.Random(1709)
    for _ in range(60):
        n = rng.randint(2, 6)
        ids = [f"p{k}" for k in range(n)]
        rows = random_rows(rng, ids, density=rng.choice([0.2, 0.5, 0.8]))
        recs = {i: rng.randint(0, 1) for i in ids}
        attributes = {i: {"age": rng.randint(10, 30)} for i in ids}
        delta = rng.choice([0.3, 0.5, 0.8, 1.0])
        theta = rng.choice([0.25, 0.5, 0.75])
        strategies = [
            AggregationStrategy(MAJORITY, theta),
            AggregationStrategy(PESSIMISTIC, theta),
            AggregationStrategy(VETO, theta, (MINOR_VETO,)),
        ]
        truthful = _owner_labels(rows, recs, strategies, delta, attributes)
        for k, x in enumerate(ids):
            others = [y for y in ids if y != x]
            for bits in itertools.product((0.0, 1.0), repeat=len(others)):
                stated = {**rows, x: {x: 1.0, **dict(zip(others, bits))}}
                labels = _owner_labels(stated, recs, strategies, delta, attributes)
                for before, after in zip(truthful, labels):
                    assert before[:k] + before[k + 1 :] == after[:k] + after[k + 1 :]


def test_under_trust_weighting_a_row_moves_another_owners_label():
    # x's row decides the plain label of x's own cluster, and so x's trust
    # weight, which counts in the trusted tally of every cluster that holds
    # x. Truthfully x's cluster is {x}, plainly 0 like x's own label, so x's
    # negative vote has weight and ties y's cluster {x, y, z} (z, whose
    # cluster {x, z} ties to 0, has none). Stating {x, y, z} makes x's
    # cluster plainly 1: x loses the weight, y's cluster turns 1, and x,
    # y and z are all granted.
    rows = {
        "x": {"x": 1.0, "z": 0.25},
        "y": {"y": 1.0, "x": 0.5, "z": 0.75},
        "z": {"z": 1.0, "x": 0.75},
    }
    recs = {"x": 0, "y": 1, "z": 1}
    stated = {**rows, "x": {"x": 1.0, "y": 1.0, "z": 1.0}}
    trusted = AggregationStrategy(TRUST_WEIGHTED)
    for table, labels, decisions in ((rows, [0, 0, 0], [0, 0, 0]), (stated, [1, 1, 0], [1, 1, 1])):
        inputs = make_inputs(table, recs)
        assert run_pipeline(inputs.pop, inputs.family, inputs.tally, trusted) == (
            labels,
            decisions,
        )
    # under majority, y's cluster is 1 whatever x states
    for table in (rows, stated):
        assert _owner_labels(table, recs, [AggregationStrategy()], 0.5)[0][1] == 1


def _count_by_position(flags, lists):
    # position by position: how many flagged j have k in lists[j]
    n = len(lists)
    return [sum(flags[j] for j in range(n) if k in lists[j]) for k in range(n)]


class TestColumnKernels:
    """The whole-column kernels of ``run_pipeline`` against the per-cluster
    reference ``pipeline_by_cluster``."""

    @staticmethod
    def _check(inputs, strategy, reached):
        expected = pipeline_by_cluster(inputs.pop, inputs.family, inputs.recs, strategy, reached)
        assert run_pipeline(inputs.pop, inputs.family, inputs.tally, strategy) == expected

    def test_random_families_match_the_per_cluster_pipeline(self):
        rng = random.Random(53)
        reached = Counter()
        kinds = Counter()
        for trial in range(40):
            # small families reach a trust-weighted cluster of no weight
            n = rng.randint(1, 200) if trial % 4 == 0 else rng.randint(2, 12)
            ids = [f"p{k:03d}" for k in range(n)]
            kind = ("binary", "score")[trial % 2]
            if kind == "binary":
                recs = {i: rng.randint(0, 1) for i in ids}
            else:
                recs = {i: round(rng.random(), 3) for i in ids}
            attributes = {i: {"age": rng.randint(10, 60)} for i in ids}
            inputs = make_inputs(
                random_rows(rng, ids, density=rng.choice([0.0, 0.05, 0.3, 0.8])),
                recs,
                delta=rng.choice([0.0, 0.3, 0.5, 0.8, 1.0]),
                kind=kind,
                attributes=attributes,
            )
            for theta in (0.0, 0.25, 1 / 3, 0.5, rng.choice([0.4, 0.6, 0.75])):
                for strategy_kind in STRATEGY_KINDS:
                    rules = (MINOR_VETO,) if strategy_kind == VETO else ()
                    strategy = AggregationStrategy(strategy_kind, theta, rules)
                    self._check(inputs, strategy, reached)
                    kinds[strategy_kind, kind] += 1
        assert len(kinds) == 2 * len(STRATEGY_KINDS)
        assert reached["tie"] and reached["singleton"] and reached["zero_weight"]

    def test_flagged_counts_match_a_per_position_count(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(1, 60)
            lists = [sorted(rng.sample(range(n), rng.randint(0, n))) for _ in range(n)]
            for flags in ([0] * n, [1] * n, [rng.randint(0, 1) for _ in range(n)]):
                assert aggregation.flagged_counts(flags, lists) == _count_by_position(flags, lists)

    def test_flagged_counts_never_read_an_unflagged_list(self):
        # work gate: the count costs O(n + sum of the flagged lists), so
        # the list of an unflagged position is never iterated
        class Unread:
            def __iter__(self):
                raise AssertionError("the list of an unflagged position was read")

        rng = random.Random(31)
        ids = [f"p{k:03d}" for k in range(100)]
        recs = {i: rng.randint(0, 1) for i in ids}
        family = make_inputs(random_rows(rng, ids, density=0.5), recs, delta=0.3).family
        for lists in (family.members, family.owners):
            assert sum(map(len, lists)) > 4 * len(ids)
            flags = [rng.randint(0, 1) for _ in ids]
            assert 0 < sum(flags) < len(ids)
            guarded = [c if flag else Unread() for c, flag in zip(lists, flags)]
            expected = _count_by_position(flags, lists)
            assert aggregation.flagged_counts(flags, guarded) == expected

    @pytest.mark.parametrize(
        "positives, size, theta",
        # 29 / 50 is the float 0.58, yet 29 > 0.58 * 50: a tally rewritten
        # as a product would label this tie 1
        [(2, 4, 0.5), (1, 4, 0.25), (1, 3, 1 / 3), (0, 1, 0.0), (29, 50, 0.58)],
    )
    @pytest.mark.parametrize("strategy_kind", ["majority", "trust_weighted"])
    def test_tie_at_theta_resolves_to_zero(self, positives, size, theta, strategy_kind):
        # p0's cluster holds everyone; everyone else's holds only themself
        ids = [f"p{k:02d}" for k in range(size)]
        rows = {i: {i: 1.0} for i in ids}
        rows[ids[0]] = dict.fromkeys(ids, 1.0)
        recs = dict(zip(ids, [1] * positives + [0] * (size - positives)))
        inputs = make_inputs(rows, recs, theta=theta)
        reached = Counter()
        strategy = AggregationStrategy(strategy_kind, theta)
        self._check(inputs, strategy, reached)
        assert reached["tie"]
        assert run_pipeline(inputs.pop, inputs.family, inputs.tally, strategy)[0][0] == 0

    def test_cluster_with_no_weight_keeps_its_plain_label(self):
        # x's cluster {x, y} is labelled 0 (1/2 is not above 0.5), so x's
        # label 1 has weight 0; y's own cluster {y, a, b} is labelled 1, so
        # y's label 0 has weight 0 too: x's cluster has a weight total of 0
        rows = {
            "x": {"x": 1.0, "y": 1.0},
            "y": {"y": 1.0, "a": 1.0, "b": 1.0},
            "a": {"a": 1.0},
            "b": {"b": 1.0},
        }
        inputs = make_inputs(rows, {"x": 1, "y": 0, "a": 1, "b": 1})
        reached = Counter()
        self._check(inputs, AggregationStrategy("trust_weighted"), reached)
        assert reached["zero_weight"] == 1
        plain, _ = run_pipeline(inputs.pop, inputs.family, inputs.tally)
        weighted, _ = run_pipeline(
            inputs.pop, inputs.family, inputs.tally, AggregationStrategy("trust_weighted")
        )
        x = inputs.pop.positions["x"]
        assert weighted[x] == plain[x] == 0
