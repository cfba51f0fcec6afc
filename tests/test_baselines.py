import itertools
import random

import pytest

from subjfair import (
    DecisionVector,
    InputError,
    ObjectiveDistanceTable,
    Outcome,
    Population,
    dwork_if_check,
    statistical_parity_gap,
    subjective_if_check,
)


class TestObjectiveCheck:
    def test_gap_at_distance_is_no_violation(self):
        scores = {"x": 0.85, "y": 0.90}
        distances = ObjectiveDistanceTable({("x", "y"): 0.05})
        assert dwork_if_check(scores, distances) == []

    def test_identical_scores_never_violate(self):
        scores = {"x": 0.4, "y": 0.4}
        distances = ObjectiveDistanceTable({("x", "y"): 0.0})
        assert dwork_if_check(scores, distances) == []

    def test_large_gap_violates(self):
        # |0.2 - 0.9| = 0.7 > 0.1
        scores = {"x": 0.2, "y": 0.9}
        distances = ObjectiveDistanceTable({("x", "y"): 0.1})
        violations = dwork_if_check(scores, distances)
        assert len(violations) == 1
        assert violations[0].pair == ("x", "y")
        assert violations[0].score_gap == pytest.approx(0.7)

    def test_symmetric_in_pair_order(self):
        scores = {"x": 0.2, "y": 0.9}
        distances = ObjectiveDistanceTable({("y", "x"): 0.1})
        one = dwork_if_check(scores, distances, pairs=[("x", "y")])
        two = dwork_if_check(scores, distances, pairs=[("y", "x")])
        assert one == two

    def test_missing_score_rejected(self):
        distances = ObjectiveDistanceTable({("x", "y"): 0.1})
        with pytest.raises(InputError):
            dwork_if_check({"x": 0.2}, distances, pairs=[("x", "y")])

    def test_missing_distance_rejected(self):
        with pytest.raises(InputError):
            dwork_if_check({"x": 0.2, "y": 0.4}, ObjectiveDistanceTable({}))


class TestSubjectiveCheck:
    def test_one_party_perceives_unfairness(self):
        # objectively acceptable gap, but x's own perceived distance is
        # tighter, so x alone sees a violation
        scores = {"x": 0.85, "y": 0.90}
        distances = ObjectiveDistanceTable(
            {("x", "y"): 0.05}, {("x", "x", "y"): 0.04}
        )
        violations = subjective_if_check(scores, distances)
        assert [v.observer for v in violations] == ["x"]
        assert violations[0].perceived_distance == 0.04

    def test_no_overrides_reduces_to_objective_check(self):
        rng = random.Random(71)
        for _ in range(50):
            n = rng.randint(2, 8)
            ids = [f"p{k}" for k in range(n)]
            scores = {i: round(rng.random(), 3) for i in ids}
            distances = ObjectiveDistanceTable(
                {
                    (a, b): round(rng.random(), 3)
                    for a, b in itertools.combinations(ids, 2)
                }
            )
            objective = {v.pair for v in dwork_if_check(scores, distances)}
            subjective = subjective_if_check(scores, distances)
            # each violating pair appears once per party, and only those
            assert {v.pair for v in subjective} == objective
            for pair in objective:
                observers = {v.observer for v in subjective if v.pair == pair}
                assert observers == set(pair)

    def test_looser_override_shrinks_violations(self):
        rng = random.Random(73)
        for _ in range(50):
            n = rng.randint(2, 6)
            ids = [f"p{k}" for k in range(n)]
            scores = {i: round(rng.random(), 3) for i in ids}
            base = {
                (a, b): round(rng.random(), 3)
                for a, b in itertools.combinations(ids, 2)
            }
            observer = ids[0]
            pair = next(iter(base))
            looser = {
                (observer,) + pair: base[pair] + rng.random()
            }
            without = subjective_if_check(scores, ObjectiveDistanceTable(base))
            with_override = subjective_if_check(
                scores, ObjectiveDistanceTable(base, looser)
            )
            mine = lambda vs: {(v.observer, v.pair) for v in vs}
            assert mine(with_override) <= mine(without)

    def test_negative_distance_rejected(self):
        # NaN too: no score gap compares above it, so it would hide a pair
        for d in (-0.1, float("nan")):
            with pytest.raises(InputError):
                ObjectiveDistanceTable({("x", "y"): d})
            with pytest.raises(InputError):
                ObjectiveDistanceTable({("x", "y"): 0.1}, {("x", "x", "y"): d})


def _decisions(values):
    return DecisionVector("t", {i: Outcome.label(v) for i, v in values.items()})


def _population(groups):
    individuals = tuple(groups)
    return Population(individuals, {i: {"group": g} for i, g in groups.items()})


class TestStatisticalParity:
    def test_equal_rates_have_zero_gap(self):
        pop = _population({"a": "A", "b": "A", "c": "B", "d": "B"})
        decisions = _decisions({"a": 1, "b": 0, "c": 1, "d": 0})
        report = statistical_parity_gap(decisions, pop, "group")
        assert report.rates == {"A": 0.5, "B": 0.5}
        assert report.gap == 0.0

    def test_extreme_groups_have_gap_one(self):
        pop = _population({"a": "A", "b": "A", "c": "B", "d": "B"})
        decisions = _decisions({"a": 1, "b": 1, "c": 0, "d": 0})
        assert statistical_parity_gap(decisions, pop, "group").gap == 1.0

    def test_hand_counted_rates(self):
        # A: {1, 0, 1} -> 2/3, B: {1, 0} -> 1/2, gap 1/6
        pop = _population({"a": "A", "b": "A", "c": "A", "d": "B", "e": "B"})
        decisions = _decisions({"a": 1, "b": 0, "c": 1, "d": 1, "e": 0})
        report = statistical_parity_gap(decisions, pop, "group")
        assert report.rates["A"] == pytest.approx(2 / 3)
        assert report.rates["B"] == pytest.approx(1 / 2)
        assert report.gap == pytest.approx(1 / 6)

    def test_invariant_under_group_relabeling(self):
        decisions = _decisions({"a": 1, "b": 0, "c": 1, "d": 1, "e": 0})
        one = statistical_parity_gap(
            decisions, _population({"a": "A", "b": "A", "c": "A", "d": "B", "e": "B"}), "group"
        )
        two = statistical_parity_gap(
            decisions, _population({"a": "Z", "b": "Z", "c": "Z", "d": "Q", "e": "Q"}), "group"
        )
        assert one.gap == two.gap
        assert sorted(one.rates.values()) == sorted(two.rates.values())

    def test_gap_bounded(self):
        rng = random.Random(79)
        for _ in range(50):
            n = rng.randint(1, 10)
            groups = {f"p{k}": rng.choice("ABC") for k in range(n)}
            decisions = _decisions({i: rng.randint(0, 1) for i in groups})
            report = statistical_parity_gap(decisions, _population(groups), "group")
            assert 0.0 <= report.gap <= 1.0

    def test_single_group_has_zero_gap(self):
        pop = _population({"a": "A", "b": "A"})
        decisions = _decisions({"a": 1, "b": 0})
        assert statistical_parity_gap(decisions, pop, "group").gap == 0.0

    def test_missing_attribute_rejected(self):
        pop = Population(("a", "b"))
        decisions = _decisions({"a": 1, "b": 0})
        with pytest.raises(InputError):
            statistical_parity_gap(decisions, pop, "group")


class TestDistanceTable:
    def test_lookup_is_symmetric(self):
        table = ObjectiveDistanceTable({("y", "x"): 0.3})
        assert table.distance("x", "y") == 0.3
        assert table.distance("y", "x") == 0.3

    def test_override_falls_back_to_objective(self):
        table = ObjectiveDistanceTable({("x", "y"): 0.3}, {("x", "x", "y"): 0.1})
        assert table.perceived_distance("x", "x", "y") == 0.1
        assert table.perceived_distance("y", "x", "y") == 0.3
