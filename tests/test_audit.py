import itertools
import random

import pytest

from subjfair import (
    FAIR,
    UNFAIR,
    ISF_SATISFIED,
    RELAXED_ONLY,
    NEITHER,
    NO_CONFLICT,
    JUSTIFIABLE_BY_GROUP,
    SYSTEM_SUSPECT,
    DecisionVector,
    Outcome,
    RecommendationVector,
    SetRecommendationVector,
    audit_population,
    classify_conflict,
    classify_scenario,
    isf,
    relaxed_isf,
    run_pipeline,
    satisfaction_ratio,
    sf_process,
    treatment_similarity,
)

from helpers import make_inputs, random_instance


CROSSED_ROWS = {
    "x": {"x": 1.0, "y": 0.8, "u": 0.1, "v": 0.1},
    "y": {"x": 0.1, "y": 1.0, "u": 0.8, "v": 0.8},
    "u": {"x": 0.8, "y": 0.1, "u": 1.0, "v": 0.8},
    "v": {"x": 0.1, "y": 0.8, "u": 0.1, "v": 1.0},
}
CROSSED_RECS = {"x": 0, "y": 1, "u": 0, "v": 1}


def crossed():
    return make_inputs(CROSSED_ROWS, CROSSED_RECS)


class TestIsf:
    def test_uniform_cluster_is_fair(self):
        inputs = make_inputs(
            {"a": {"a": 1.0, "b": 0.9}, "b": {"b": 1.0}}, {"a": 1, "b": 1}
        )
        assert isf("a", inputs.family, inputs.recs, 0.0) == FAIR

    def test_dissenting_member_makes_unfair(self):
        inputs = crossed()
        # y sits in x's cluster with the opposite recommendation
        assert isf("x", inputs.family, inputs.recs, 0.0) == UNFAIR

    def test_perception_is_one_sided(self):
        # alice groups herself with bob; bob does not reciprocate. Bob is
        # granted, alice denied: unfair for alice, fair for bob.
        inputs = make_inputs(
            {"alice": {"alice": 1.0, "bob": 0.9}, "bob": {"bob": 1.0, "alice": 0.2}},
            {"alice": 0, "bob": 1},
        )
        assert isf("alice", inputs.family, inputs.recs, 0.0) == UNFAIR
        assert isf("bob", inputs.family, inputs.recs, 0.0) == FAIR

    def test_score_outcomes_compare_raw(self):
        inputs = make_inputs(
            {"a": {"a": 1.0, "b": 0.9}, "b": {"b": 1.0}},
            {"a": 0.8, "b": 0.7},
            kind="score",
        )
        # T = 0.9 > epsilon for small epsilon, fails at 0.9
        assert isf("a", inputs.family, inputs.recs, 0.5) == FAIR
        assert isf("a", inputs.family, inputs.recs, 0.95) == UNFAIR


class TestSatisfactionRatio:
    def test_fair_means_ratio_one(self):
        rng = random.Random(2)
        for _ in range(50):
            inputs = random_instance(rng)
            for x in inputs.pop.individuals:
                verdict = isf(x, inputs.family, inputs.recs, 0.0)
                ratio = satisfaction_ratio(x, inputs.family, inputs.recs, 0.0)
                assert (verdict == FAIR) == (ratio == 1.0)

    def test_crossed_x_ratio(self):
        inputs = crossed()
        # x's cluster is {x, y}; only x itself matches x
        assert satisfaction_ratio("x", inputs.family, inputs.recs, 0.0) == 0.5


class TestRelaxedIsf:
    def test_majority_backing_makes_relaxed_fair(self):
        inputs = crossed()
        assert relaxed_isf("y", inputs.family, inputs.recs, 0.0, 0.5) == FAIR

    def test_crossed_x_relaxed_fair_but_isf_unfair(self):
        inputs = crossed()
        assert relaxed_isf("x", inputs.family, inputs.recs, 0.0, 0.5) == FAIR
        assert isf("x", inputs.family, inputs.recs, 0.0) == UNFAIR

    def test_singleton_cluster_always_fair(self):
        inputs = make_inputs({"solo": {"solo": 1.0}}, {"solo": 0})
        assert relaxed_isf("solo", inputs.family, inputs.recs, 0.0, 0.5) == FAIR


class TestSfProcess:
    def test_unanimous_is_fair(self):
        inputs = make_inputs(
            {"a": {"a": 1.0, "b": 0.9}, "b": {"b": 1.0, "a": 0.9}}, {"a": 1, "b": 1}
        )
        verdict, dissenters = sf_process(inputs.pop, inputs.family, inputs.recs, inputs.params)
        assert verdict == FAIR
        assert dissenters == frozenset()

    def test_crossed_clusters_dissent(self):
        inputs = crossed()
        verdict, dissenters = sf_process(inputs.pop, inputs.family, inputs.recs, inputs.params)
        assert verdict == UNFAIR
        assert "x" in dissenters

    def test_single_individual_is_fair(self):
        inputs = make_inputs({"solo": {"solo": 1.0}}, {"solo": 0})
        verdict, dissenters = sf_process(inputs.pop, inputs.family, inputs.recs, inputs.params)
        assert verdict == FAIR
        assert dissenters == frozenset()

    def test_fair_iff_no_dissenters(self):
        rng = random.Random(17)
        for _ in range(50):
            inputs = random_instance(rng)
            verdict, dissenters = sf_process(
                inputs.pop, inputs.family, inputs.recs, inputs.params
            )
            assert (verdict == FAIR) == (not dissenters)
            expected = {
                x
                for x in inputs.pop.individuals
                if isf(x, inputs.family, inputs.recs, inputs.params.epsilon) == UNFAIR
            }
            assert dissenters == expected


def _pipeline(inputs):
    return run_pipeline(inputs.pop, inputs.family, inputs.recs)


class TestScenario:
    def test_unanimous_cluster_is_isf_satisfied(self):
        inputs = make_inputs(
            {"a": {"a": 1.0, "b": 0.9}, "b": {"b": 1.0}}, {"a": 1, "b": 1}
        )
        set_recs, _ = _pipeline(inputs)
        got = classify_scenario("a", inputs.family, inputs.recs, set_recs, inputs.params)
        assert got == ISF_SATISFIED

    def test_crossed_x_is_relaxed_only(self):
        inputs = crossed()
        set_recs, _ = _pipeline(inputs)
        got = classify_scenario("x", inputs.family, inputs.recs, set_recs, inputs.params)
        assert got == RELAXED_ONLY

    def test_owner_against_cluster_majority_is_neither(self):
        # owner recommends 1, the rest of the cluster 0: majority differs
        inputs = make_inputs(
            {"a": {"a": 1.0, "b": 0.9, "c": 0.9}, "b": {"b": 1.0}, "c": {"c": 1.0}},
            {"a": 1, "b": 0, "c": 0},
        )
        set_recs, _ = _pipeline(inputs)
        got = classify_scenario("a", inputs.family, inputs.recs, set_recs, inputs.params)
        assert got == NEITHER

    def test_partition_exactly_one_class(self):
        # evaluate the three class conditions independently of the
        # classifier's if/elif ordering
        rng = random.Random(29)
        for _ in range(80):
            inputs = random_instance(rng, epsilon=0.0)
            set_recs, _ = run_pipeline(inputs.pop, inputs.family, inputs.recs)
            eps = inputs.params.epsilon
            for x in inputs.pop.individuals:
                r_x = inputs.recs[x]
                members = inputs.family.cluster_of(x).members
                own_vs_set = treatment_similarity(r_x, set_recs[x])
                all_match = all(
                    treatment_similarity(inputs.recs[y], r_x) > eps for y in members
                )
                conds = [
                    own_vs_set > eps and all_match,
                    own_vs_set > eps and not all_match,
                    own_vs_set <= eps,
                ]
                assert sum(conds) == 1
                expected = [ISF_SATISFIED, RELAXED_ONLY, NEITHER][conds.index(True)]
                got = classify_scenario(
                    x, inputs.family, inputs.recs, set_recs, inputs.params
                )
                assert got == expected


class TestConflict:
    def _vectors(self, r, r_set, d):
        recs = RecommendationVector("t", {"i": Outcome.label(r)})
        set_recs = SetRecommendationVector("t", {"i": Outcome.label(r_set)})
        decisions = DecisionVector("t", {"i": Outcome.label(d)})
        return recs, set_recs, decisions

    def test_agreement_is_no_conflict(self):
        recs, set_recs, decisions = self._vectors(1, 1, 0)
        assert classify_conflict("i", recs, set_recs, decisions, 0.0) == NO_CONFLICT

    def test_decision_sides_with_individual(self):
        recs, set_recs, decisions = self._vectors(1, 0, 1)
        assert (
            classify_conflict("i", recs, set_recs, decisions, 0.0)
            == JUSTIFIABLE_BY_GROUP
        )

    def test_everything_disagrees_flags_system(self):
        recs, set_recs, decisions = self._vectors(1, 0, 0)
        assert classify_conflict("i", recs, set_recs, decisions, 0.0) == SYSTEM_SUSPECT

    def test_conflict_classes_require_cluster_mismatch(self):
        rng = random.Random(37)
        for _ in range(50):
            inputs = random_instance(rng, epsilon=0.0)
            set_recs, decisions = run_pipeline(inputs.pop, inputs.family, inputs.recs)
            for x in inputs.pop.individuals:
                got = classify_conflict(
                    x, inputs.recs, set_recs, decisions, inputs.params.epsilon
                )
                matches_cluster = (
                    treatment_similarity(inputs.recs[x], set_recs[x])
                    > inputs.params.epsilon
                )
                if matches_cluster:
                    assert got == NO_CONFLICT
                else:
                    assert got in (JUSTIFIABLE_BY_GROUP, SYSTEM_SUSPECT)


class TestInvariants:
    def test_isf_implies_relaxed_isf_exhaustively(self):
        # all cluster shapes around one individual and all binary
        # recommendation patterns, up to population size 5
        for n in range(1, 6):
            ids = [f"p{k}" for k in range(n)]
            others = ids[1:]
            for mask in range(2 ** len(others)):
                members = ["p0"] + [o for b, o in enumerate(others) if mask >> b & 1]
                for labels in itertools.product((0, 1), repeat=n):
                    recs = dict(zip(ids, labels))
                    rows = {
                        i: {j: (1.0 if j == i or (i == "p0" and j in members) else 0.0) for j in ids}
                        for i in ids
                    }
                    inputs = make_inputs(rows, recs, delta=0.5)
                    if isf("p0", inputs.family, inputs.recs, 0.0) == FAIR:
                        assert (
                            relaxed_isf("p0", inputs.family, inputs.recs, 0.0, 0.5)
                            == FAIR
                        )

    def test_epsilon_irrelevant_for_binary(self):
        rng = random.Random(43)
        for _ in range(50):
            inputs = random_instance(rng)
            eps2 = rng.choice([0.0, 0.3, 0.6, 0.99])
            for x in inputs.pop.individuals:
                assert isf(x, inputs.family, inputs.recs, 0.0) == isf(
                    x, inputs.family, inputs.recs, eps2
                )

    def test_raising_epsilon_only_hurts_for_scores(self):
        rng = random.Random(47)
        for _ in range(50):
            inputs = random_instance(rng, kind="score")
            lo = rng.choice([0.0, 0.2, 0.4])
            hi = lo + rng.choice([0.1, 0.3, 0.5])
            for x in inputs.pop.individuals:
                if isf(x, inputs.family, inputs.recs, hi) == FAIR:
                    assert isf(x, inputs.family, inputs.recs, lo) == FAIR

    def test_self_membership_never_causes_unfairness(self):
        rng = random.Random(53)
        for _ in range(50):
            inputs = random_instance(rng, kind=rng.choice(["binary", "score"]))
            eps = rng.choice([0.0, 0.2, 0.5])
            for x in inputs.pop.individuals:
                members = inputs.family.cluster_of(x).members
                without_self = all(
                    treatment_similarity(inputs.recs[x], inputs.recs[y]) > eps
                    for y in members
                    if y != x
                )
                verdict = isf(x, inputs.family, inputs.recs, eps)
                assert (verdict == FAIR) == without_self


class TestAuditPopulation:
    def test_full_report_fields(self):
        inputs = crossed()
        set_recs, decisions = _pipeline(inputs)
        report = audit_population(
            inputs.pop, inputs.family, inputs.recs, inputs.params, set_recs, decisions
        )
        assert set(report.verdicts) == set(inputs.pop.individuals)
        assert report.sf == UNFAIR
        assert report.dissenters == frozenset({"x", "y", "u"})
        assert report.scenarios["v"] == ISF_SATISFIED
        assert report.verdicts["x"].relaxed_isf == FAIR

    def test_theta_mismatch_rejected(self, tmp_path, capsys):
        # Theta agreement is an invariant of the run, so the audit never
        # sees a second theta: a mismatched run cannot be built or loaded.
        import dataclasses
        import json

        from subjfair import AggregationStrategy, InputError
        from subjfair.harness.cli import main
        from subjfair.harness.fixtures import crossed_clusters_path, crossed_clusters_run
        from subjfair.harness.runfile import RunFileError, loads_run

        with pytest.raises(InputError, match="differs from params theta"):
            dataclasses.replace(crossed_clusters_run(), strategy=AggregationStrategy(theta=0.4))
        doc = json.loads(crossed_clusters_path().read_text())
        doc["strategy"]["theta"] = 0.2
        with pytest.raises(RunFileError) as err:
            loads_run(json.dumps(doc))
        assert err.value.location == "strategy.theta"
        path = tmp_path / "two_thetas.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--input", str(path)]) == 2
        assert main(["audit", "--input", str(path)]) == 2
        assert capsys.readouterr().err.count("strategy.theta:") == 2
