import itertools
import random
from collections import Counter

import pytest

from subjfair import aggregation, audit as audit_module
from subjfair import (
    FAIR,
    MAJORITY,
    PESSIMISTIC,
    TRUST_WEIGHTED,
    UNFAIR,
    ISF_SATISFIED,
    RELAXED_ONLY,
    NEITHER,
    NO_CONFLICT,
    JUSTIFIABLE_BY_GROUP,
    SYSTEM_SUSPECT,
    AggregationStrategy,
    audit_population,
    binarize,
    cluster_tally,
    run_pipeline,
    sf_process,
)

from helpers import (
    audit,
    make_inputs,
    pipeline_by_cluster,
    random_instance,
    random_rows,
    similarity,
)


CROSSED_ROWS = {
    "x": {"x": 1.0, "y": 0.8, "u": 0.1, "v": 0.1},
    "y": {"x": 0.1, "y": 1.0, "u": 0.8, "v": 0.8},
    "u": {"x": 0.8, "y": 0.1, "u": 1.0, "v": 0.8},
    "v": {"x": 0.1, "y": 0.8, "u": 0.1, "v": 1.0},
}
CROSSED_RECS = {"x": 0, "y": 1, "u": 0, "v": 1}


#: The positions of the crossed population.
X, Y, U, V = range(4)


def crossed():
    return make_inputs(CROSSED_ROWS, CROSSED_RECS)


def satisfied_share(inputs, k, epsilon):
    """The satisfaction ratio of the person at position k by its
    definition, member by member."""
    ids = inputs.pop.individuals
    members = inputs.family.members[k]
    values, kind = inputs.recs.values, inputs.recs.kind
    r_x = values[ids[k]]
    hits = sum(1 for j in members if similarity(r_x, values[ids[j]], kind) > epsilon)
    return hits / len(members)


class TestIsf:
    def test_uniform_cluster_is_fair(self):
        inputs = make_inputs(
            {"a": {"a": 1.0, "b": 0.9}, "b": {"b": 1.0}}, {"a": 1, "b": 1}
        )
        assert audit(inputs).isf[0] == FAIR

    def test_dissenting_member_makes_unfair(self):
        inputs = crossed()
        # y sits in x's cluster with the opposite recommendation
        assert audit(inputs).isf[X] == UNFAIR

    def test_perception_is_one_sided(self):
        # alice groups herself with bob; bob does not reciprocate. Bob is
        # granted, alice denied: unfair for alice, fair for bob.
        inputs = make_inputs(
            {"alice": {"alice": 1.0, "bob": 0.9}, "bob": {"bob": 1.0, "alice": 0.2}},
            {"alice": 0, "bob": 1},
        )
        assert audit(inputs).isf == [UNFAIR, FAIR]

    def test_score_outcomes_compare_raw(self):
        inputs = make_inputs(
            {"a": {"a": 1.0, "b": 0.9}, "b": {"b": 1.0}},
            {"a": 0.8, "b": 0.7},
            kind="score",
        )
        # T = 0.9 > epsilon for small epsilon, fails at 0.9
        assert audit(inputs, epsilon=0.5).isf[0] == FAIR
        assert audit(inputs, epsilon=0.95).isf[0] == UNFAIR


class TestSatisfactionRatio:
    def test_fair_means_ratio_one(self):
        rng = random.Random(2)
        for _ in range(50):
            inputs = random_instance(rng, kind=rng.choice(["binary", "score"]))
            epsilon = rng.choice([0.0, 0.3, 0.8])
            report = audit(inputs, epsilon=epsilon)
            for k in range(len(inputs.pop)):
                ratio = report.satisfaction_ratio[k]
                assert ratio == satisfied_share(inputs, k, epsilon)
                assert (report.isf[k] == FAIR) == (ratio == 1.0)

    def test_crossed_x_ratio(self):
        inputs = crossed()
        # x's cluster is {x, y}; only x itself matches x
        assert audit(inputs).satisfaction_ratio[X] == 0.5


class TestRelaxedIsf:
    def test_majority_backing_makes_relaxed_fair(self):
        inputs = crossed()
        assert audit(inputs, theta=0.5).relaxed_isf[Y] == FAIR

    def test_crossed_x_relaxed_fair_but_isf_unfair(self):
        inputs = crossed()
        report = audit(inputs, theta=0.5)
        assert report.relaxed_isf[X] == FAIR
        assert report.isf[X] == UNFAIR

    def test_singleton_cluster_always_fair(self):
        inputs = make_inputs({"solo": {"solo": 1.0}}, {"solo": 0})
        assert audit(inputs, theta=0.5).relaxed_isf == [FAIR]

    def test_compares_with_the_plain_majority_not_the_cluster_label(self):
        # a's cluster {a, b, c} has a 2/3 positive majority, but the
        # pessimistic pipeline labels it 0: a matches the majority (relaxed
        # ISF fair) yet not the cluster label (scenario NEITHER).
        inputs = make_inputs(
            {"a": {"a": 1.0, "b": 0.9, "c": 0.9}, "b": {"b": 1.0}, "c": {"c": 1.0}},
            {"a": 1, "b": 1, "c": 0},
        )
        report = audit(inputs, kind=PESSIMISTIC)
        assert report.set_labels[0] == 0
        assert report.relaxed_isf[0] == FAIR
        assert report.scenario[0] == NEITHER


class TestSfProcess:
    def test_unanimous_is_fair(self):
        inputs = make_inputs(
            {"a": {"a": 1.0, "b": 0.9}, "b": {"b": 1.0, "a": 0.9}}, {"a": 1, "b": 1}
        )
        report = audit(inputs)
        assert report.sf == FAIR
        assert report.dissenters == frozenset()

    def test_crossed_clusters_dissent(self):
        report = audit(crossed())
        assert report.sf == UNFAIR
        assert "x" in report.dissenters

    def test_single_individual_is_fair(self):
        report = audit(make_inputs({"solo": {"solo": 1.0}}, {"solo": 0}))
        assert report.sf == FAIR
        assert report.dissenters == frozenset()

    def test_fair_iff_no_dissenters(self):
        rng = random.Random(17)
        for _ in range(50):
            inputs = random_instance(rng)
            report = audit(inputs)
            assert (report.sf == FAIR) == (not report.dissenters)
            expected = {
                x
                for k, x in enumerate(inputs.pop.individuals)
                if satisfied_share(inputs, k, inputs.params.epsilon) < 1.0
            }
            assert report.dissenters == expected
            assert sf_process(inputs.pop.individuals, report.isf) == (report.sf, report.dissenters)


class TestScenario:
    def test_unanimous_cluster_is_isf_satisfied(self):
        inputs = make_inputs(
            {"a": {"a": 1.0, "b": 0.9}, "b": {"b": 1.0}}, {"a": 1, "b": 1}
        )
        assert audit(inputs).scenario[0] == ISF_SATISFIED

    def test_crossed_x_is_relaxed_only(self):
        assert audit(crossed()).scenario[X] == RELAXED_ONLY

    def test_owner_against_cluster_majority_is_neither(self):
        # owner recommends 1, the rest of the cluster 0: majority differs
        inputs = make_inputs(
            {"a": {"a": 1.0, "b": 0.9, "c": 0.9}, "b": {"b": 1.0}, "c": {"c": 1.0}},
            {"a": 1, "b": 0, "c": 0},
        )
        assert audit(inputs).scenario[0] == NEITHER

    def test_partition_exactly_one_class(self):
        # evaluate the three class conditions independently of the
        # classifier's if/elif ordering
        rng = random.Random(29)
        for _ in range(80):
            inputs = random_instance(rng, epsilon=0.0)
            report = audit(inputs)
            eps = inputs.params.epsilon
            ids = inputs.pop.individuals
            values, kind = inputs.recs.values, inputs.recs.kind
            for k, x in enumerate(ids):
                r_x = values[x]
                own_vs_set = similarity(r_x, report.set_labels[k], kind)
                all_match = all(
                    similarity(values[ids[j]], r_x, kind) > eps for j in inputs.family.members[k]
                )
                conds = [
                    own_vs_set > eps and all_match,
                    own_vs_set > eps and not all_match,
                    own_vs_set <= eps,
                ]
                assert sum(conds) == 1
                expected = [ISF_SATISFIED, RELAXED_ONLY, NEITHER][conds.index(True)]
                assert report.scenario[k] == expected


class TestConflict:
    def _conflict(self, r, r_set, d):
        inputs = make_inputs({"i": {"i": 1.0}}, {"i": r})
        report = audit_population(
            inputs.pop, inputs.family, inputs.recs, inputs.params, inputs.tally, [r_set], [d]
        )
        return report.conflict[0]

    def test_agreement_is_no_conflict(self):
        assert self._conflict(1, 1, 0) == NO_CONFLICT

    def test_decision_sides_with_individual(self):
        assert self._conflict(1, 0, 1) == JUSTIFIABLE_BY_GROUP

    def test_everything_disagrees_flags_system(self):
        assert self._conflict(1, 0, 0) == SYSTEM_SUSPECT

    def test_conflict_classes_require_cluster_mismatch(self):
        rng = random.Random(37)
        for _ in range(50):
            inputs = random_instance(rng, epsilon=0.0)
            report = audit(inputs)
            values, kind = inputs.recs.values, inputs.recs.kind
            for x, own, got in zip(inputs.pop.individuals, report.set_labels, report.conflict):
                matches_cluster = similarity(values[x], own, kind) > inputs.params.epsilon
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
                    report = audit(inputs, epsilon=0.0, theta=0.5)
                    if report.isf[0] == FAIR:
                        assert report.relaxed_isf[0] == FAIR

    def test_epsilon_irrelevant_for_binary(self):
        rng = random.Random(43)
        for _ in range(50):
            inputs = random_instance(rng)
            eps2 = rng.choice([0.0, 0.3, 0.6, 0.99])
            assert audit(inputs, epsilon=0.0) == audit(inputs, epsilon=eps2)

    def test_raising_epsilon_only_hurts_for_scores(self):
        rng = random.Random(47)
        for _ in range(50):
            inputs = random_instance(rng, kind="score")
            lo = rng.choice([0.0, 0.2, 0.4])
            hi = lo + rng.choice([0.1, 0.3, 0.5])
            at_lo = audit(inputs, epsilon=lo).isf
            at_hi = audit(inputs, epsilon=hi).isf
            for k in range(len(inputs.pop)):
                if at_hi[k] == FAIR:
                    assert at_lo[k] == FAIR

    def test_self_membership_never_causes_unfairness(self):
        rng = random.Random(53)
        for _ in range(50):
            inputs = random_instance(rng, kind=rng.choice(["binary", "score"]))
            eps = rng.choice([0.0, 0.2, 0.5])
            isf = audit(inputs, epsilon=eps).isf
            ids = inputs.pop.individuals
            values, kind = inputs.recs.values, inputs.recs.kind
            for k, x in enumerate(ids):
                without_self = all(
                    similarity(values[x], values[ids[j]], kind) > eps
                    for j in inputs.family.members[k]
                    if j != k
                )
                assert (isf[k] == FAIR) == without_self


class TestAuditPopulation:
    def test_full_report_fields(self):
        inputs = crossed()
        set_labels, decisions = run_pipeline(inputs.pop, inputs.family, inputs.tally)
        report = audit_population(
            inputs.pop,
            inputs.family,
            inputs.recs,
            inputs.params,
            inputs.tally,
            set_labels,
            decisions,
        )
        columns = (report.isf, report.relaxed_isf, report.satisfaction_ratio)
        assert all(len(column) == len(inputs.pop) for column in columns)
        assert report.sf == UNFAIR
        assert report.dissenters == frozenset({"x", "y", "u"})
        assert report.scenario[V] == ISF_SATISFIED
        assert report.relaxed_isf[X] == FAIR

    def test_label_lists_of_another_length_are_refused(self):
        # the audit reads the labels by position, so a list that holds no
        # label for someone, or one too many, is refused
        from subjfair import InputError

        inputs = crossed()
        set_labels, decisions = run_pipeline(inputs.pop, inputs.family, inputs.tally)
        for short, long in ((set_labels[:-1], decisions), (set_labels, decisions + [0])):
            with pytest.raises(InputError, match="one label per person"):
                audit_population(
                    inputs.pop,
                    inputs.family,
                    inputs.recs,
                    inputs.params,
                    inputs.tally,
                    short,
                    long,
                )

    def test_reads_each_cluster_once(self, monkeypatch):
        # complexity gate by counted calls: the audit binarizes nothing
        rng = random.Random(11)
        ids = [f"p{k:03d}" for k in range(200)]
        recs = {i: round(rng.random(), 3) for i in ids}
        inputs = make_inputs(random_rows(rng, ids, density=0.5), recs, delta=0.3, kind="score")
        sum_c = sum(map(len, inputs.family.members))
        assert sum_c > 20 * len(ids)
        set_labels, decisions = run_pipeline(inputs.pop, inputs.family, inputs.tally)

        calls = Counter()

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        # the audit reads its labels from the tally it is given, so it makes
        # no binarize call of its own, in either module
        assert not hasattr(audit_module, "binarize")
        monkeypatch.setattr(aggregation, "binarize", counting("binarize", binarize))
        audit_population(
            inputs.pop,
            inputs.family,
            inputs.recs,
            inputs.params,
            inputs.tally,
            set_labels,
            decisions,
        )
        assert calls["binarize"] == 0

    @pytest.mark.parametrize("kind", ["binary", "score"])
    def test_one_family_serves_two_vectors_in_alternation(self, kind):
        # the tally is a value of one family and one vector, so two vectors
        # audited in turn over one family each get their own pipeline and
        # audit, whichever was tallied last
        rng = random.Random(23)
        ids = [f"p{k:02d}" for k in range(30)]
        rows = random_rows(rng, ids, density=0.4)

        def draw():
            return float(rng.randint(0, 1)) if kind == "binary" else round(rng.random(), 3)

        vectors = [{i: draw() for i in ids} for _ in range(2)]
        # each vector's own inputs, with a family built for it alone
        fresh = [make_inputs(rows, values, delta=0.4, epsilon=0.2, kind=kind) for values in vectors]
        pop, family, params = fresh[0].pop, fresh[0].family, fresh[0].params
        for strategy_kind in (MAJORITY, TRUST_WEIGHTED, PESSIMISTIC):
            strategy = AggregationStrategy(strategy_kind, theta=params.theta)
            results = []
            for inputs in fresh + fresh:
                tally = cluster_tally(pop, family, inputs.recs)
                labels = run_pipeline(pop, family, tally, strategy)
                assert labels == pipeline_by_cluster(pop, family, inputs.recs, strategy)
                report = audit_population(pop, family, inputs.recs, params, tally, *labels)
                assert report == audit(inputs, kind=strategy_kind)
                results.append(report)
            assert results[0] == results[2] != results[1] == results[3]

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
