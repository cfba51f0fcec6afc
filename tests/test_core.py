import random
import re

import pytest
from hypothesis import given, strategies as st

from subjfair import (
    AuditParams,
    BaselineInputs,
    InputError,
    ObjectiveDistanceTable,
    PerceptionTable,
    Population,
    RecommendationVector,
    validate_population,
)
from subjfair.baselines import check_scores
from subjfair.core import (
    MISSING_RECOMMENDATION,
    SELF_SIMILARITY,
    UNKNOWN_ID,
    VALUE_RANGE,
)

from helpers import audit, make_inputs, rows_of


def _pair_ratios(a, b, epsilon, kind="binary"):
    """The satisfaction ratios the audit gives a and b, who each perceive
    the cluster {a, b}: 1.0 when a's and b's treatments are
    epsilon-similar, else 0.5."""
    rows = {"a": {"a": 1.0, "b": 1.0}, "b": {"a": 1.0, "b": 1.0}}
    report = audit(make_inputs(rows, {"a": a, "b": b}, kind=kind), epsilon=epsilon)
    return tuple(report.satisfaction_ratio)


class TestTreatmentSimilarity:
    # Binary outcomes compare by exact match, scores by 1 - |a - b|; two
    # treatments are similar when that exceeds epsilon.

    def test_identical_binary_labels(self):
        assert _pair_ratios(1, 1, 0.99) == (1.0, 1.0)
        assert _pair_ratios(0, 0, 0.99) == (1.0, 1.0)

    def test_opposite_binary_labels(self):
        assert _pair_ratios(1, 0, 0.0) == (0.5, 0.5)

    def test_scores(self):
        # 1 - |0.85 - 0.90| = 0.95
        assert _pair_ratios(0.85, 0.90, 0.94, kind="score") == (1.0, 1.0)
        assert _pair_ratios(0.85, 0.90, 0.96, kind="score") == (0.5, 0.5)

    @given(st.integers(0, 1), st.integers(0, 1), st.sampled_from([0.0, 0.3, 0.99]))
    def test_binary_symmetric_and_two_valued(self, a, b, epsilon):
        ratio_a, ratio_b = _pair_ratios(a, b, epsilon)
        assert ratio_a == ratio_b == (1.0 if a == b else 0.5)

    @given(
        st.floats(0, 1, allow_nan=False, allow_infinity=False),
        st.floats(0, 1, allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, 0.2, 0.5, 0.9]),
    )
    def test_score_symmetric_reflexive_bounded(self, a, b, epsilon):
        ratio_a, ratio_b = _pair_ratios(a, b, epsilon, kind="score")
        assert ratio_a == ratio_b == (1.0 if 1.0 - abs(a - b) > epsilon else 0.5)
        assert _pair_ratios(a, a, epsilon, kind="score") == (1.0, 1.0)


class TestRecommendationVector:
    def test_binary_values_restricted(self):
        for value in (2, 0.5, -1):
            with pytest.raises(InputError, match="must be 0 or 1"):
                RecommendationVector("p", {"a": value})

    def test_score_range(self):
        for value in (1.2, -0.01, float("inf")):
            with pytest.raises(InputError, match="outside"):
                RecommendationVector("p", {"a": value}, "score")

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            RecommendationVector("p", {"a": 0.5}, "ordinal")

    def test_values_are_stored_as_their_kind(self):
        # a binary label is an int and a score a float, whichever was given
        labels = RecommendationVector("p", {"a": 1.0, "b": 0, "c": -0.0})
        assert labels.values == {"a": 1, "b": 0, "c": 0}
        assert {type(v) for v in labels.values.values()} == {int}
        scores = RecommendationVector("p", {"a": 1, "b": 0, "c": 0.25}, "score")
        assert scores.values == {"a": 1.0, "b": 0.0, "c": 0.25}
        assert {type(v) for v in scores.values.values()} == {float}

    @pytest.mark.parametrize("kind", ["binary", "score"])
    @pytest.mark.parametrize("value", [True, False, float("nan"), "1", None, [1]])
    def test_bools_nans_and_non_numbers_refused(self, kind, value):
        with pytest.raises(InputError):
            RecommendationVector("p", {"a": value}, kind)

    def test_kind_is_stated_once_for_the_vector(self):
        assert RecommendationVector("p", {}).kind == "binary"
        assert RecommendationVector("p", {"a": 0.5}, "score").kind == "score"


class TestAuditParams:
    def test_defaults(self):
        params = AuditParams(delta=0.5)
        assert params.epsilon == 0.0
        assert params.theta == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": -0.1},
            {"delta": 1.1},
            {"delta": 0.5, "epsilon": 1.0},
            {"delta": 0.5, "epsilon": -0.01},
            {"delta": 0.5, "theta": 1.0},
            {"delta": 0.5, "theta": -0.2},
        ],
    )
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(InputError):
            AuditParams(**kwargs)


class TestPopulation:
    def test_requires_individuals(self):
        with pytest.raises(InputError):
            Population(())

    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            Population(("a", "b", "a"))

    def test_rejects_inconsistent_attribute_keys(self):
        with pytest.raises(InputError):
            Population(("a", "b"), {"a": {"age": 1}, "b": {"group": "g"}})

    def test_rejects_unknown_attribute_id(self):
        with pytest.raises(InputError):
            Population(("a",), {"z": {"age": 1}})


class TestValidatePopulation:
    def _valid(self):
        return make_inputs(
            {"a": {"a": 1.0, "b": 0.7}, "b": {"b": 1.0}},
            {"a": 1, "b": 0},
        )

    def test_valid_inputs_give_empty_report(self):
        inputs = self._valid()
        assert validate_population(inputs.pop, inputs.table, inputs.recs) == ()

    def test_wrong_self_similarity_is_flagged(self):
        inputs = self._valid()
        table = PerceptionTable({"a": {"a": 0.9}, "b": {"b": 1.0}})
        report = validate_population(inputs.pop, table, inputs.recs)
        assert report
        assert any(
            code == SELF_SIMILARITY and "self-similarity must be 1.0 for a" in message
            for code, _, message in report
        )

    def test_missing_diagonal_is_flagged(self):
        inputs = self._valid()
        table = PerceptionTable({"a": {"a": 1.0}})  # b has no row at all
        report = validate_population(inputs.pop, table, inputs.recs)
        assert any(code == SELF_SIMILARITY and "for b" in message for code, _, message in report)

    def test_missing_recommendation_is_flagged(self):
        inputs = self._valid()
        recs = RecommendationVector("test", {"a": 1})
        report = validate_population(inputs.pop, inputs.table, recs)
        assert any(
            code == MISSING_RECOMMENDATION and "no recommendation for b" in message
            for code, _, message in report
        )

    def test_unknown_ids_are_flagged(self):
        inputs = self._valid()
        table = PerceptionTable(
            {"a": {"a": 1.0, "ghost": 0.8}, "b": {"b": 1.0}}
        )
        recs = RecommendationVector("test", {"a": 1, "b": 0, "ghost": 1})
        report = validate_population(inputs.pop, table, recs)
        codes = {code for code, _, _ in report}
        assert UNKNOWN_ID in codes

    def test_out_of_range_similarity_is_flagged(self):
        inputs = self._valid()
        table = PerceptionTable({"a": {"a": 1.0, "b": 1.5}, "b": {"b": 1.0}})
        report = validate_population(inputs.pop, table, inputs.recs)
        assert any(code == VALUE_RANGE for code, _, _ in report)

    def test_validated_table_means_nonempty_clusters(self):
        # sim(x, x) == 1 clears any threshold, so every cluster has its owner
        inputs = self._valid()
        assert validate_population(inputs.pop, inputs.table, inputs.recs) == ()
        for x in inputs.pop.individuals:
            assert inputs.table.similarity(x, x) == 1.0


class TestPerceptionTable:
    def test_missing_entries_read_as_zero(self):
        table = PerceptionTable({"a": {"a": 1.0}})
        assert table.similarity("a", "b") == 0.0

    def test_asymmetry_is_allowed(self):
        table = PerceptionTable({"a": {"a": 1.0, "b": 0.9}, "b": {"b": 1.0}})
        assert table.similarity("a", "b") == 0.9
        assert table.similarity("b", "a") == 0.0

    def test_bad_provenance_rejected(self):
        with pytest.raises(InputError):
            PerceptionTable({}, provenance="guessed")

    def test_rows_round_trip(self):
        rows = {"a": {"a": 1.0, "b": 0.4}, "b": {"b": 1.0}}
        assert PerceptionTable(rows).as_rows() == rows

    def test_rows_are_the_stored_form(self):
        rows = {"a": {"a": 1, "b": 0.4}, "b": {}}
        table = PerceptionTable(rows)
        assert table.rows == {"a": {"a": 1.0, "b": 0.4}}  # values as floats, empty rows dropped
        assert type(table.rows["a"]["a"]) is float
        assert table == PerceptionTable({"a": {"b": 0.4, "a": 1.0}})
        rows["a"]["b"] = 0.9
        assert table.similarity("a", "b") == 0.4

    @pytest.mark.parametrize(
        "value, where",
        [(True, "sim(x,x)"), (False, "sim(x,x)"), ("0.7", "sim(x,y)"), (None, "sim(x,y)"),
         ([0.7], "sim(x,y)")],
    )
    def test_a_bool_or_a_value_that_is_no_number_is_refused(self, value, where):
        # a row of exact floats is copied as it is; any other row is checked
        # value by value, so the fault is named wherever it sits
        target = "x" if where == "sim(x,x)" else "y"
        row = {"x": 1.0, "y": 0.5, target: value}
        with pytest.raises(InputError, match=rf"^{re.escape(where)}: expected a number"):
            PerceptionTable({"x": row, "y": {"y": 1}})

    def test_int_and_float_subclasses_are_numbers(self):
        class Score(float):
            pass

        table = PerceptionTable({"x": {"x": 1, "y": Score(0.25)}})
        assert table.rows == {"x": {"x": 1.0, "y": 0.25}}
        assert all(type(value) is float for value in table.rows["x"].values())

    def test_entries_is_a_read_only_view_of_the_rows(self):
        table = PerceptionTable({"a": {"a": 1.0, "b": 0.4}, "b": {"b": 1.0}})
        assert dict(table.entries) == {("a", "a"): 1.0, ("a", "b"): 0.4, ("b", "b"): 1.0}
        with pytest.raises(TypeError):
            table.entries[("b", "a")] = 0.5  # type: ignore[index]


@pytest.mark.parametrize(
    "build, where",
    [
        (lambda big: PerceptionTable({"x": {"x": 1.0, "y": big}}), "sim(x,y)"),
        (lambda big: check_scores({"a": 0.5, "b": big}), "score b"),
        (lambda big: BaselineInputs({"b": big}, ObjectiveDistanceTable({})), "score b"),
        (lambda big: ObjectiveDistanceTable({("b", "a"): big}), "distance for (b, a)"),
        (
            lambda big: ObjectiveDistanceTable({("a", "b"): 1.0}, {("a", "a", "b"): big}),
            "distance for (a, b) by 'a'",
        ),
    ],
    ids=["similarity", "score", "baseline_score", "distance", "override"],
)
def test_a_number_too_large_for_a_float_is_refused_at_its_entry(build, where):
    # an int beyond the float range has no float: each constructor names
    # the entry that holds it, as it does for every other refusal
    with pytest.raises(InputError, match=rf"^{re.escape(where)}: too large for a float$"):
        build(10**400)


# --- differential: the unsorted scan against the sorted definition ----------


def _sorted_scan(pop, table, recs):
    """The definition of the perception checks, literally: every explicit
    entry in sorted order, each checked for unknown ids and then range."""
    violations = [
        (SELF_SIMILARITY, f"sim({i},{i})",
         f"self-similarity must be 1.0 for {i}, got {table.similarity(i, i)}")
        for i in pop.individuals
        if table.similarity(i, i) != 1.0
    ]
    for (observer, target), value in sorted(table.entries.items()):
        where = f"sim({observer},{target})"
        for individual in (observer, target):
            if individual not in pop.positions:
                violations.append(
                    (UNKNOWN_ID, where, f"unknown id {individual} in perception table")
                )
        if not 0.0 <= value <= 1.0:
            violations.append((VALUE_RANGE, where, f"similarity {value} outside [0, 1]"))
    for i in pop.individuals:
        if i not in recs.values:
            violations.append((MISSING_RECOMMENDATION, f"rec({i})", f"no recommendation for {i}"))
    for i in sorted(recs.values):
        if i not in pop.positions:
            violations.append((UNKNOWN_ID, f"rec({i})", f"recommendation for unknown id {i}"))
    return tuple(violations)


def _broken_entries(rng, ids):
    """A table mixing every kind of perception fault: spoiled or missing
    diagonals, out-of-range and NaN values, unknown observers and targets,
    with rows and entries in shuffled order."""
    bad_values = [-0.5, -1e-12, 1.0000001, 2.0, float("nan"), float("inf")]
    entries = {}
    for x in rng.sample(ids, len(ids)):
        roll = rng.random()
        if roll < 0.7:
            entries[(x, x)] = 1.0
        elif roll < 0.85:
            entries[(x, x)] = rng.choice([0.9, *bad_values])
        for z in rng.sample(ids, rng.randint(0, 8)):
            entries[(x, z)] = rng.choice([0.0, 0.3, 1.0, *bad_values])
    for k in range(rng.randint(1, 10)):
        x = rng.choice(ids)
        entries[(x, f"ghost{k}")] = rng.choice([0.5, 1.5])
        entries[(f"stray{k}", rng.choice([x, f"ghost{k}", f"stray{k}"]))] = rng.choice([0.5, -1.0])
    keys = list(entries)
    rng.shuffle(keys)
    return {key: entries[key] for key in keys}


def test_validation_matches_the_sorted_scan_on_broken_tables():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(50, 200)
        ids = [f"p{k:03d}" for k in range(n)]
        pop = Population(tuple(ids))
        table = PerceptionTable(rows_of(_broken_entries(rng, ids)))
        rec_ids = rng.sample(ids, n - rng.randint(0, 5)) + [f"zz{k}" for k in range(rng.randint(0, 3))]
        recs = RecommendationVector("t", {i: rng.randint(0, 1) for i in rec_ids})
        report = validate_population(pop, table, recs)
        assert report == _sorted_scan(pop, table, recs)
        assert {code for code, _, _ in report} == {SELF_SIMILARITY, VALUE_RANGE, UNKNOWN_ID} | (
            {MISSING_RECOMMENDATION} if len(set(rec_ids) & set(ids)) < n else set()
        )
