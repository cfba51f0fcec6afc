import itertools
import random
import re

import pytest

from subjfair import (
    BaselineInputs,
    InputError,
    ObjectiveDistanceTable,
    Population,
    dwork_if_check,
    statistical_parity_gap,
    subjective_if_check,
)
from subjfair.baselines import GAP_TOLERANCE

from helpers import CountingMapping, if_checks_by_pair


def _objective(scores, distances):
    """The objective check on the baseline ``scores`` and ``distances``."""
    return dwork_if_check(BaselineInputs(scores, distances))


def _subjective(scores, distances):
    """The subjective check as the report runs it: on the findings of the
    objective check."""
    baseline = BaselineInputs(scores, distances)
    return subjective_if_check(baseline, dwork_if_check(baseline))


class TestObjectiveCheck:
    def test_gap_at_distance_is_no_violation(self):
        scores = {"x": 0.85, "y": 0.90}
        distances = ObjectiveDistanceTable({("x", "y"): 0.05})
        assert _objective(scores, distances) == []

    def test_identical_scores_never_violate(self):
        scores = {"x": 0.4, "y": 0.4}
        distances = ObjectiveDistanceTable({("x", "y"): 0.0})
        assert _objective(scores, distances) == []

    def test_large_gap_violates(self):
        # |0.2 - 0.9| = 0.7 > 0.1
        scores = {"x": 0.2, "y": 0.9}
        distances = ObjectiveDistanceTable({("x", "y"): 0.1})
        violations = _objective(scores, distances)
        assert len(violations) == 1
        pair, gap, _ = violations[0]
        assert pair == ("x", "y")
        assert gap == pytest.approx(0.7)

    def test_symmetric_in_pair_order(self):
        # a table keyed (y, x) gives the same violations as one keyed (x, y)
        scores = {"x": 0.2, "y": 0.9}
        one = _objective(scores, ObjectiveDistanceTable({("x", "y"): 0.1}))
        two = _objective(scores, ObjectiveDistanceTable({("y", "x"): 0.1}))
        assert one == two == [(("x", "y"), pytest.approx(0.7), 0.1)]

    def test_missing_distance_rejected(self):
        with pytest.raises(InputError, match=r"pair \(x, y\)"):
            BaselineInputs({"x": 0.2, "y": 0.4}, ObjectiveDistanceTable({}))


class TestSubjectiveCheck:
    def test_one_party_perceives_unfairness(self):
        # objectively acceptable gap, but x's own perceived distance is
        # tighter, so x alone sees a violation
        scores = {"x": 0.85, "y": 0.90}
        distances = ObjectiveDistanceTable(
            {("x", "y"): 0.05}, {("x", "x", "y"): 0.04}
        )
        violations = _subjective(scores, distances)
        assert [observer for observer, _, _, _ in violations] == ["x"]
        assert violations[0][3] == 0.04

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
            objective = {pair for pair, _, _ in _objective(scores, distances)}
            subjective = _subjective(scores, distances)
            # each violating pair appears once per party, and only those
            assert {pair for _, pair, _, _ in subjective} == objective
            for pair in objective:
                observers = {observer for observer, of, _, _ in subjective if of == pair}
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
            without = _subjective(scores, ObjectiveDistanceTable(base))
            with_override = _subjective(
                scores, ObjectiveDistanceTable(base, looser)
            )
            mine = lambda vs: {(observer, pair) for observer, pair, _, _ in vs}
            assert mine(with_override) <= mine(without)

    def test_negative_distance_rejected(self):
        # NaN too: no score gap compares above it, so it would hide a pair
        for d in (-0.1, float("nan")):
            with pytest.raises(InputError):
                ObjectiveDistanceTable({("x", "y"): d})
            with pytest.raises(InputError):
                ObjectiveDistanceTable({("x", "y"): 0.1}, {("x", "x", "y"): d})


def _decisions(values):
    """The 0/1 decisions of ``values``, by position in its id order."""
    return list(values.values())


def _population(groups):
    individuals = tuple(groups)
    return Population(individuals, {i: {"group": g} for i, g in groups.items()})


class TestStatisticalParity:
    def test_equal_rates_have_zero_gap(self):
        pop = _population({"a": "A", "b": "A", "c": "B", "d": "B"})
        decisions = _decisions({"a": 1, "b": 0, "c": 1, "d": 0})
        assert statistical_parity_gap(decisions, pop, "group") == ({"A": 0.5, "B": 0.5}, 0.0)

    def test_extreme_groups_have_gap_one(self):
        pop = _population({"a": "A", "b": "A", "c": "B", "d": "B"})
        decisions = _decisions({"a": 1, "b": 1, "c": 0, "d": 0})
        assert statistical_parity_gap(decisions, pop, "group")[1] == 1.0

    def test_hand_counted_rates(self):
        # A: {1, 0, 1} -> 2/3, B: {1, 0} -> 1/2, gap 1/6
        pop = _population({"a": "A", "b": "A", "c": "A", "d": "B", "e": "B"})
        decisions = _decisions({"a": 1, "b": 0, "c": 1, "d": 1, "e": 0})
        rates, gap = statistical_parity_gap(decisions, pop, "group")
        assert rates["A"] == pytest.approx(2 / 3)
        assert rates["B"] == pytest.approx(1 / 2)
        assert gap == pytest.approx(1 / 6)

    def test_invariant_under_group_relabeling(self):
        decisions = _decisions({"a": 1, "b": 0, "c": 1, "d": 1, "e": 0})
        one = statistical_parity_gap(
            decisions, _population({"a": "A", "b": "A", "c": "A", "d": "B", "e": "B"}), "group"
        )
        two = statistical_parity_gap(
            decisions, _population({"a": "Z", "b": "Z", "c": "Z", "d": "Q", "e": "Q"}), "group"
        )
        assert one[1] == two[1]
        assert sorted(one[0].values()) == sorted(two[0].values())

    def test_gap_bounded(self):
        rng = random.Random(79)
        for _ in range(50):
            n = rng.randint(1, 10)
            groups = {f"p{k}": rng.choice("ABC") for k in range(n)}
            decisions = _decisions({i: rng.randint(0, 1) for i in groups})
            _, gap = statistical_parity_gap(decisions, _population(groups), "group")
            assert 0.0 <= gap <= 1.0

    def test_single_group_has_zero_gap(self):
        pop = _population({"a": "A", "b": "A"})
        decisions = _decisions({"a": 1, "b": 0})
        assert statistical_parity_gap(decisions, pop, "group")[1] == 0.0

    @pytest.mark.parametrize(
        "values, named",
        [
            ({"a": 1, "b": "1", "c": 1, "d": "1"}, "1 and '1'"),
            ({"a": True, "b": 0, "c": 1, "d": False}, "True and 1"),
            ({"a": 1, "b": "1", "c": True}, "1 and '1'"),
            ({"a": "A", "b": 1.0, "c": 1}, "1.0 and 1"),
        ],
    )
    def test_values_a_report_cannot_tell_apart_rejected(self, values, named):
        # the report keys each rate by its printed value: a value equal to
        # another that prints differently, or one that prints alike and differs,
        # would merge two groups or drop one
        decisions = _decisions({i: k % 2 for k, i in enumerate(values)})
        with pytest.raises(InputError, match=f"'group' has values {named}"):
            statistical_parity_gap(decisions, _population(values), "group")

    def test_values_of_several_types_accepted(self):
        pop = _population({"a": 1, "b": "2", "c": None, "d": 1})
        decisions = _decisions({"a": 1, "b": 0, "c": 1, "d": 0})
        rates, _ = statistical_parity_gap(decisions, pop, "group")
        assert rates == {1: 0.5, "2": 0.0, None: 1.0}

    def test_decisions_of_another_length_are_refused(self):
        # parity reads the decisions by position, so a list that holds no
        # decision for someone, or one too many, is refused
        pop = _population({"a": "A", "b": "A", "c": "B"})
        for decisions in ([1, 0], [1, 0, 1, 1]):
            with pytest.raises(InputError, match="one label per person"):
                statistical_parity_gap(decisions, pop, "group")

    def test_missing_attribute_rejected(self):
        pop = Population(("a", "b"))
        decisions = _decisions({"a": 1, "b": 0})
        with pytest.raises(InputError):
            statistical_parity_gap(decisions, pop, "group")


class TestDistanceTable:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: ObjectiveDistanceTable({(1, "x"): 0.1}),
            lambda: ObjectiveDistanceTable({("x", "y"): 0.1}, {(1, "x", "y"): 0.1}),
            lambda: BaselineInputs({1: 0.9, "x": 0.2}, ObjectiveDistanceTable({})),
        ],
        ids=["distance", "override", "score"],
    )
    def test_ids_that_are_not_strings_are_refused(self, build):
        # a coerced 1 would name the id "1", and comparing 1 with "x" to
        # sort a pair would raise a bare TypeError
        with pytest.raises(InputError, match="expected an id string, got 1"):
            build()

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: ObjectiveDistanceTable({("x", "y"): 0.5, ("y", "x"): 2.0}),
                r"second distance for the pair \(y, x\)",
            ),
            (
                lambda: ObjectiveDistanceTable(
                    {("x", "y"): 0.5}, {("x", "x", "y"): 0.1, ("x", "y", "x"): 0.2}
                ),
                r"second override by 'x' for the pair \(y, x\)",
            ),
            (
                lambda: ObjectiveDistanceTable({("x", "y"): 0.5}, {("u", "x", "y"): 0.1}),
                r"observer 'u' is not a party to the pair \(x, y\)",
            ),
            (
                lambda: BaselineInputs({"x": float("nan")}, ObjectiveDistanceTable({})),
                "expected a finite score, got nan",
            ),
            (
                lambda: BaselineInputs({"x": 0.0, "y": 1.0}, ObjectiveDistanceTable({})),
                r"no distance recorded for scored pair \(x, y\)",
            ),
        ],
        ids=["pair-twice", "override-twice", "override-by-a-non-party", "nan-score", "no-distance"],
    )
    def test_tables_a_run_file_cannot_state_are_refused(self, build, message):
        # the repeated key kept only its last value; the others were written
        # by dumps_run and refused by loads_run
        with pytest.raises(InputError, match=message):
            build()

    def test_pairs_are_stored_sorted(self):
        table = ObjectiveDistanceTable({("y", "x"): 0.3}, {("y", "y", "x"): 1})
        assert table.entries == {("x", "y"): 0.3}
        assert table.subjective_overrides == {("y", "x", "y"): 1.0}
        assert type(table.subjective_overrides[("y", "x", "y")]) is float

    def test_override_falls_back_to_objective(self):
        # y states no distance of its own, so y perceives the objective one
        scores = {"x": 0.5, "y": 0.7}
        table = ObjectiveDistanceTable({("x", "y"): 0.3}, {("x", "x", "y"): 0.1})
        assert table.subjective_overrides == {("x", "x", "y"): 0.1}
        assert _subjective(scores, table) == [("x", ("x", "y"), pytest.approx(0.2), 0.1)]


def _restated_checks(scores, distances, overrides):
    """Both IF checks as the definitions state them, over tables keyed by
    unordered pair: (objective, subjective) violations as plain tuples."""
    def d(*pair):
        return distances[frozenset(pair)]

    ids = sorted(scores)
    objective, subjective = [], []
    for i, x in enumerate(ids):
        for y in ids[i + 1:]:
            gap = abs(scores[x] - scores[y])
            if gap > d(x, y) + GAP_TOLERANCE:
                objective.append(((x, y), gap, d(x, y)))
            for observer in (x, y):
                perceived = overrides.get((observer, frozenset((x, y))), d(x, y))
                if gap > perceived + GAP_TOLERANCE:
                    subjective.append((observer, (x, y), gap, perceived))
    return objective, subjective


class TestAgainstRestatedDefinition:
    """Both checks against the definitions restated above, on random
    tables with about 10 % of pairs overridden and keys in either order."""

    @staticmethod
    def _instance(rng):
        n = rng.randint(2, 60)
        ids = [f"p{k:02d}" for k in rng.sample(range(100), n)]
        scores = {i: round(rng.random(), 2) for i in ids}
        distances, overrides = {}, {}
        table, table_overrides = {}, {}
        for x, y in itertools.combinations(ids, 2):
            key = (x, y) if rng.random() < 0.5 else (y, x)
            distances[frozenset(key)] = table[key] = round(rng.random(), 2)
            if rng.random() < 0.1:
                observer = rng.choice(key)
                d = round(rng.random(), 2)
                overrides[(observer, frozenset(key))] = table_overrides[(observer, *key)] = d
        return scores, distances, overrides, ObjectiveDistanceTable(table, table_overrides)

    def test_both_checks_match_the_definition(self):
        rng = random.Random(83)
        observers = set()
        for _ in range(30):
            scores, distances, overrides, table = self._instance(rng)
            objective, subjective = _restated_checks(scores, distances, overrides)
            assert _objective(scores, table) == objective
            assert _subjective(scores, table) == subjective
            observers |= {
                "first" if observer == min(pair) else "second" for observer, pair in overrides
            }
        # the overrides reached both the first and the second party of a pair
        assert observers == {"first", "second"}

    def test_missing_pair_is_named(self):
        rng = random.Random(89)
        for _ in range(30):
            scores, _, _, table = self._instance(rng)
            missing = rng.choice(sorted(table.entries))
            entries = {pair: d for pair, d in table.entries.items() if pair != missing}
            broken = ObjectiveDistanceTable(entries, table.subjective_overrides)
            with pytest.raises(InputError, match=rf"pair \({missing[0]}, {missing[1]}\)"):
                BaselineInputs(scores, broken)


def _mixed_table(rng):
    """Scores and a table with what the one-walk checks must skip or
    reorder: pairs inserted in shuffled order, keyed either way round, table
    ids with no score, self pairs, and overrides on unscored pairs and self
    pairs, below, at and above the pair's distance."""
    ids = [f"p{k:02d}" for k in rng.sample(range(100), rng.randint(2, 40))]
    scored = ids[: rng.randint(0, len(ids))]
    scores = {i: rng.randint(0, 10) / 10 for i in scored}
    rows = [((x, y), rng.randint(0, 10) / 10) for x, y in itertools.combinations(ids, 2)]
    rows += [((x, x), rng.randint(0, 10) / 10) for x in rng.sample(ids, len(ids) // 4)]
    rng.shuffle(rows)
    entries, overrides = {}, {}
    for (x, y), d in rows:
        key = (x, y) if rng.random() < 0.5 else (y, x)
        entries[key] = d
        if rng.random() < 0.2:
            perceived = max(0.0, d + rng.choice([-0.3, -0.1, 0.0, 0.1, 0.3]))
            overrides[(rng.choice(key), *key)] = perceived
    return scores, ObjectiveDistanceTable(entries, overrides)


class TestAgainstPairByPairReference:
    """Both one-walk checks against ``helpers.if_checks_by_pair``."""

    def test_both_checks_match_the_reference(self):
        rng = random.Random(97)
        seen = dict.fromkeys(["unscored", "self", "override-unscored", "flags", "clears"], 0)
        for _ in range(200):
            scores, table = _mixed_table(rng)
            objective, subjective = if_checks_by_pair(scores, table)
            assert _objective(scores, table) == objective
            assert _subjective(scores, table) == subjective
            seen["unscored"] += not {x for pair in table.entries for x in pair} <= scores.keys()
            seen["self"] += any(x == y for x, y in table.entries)
            seen["override-unscored"] += any(
                not {x, y} <= scores.keys() for _, x, y in table.subjective_overrides
            )
            # an override below d flags a pair the objective check passes;
            # one above the gap clears a party of an objective violation
            pairs = {pair for pair, _, _ in objective}
            objective_pair = [pair in pairs for _, pair, _, _ in subjective]
            seen["flags"] += not all(objective_pair)
            seen["clears"] += sum(objective_pair) < 2 * len(objective)
        # the tables reached every case the walk skips or reads an override for
        assert all(seen.values()), seen

    def test_missing_pair_raises_as_the_reference_does(self):
        rng = random.Random(101)
        refused = 0
        for _ in range(200):
            scores, table = _mixed_table(rng)
            scored_pairs = [p for p in table.entries if p[0] != p[1] and set(p) <= scores.keys()]
            if not scored_pairs:
                continue
            gone = set(rng.sample(scored_pairs, rng.randint(1, len(scored_pairs))))
            entries = {p: d for p, d in table.entries.items() if p not in gone}
            broken = ObjectiveDistanceTable.adopt(entries, table.subjective_overrides)
            with pytest.raises(InputError) as expected:
                if_checks_by_pair(scores, broken)
            with pytest.raises(InputError) as raised:
                BaselineInputs(scores, broken)
            named = [re.search(r"pair \(.*\)$", str(e.value))[0] for e in (raised, expected)]
            assert named[0] == named[1]
            refused += 1
        assert refused > 100


def test_subjective_check_reads_only_the_overrides_that_exist():
    # work gate by counted reads: two per objective violation and one per
    # override, not two per scored pair
    rng = random.Random(7)
    ids = [f"p{k:02d}" for k in range(60)]
    scores = {i: rng.random() for i in ids}
    entries = {pair: rng.random() for pair in itertools.combinations(ids, 2)}
    overrides = {
        (rng.choice(pair), *pair): rng.random() for pair in entries if rng.random() < 0.1
    }
    counting = CountingMapping(overrides)
    baseline = BaselineInputs(scores, ObjectiveDistanceTable.adopt(entries, counting))
    counting.reads = 0
    objective = dwork_if_check(baseline)
    subjective = subjective_if_check(baseline, objective)
    assert 0 < counting.reads <= 2 * len(objective) + len(overrides) < 2 * len(entries)
    reference = ObjectiveDistanceTable.adopt(entries, overrides)
    assert (objective, subjective) == if_checks_by_pair(scores, reference)
