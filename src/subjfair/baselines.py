"""Classical fairness auditors for comparison.

Two individual-fairness checks over ``BaselineInputs``, whose table holds
exactly one distance per pair of scored people -- one against an
objective symmetric distance, one against each observer's own perceived
distance -- plus a group-level statistical parity gap over final
decisions. The outcome metric is the absolute score difference
throughout. The checks give their findings as plain tuples, in the order
the report lists them. The objective check walks the stored pairs once
and the subjective check starts from its findings, so the pairs are
walked once for both; each sorts only what it finds.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping, Sequence
from typing import Any

from .core import InputError, Population, Value, as_floats, check_ids, number

#: Absolute slack for gap-vs-distance comparisons, so float rounding noise
#: (e.g. |0.85 - 0.90| landing a few ulp above 0.05) never flags a pair.
GAP_TOLERANCE = 1e-9


def check_scores(scores: Mapping[str, float]) -> dict[str, float]:
    """``scores`` as floats (``as_floats``); refuses an id that is not a
    string and a score that is not finite."""
    if not isinstance(scores, Mapping):
        raise InputError("expected a mapping", ("scores",), "scores")
    check_ids(scores, ("scores",))
    floats = as_floats(scores, "score {}".format, ("scores",))
    for i, v in floats.items():
        if not math.isfinite(v):
            raise InputError(f"expected a finite score, got {v}", ("scores", i), f"score {i}")
    return floats


#: The layout of a row of each of the two maps of ``ObjectiveDistanceTable``.
_LAYOUTS = {"entries": "[x, y, distance]", "subjective_overrides": "[observer, x, y, distance]"}


def add_distances(rows: Sequence[Any], name: str) -> tuple[dict[tuple, float], frozenset[str]]:
    """The rows of ``ObjectiveDistanceTable``'s map ``name`` in the run
    file's layout (``_LAYOUTS``), keyed as the table keeps them:
    ``(x, y)`` or ``(observer, x, y)`` with the pair sorted, ``d`` a float;
    and the set of the ids they name.

    Refuses a row of another layout, an id that is not a string, a pair of
    one person, a distance that is not one (``_distance``), an observer who
    is not a party to the pair, and a key given twice, in either order. One
    pass keys every row of two people with a float >= 0: on ``dense_report``,
    best of 30 on a 2-core x86 with Python 3.11, 5.2 ms, not 23.8 ms row by
    row, for the 19,900 pairs of its table built in code, and 0.63, not 2.4
    ms, for the 1,950 override rows of its file. Only if it keys fewer rows
    than it reads, or an id is no string, are they read again one by one, to
    convert a distance or to refuse the first faulty row at ``(name, index)``.
    """
    if not isinstance(rows, (list, tuple)):
        raise InputError("expected a list of rows", (name,), name)
    try:
        if name == "entries":
            table = {
                (x, y) if x < y else (y, x): d
                for x, y, d in rows
                if type(d) is float and d >= 0 and x != y
            }
        else:
            table = {
                (o, x, y) if x < y else (o, y, x): d
                for o, x, y, d in rows
                if type(d) is float and d >= 0 and o in (x, y) and x != y
            }
        if len(table) == len(rows):
            ids = frozenset().union(*table)
            check_ids(ids)
            return table, ids
    except (TypeError, ValueError):  # no row of the layout, or an id that is no string
        pass
    table = {}
    for idx, row in enumerate(rows):
        try:
            _add_row(table, row, name)
        except InputError as exc:
            raise InputError(str(exc), (name, idx)) from None
    return table, frozenset().union(*table)


def _add_row(table: dict[tuple[str, ...], float], row: Any, name: str) -> None:
    """Store one row of ``add_distances`` in ``table``, or refuse it."""
    if not (isinstance(row, (list, tuple)) and len(row) == (3 if name == "entries" else 4)):
        raise InputError(f"expected {_LAYOUTS[name]}")
    *key, d = row
    check_ids(key)
    x, y = key[-2], key[-1]
    if x == y:
        raise InputError(f"the pair ({x}, {y}) names one person twice")
    by = f" by {key[0]!r}" if len(key) == 3 else ""
    d = _distance(d, f"distance for ({x}, {y}){by}")
    if by and key[0] != x and key[0] != y:
        raise InputError(f"observer {key[0]!r} is not a party to the pair ({x}, {y})")
    stored = (*key[:-2], x, y) if x < y else (*key[:-2], y, x)
    if stored in table:
        second = f"override{by}" if by else "distance"
        raise InputError(f"second {second} for the pair ({x}, {y})")
    table[stored] = d


def _distance(value: Any, name: str) -> float:
    """``value`` as a distance named ``name``: a number (``number``) >= 0.
    NaN is refused too: no score gap compares above it, so it would hide a
    pair."""
    d = number(value, name=name)
    if not d >= 0:
        raise InputError(f"must be >= 0, got {d}", name=name)
    return d


def _condensed(distances: Any, ids: Sequence[str]) -> dict[tuple[str, str], float]:
    """The entries of ``distances``, a list of one distance per pair of
    ``ids`` (sorted), in ``itertools.combinations`` order, keyed by pair.
    Three C-level scans (types, least value, sum) pass a list of floats
    >= 0 as it is; only else is each value read (``_distance``), and the
    first that is not a distance refused at ``("entries", index)``, naming
    its pair."""
    if not isinstance(distances, (list, tuple)):
        raise InputError("expected a list of distances", ("entries",), "entries")
    count = len(ids) * (len(ids) - 1) // 2
    if len(distances) != count:
        raise InputError(
            f"expected {count} distances, one per pair of scored people, got {len(distances)}",
            ("entries",),
        )
    if not (
        {float}.issuperset(map(type, distances))
        and min(distances, default=0.0) >= 0
        and not math.isnan(sum(distances))  # ``min`` may pass over a NaN
    ):
        column = []
        for idx, ((x, y), d) in enumerate(zip(itertools.combinations(ids, 2), distances)):
            try:
                column.append(_distance(d, f"distance for ({x}, {y})"))
            except InputError as exc:
                raise InputError(str(exc), ("entries", idx)) from None
        distances = column
    return dict(zip(itertools.combinations(ids, 2), distances))


class ObjectiveDistanceTable(Value):
    """Symmetric pairwise distances, optionally overridden per observer.

    ``entries`` maps each unordered pair of two people, keyed in sorted
    order, to its objective distance. ``subjective_overrides`` maps
    (observer, x, y), pair sorted too, to the distance that observer, a
    party to the pair, perceives: the parties may disagree. Each key is
    given once, in either order. Both are checked and keyed by
    ``add_distances``, as rows ``(*key, distance)``; ``from_rows`` takes
    the rows of a ``subjfair-run/1`` file.
    """

    _fields = ("entries", "subjective_overrides")
    entries: Mapping[tuple[str, str], float]
    subjective_overrides: Mapping[tuple[str, str, str], float]
    #: Every id the distances and overrides name, gathered once here.
    ids: frozenset[str]

    def __init__(
        self, entries: Mapping[tuple, float], subjective_overrides: Mapping | None = None
    ) -> None:
        override_map = {} if subjective_overrides is None else subjective_overrides
        for name, rows in (("entries", entries), ("subjective_overrides", override_map)):
            if not isinstance(rows, Mapping):
                raise InputError("expected a mapping", (name,), name)
        # a key that is no tuple makes a row of one id, which is refused
        distances, overrides = (
            [(*key, d) if isinstance(key, tuple) else (key, d) for key, d in rows.items()]
            for rows in (entries, override_map)
        )
        self._keep(*add_distances(distances, "entries"), overrides)

    @classmethod
    def from_rows(
        cls, distances: Sequence[Any], overrides: Sequence[Any] = ()
    ) -> ObjectiveDistanceTable:
        """The table of a run file's ``distances`` and ``overrides`` rows,
        checked as the constructor checks its maps, with no map in between."""
        table = cls.__new__(cls)
        table._keep(*add_distances(distances, "entries"), overrides)
        return table

    def _keep(
        self, entries: dict[tuple[str, str], float], ids: frozenset[str], overrides: Sequence[Any]
    ) -> None:
        """Store ``entries``, which name ``ids``, and the ``overrides`` rows."""
        overrides, observed = add_distances(overrides, "subjective_overrides")
        self._set(entries=entries, subjective_overrides=overrides, ids=ids | observed)


class BaselineInputs(Value):
    """Optional inputs for the classical baseline auditors: finite scores
    (``check_scores``), and a table that holds one distance for each pair
    of two scored people and no other, and overrides only on those pairs.

    A row that names someone with no score is refused at its index in the
    table, ``("entries", i)`` or ``("subjective_overrides", i)``, and then
    a scored pair with no distance at ``distances``, the first in sorted
    order. As the table holds no pair of one person and no pair twice, its
    ids all scored and its k(k-1)/2 pairs for k scores prove it complete,
    in O(k): no pair is looked up. ``from_condensed`` takes the
    ``subjfair-run/2`` layout of the distances, one per pair.
    """

    _fields = ("scores", "distances")
    scores: Mapping[str, float]
    distances: ObjectiveDistanceTable

    def __init__(self, scores: Mapping[str, float], distances: ObjectiveDistanceTable) -> None:
        scores = check_scores(scores)
        if not isinstance(distances, ObjectiveDistanceTable):
            raise InputError("expected an ObjectiveDistanceTable", ("distances",), "distances")
        self._keep(scores, distances)

    @classmethod
    def from_condensed(
        cls, scores: Mapping[str, float], distances: Sequence[Any], overrides: Sequence[Any] = ()
    ) -> BaselineInputs:
        """The inputs of ``scores``, one distance per pair of scored people
        in ``itertools.combinations(sorted(scores), 2)`` order (the condensed
        upper triangle, as ``scipy.spatial.distance.pdist`` lays it out;
        ``_condensed``) and ``overrides`` rows (``add_distances``)."""
        scores = check_scores(scores)
        ids = sorted(scores)
        table = ObjectiveDistanceTable.__new__(ObjectiveDistanceTable)
        table._keep(_condensed(distances, ids), frozenset(ids if len(ids) > 1 else ()), overrides)
        baseline = cls.__new__(cls)
        baseline._keep(scores, table)
        return baseline

    def condensed(self) -> list[float]:
        """The distances in ``from_condensed``'s order, its inverse: one per
        pair of scored people, as ``subjfair-run/2`` writes them."""
        pairs = itertools.combinations(sorted(self.scores), 2)
        return list(map(self.distances.entries.__getitem__, pairs))

    def _keep(self, scores: dict[str, float], table: ObjectiveDistanceTable) -> None:
        k = len(scores)
        if not (table.ids <= scores.keys() and len(table.entries) == k * (k - 1) // 2):
            _refuse_incomplete(scores, table)
        self._set(scores=scores, distances=table)


def _refuse_incomplete(scores: Mapping[str, float], table: ObjectiveDistanceTable) -> None:
    """Refuse the first row of ``table`` that names someone with no score,
    else the first pair of scored people with no distance."""
    for name in ("entries", "subjective_overrides"):
        for idx, key in enumerate(getattr(table, name)):
            unscored = next((i for i in key if i not in scores), None)
            if unscored is not None:
                pair = f"({key[-2]}, {key[-1]})"
                raise InputError(f"{unscored!r} of the pair {pair} has no score", (name, idx))
    pairs = itertools.combinations(sorted(scores), 2)
    x, y = next(itertools.filterfalse(table.entries.__contains__, pairs))
    raise InputError(f"no distance recorded for scored pair ({x}, {y})", ("distances",))


def dwork_if_check(baseline: BaselineInputs) -> list[tuple[tuple[str, str], float, float]]:
    """Individual-fairness check against the objective distance: a pair
    (x, y) of scored people violates when |score(x) - score(y)| > d(x, y).
    Each violation is ``(pair, score gap, distance)``, pair sorted, in pair
    order.

    One walk over the stored pairs, each of two scored people
    (``BaselineInputs``); only the violations are sorted.
    """
    scores = baseline.scores
    violations = []
    for pair, d in baseline.distances.entries.items():
        x, y = pair
        gap = abs(scores[x] - scores[y])
        if gap > d + GAP_TOLERANCE:
            violations.append((pair, gap, d))
    violations.sort()
    return violations


def subjective_if_check(
    baseline: BaselineInputs, objective: Sequence[tuple[tuple[str, str], float, float]]
) -> list[tuple[str, tuple[str, str], float, float]]:
    """Individual-fairness check against each observer's own distance.

    For every pair, each of its two parties is asked in turn: does the
    score gap exceed the distance *you* perceive? A party who never stated
    one perceives the objective distance, so with no overrides this
    reduces to the objective check, reported once per observer. Each
    violation is ``(observer, pair, score gap, perceived distance)``, in
    pair order, then observer order.

    ``objective`` is what ``dwork_if_check(baseline)`` returned, so the
    stored pairs are not walked again, and the overrides are read only
    where they exist: each objective violation counts for each party with
    no override, and each override counts when the gap exceeds it.
    """
    scores = baseline.scores
    overrides = baseline.distances.subjective_overrides
    violations = []
    for pair, gap, d in objective:
        x, y = pair
        if (x, x, y) not in overrides:
            violations.append((x, pair, gap, d))
        if (y, x, y) not in overrides:
            violations.append((y, pair, gap, d))
    for (observer, x, y), perceived in overrides.items():
        gap = abs(scores[x] - scores[y])
        if gap > perceived + GAP_TOLERANCE:
            violations.append((observer, (x, y), gap, perceived))
    violations.sort(key=lambda v: (v[1], v[0]))
    return violations


def statistical_parity_gap(
    labels: Sequence[int], pop: Population, group_attribute: str
) -> tuple[dict[Any, float], float]:
    """Positive-decision rate per value of ``group_attribute``, and the gap.

    ``labels`` holds one 0/1 decision per person of ``pop``, by position
    (else InputError).
    The gap is the difference between the best- and worst-treated group
    (0.0 with a single group). Every individual must carry the attribute, and
    two values must be equal exactly when they print alike, as reports print the keys.
    """
    if len(labels) != len(pop):
        raise InputError("decisions must hold one label per person")
    groups: dict[Any, list[int]] = {}
    by_value: dict[Any, Any] = {}
    by_print: dict[str, Any] = {}
    for individual, label in zip(pop.individuals, labels):
        attrs = pop.attributes_of(individual)
        if group_attribute not in attrs:
            raise InputError(
                f"individual {individual} has no attribute {group_attribute!r}"
            )
        value = attrs[group_attribute]
        # ``True`` and ``1`` would share one group, ``1`` and ``"1"`` one key.
        for other in (by_value.setdefault(value, value), by_print.setdefault(str(value), value)):
            if other is not value and (other != value or str(other) != str(value)):
                raise InputError(
                    f"attribute {group_attribute!r} has values {other!r} and {value!r}, "
                    "which a report cannot tell apart"
                )
        groups.setdefault(value, []).append(label)
    rates = {g: sum(vs) / len(vs) for g, vs in groups.items()}
    return rates, max(rates.values()) - min(rates.values())
