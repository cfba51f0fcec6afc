"""Classical fairness auditors for comparison.

Two individual-fairness checks over ``BaselineInputs``, which refuses a
scored pair with no distance -- one against an objective symmetric
distance, one against each observer's own perceived distance -- plus a
group-level statistical parity gap over final decisions. The outcome
metric is the absolute score difference throughout. The checks give
their findings as plain tuples, in the order the report lists them. The
objective check walks the stored pairs once and the subjective check
starts from its findings, so the pairs are walked once for both; each
sorts only what it finds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from .core import InputError, Population, as_floats

#: Absolute slack for gap-vs-distance comparisons, so float rounding noise
#: (e.g. |0.85 - 0.90| landing a few ulp above 0.05) never flags a pair.
GAP_TOLERANCE = 1e-9


def check_ids(ids: Iterable[Any]) -> None:
    """Refuse any id that is not a string: a coerced ``1`` would name ``"1"``."""
    for i in ids:
        if not isinstance(i, str):
            raise InputError(f"expected an id string, got {i!r}")


def check_scores(scores: Mapping[str, float]) -> dict[str, float]:
    """``scores`` as floats; refuses an id that is not a string and a score
    that is not finite or too large for a float."""
    check_ids(scores)
    floats = as_floats(scores, "score {}".format)
    for v in floats.values():
        if not math.isfinite(v):
            raise InputError(f"expected a finite score, got {v}")
    return floats


def add_distances(table: dict, items: Iterable[tuple[tuple[str, ...], float]]) -> None:
    """Store each ``(key, d)`` of ``items`` in ``table``, the key ``(x, y)``
    or ``(observer, x, y)`` with its pair sorted, as an
    ``ObjectiveDistanceTable`` keeps it.

    Refuses an id that is not a string, a distance that is not >= 0 (NaN
    included: no score gap compares above it, so it would hide a pair) or
    too large for a float, an observer who is not a party to the pair, and
    a key that ``table`` already holds in either order.
    """
    for key, d in items:
        check_ids(key)
        x, y = key[-2], key[-1]
        if not d >= 0:
            raise InputError(f"distance must be >= 0, got {d}")
        if len(key) == 3 and key[0] != x and key[0] != y:
            raise InputError(f"observer {key[0]!r} is not a party to the pair ({x}, {y})")
        stored = key if x <= y else (*key[:-2], y, x)
        if stored in table:
            raise InputError(
                f"second override by {key[0]!r} for the pair ({x}, {y})"
                if len(key) == 3
                else f"second distance for the pair ({x}, {y})"
            )
        try:
            table[stored] = float(d)
        except OverflowError:
            by = f" by {key[0]!r}" if len(key) == 3 else ""
            raise InputError(f"distance for ({x}, {y}){by}: too large for a float") from None


@dataclass(frozen=True)
class ObjectiveDistanceTable:
    """Symmetric pairwise distances, optionally overridden per observer.

    ``entries`` maps each unordered pair, keyed in sorted order, to its
    objective distance. ``subjective_overrides`` maps (observer, x, y), pair
    sorted too, to the distance that observer, a party to the pair,
    perceives: the parties may disagree. Each key is given once, in either
    order (``add_distances``).
    """

    entries: Mapping[tuple[str, str], float]
    subjective_overrides: Mapping[tuple[str, str, str], float] | None = None

    def __post_init__(self) -> None:
        for name in ("entries", "subjective_overrides"):
            table: dict[tuple[str, ...], float] = {}
            add_distances(table, (getattr(self, name) or {}).items())
            object.__setattr__(self, name, table)

    @classmethod
    def adopt(
        cls,
        entries: dict[tuple[str, str], float],
        subjective_overrides: dict[tuple[str, str, str], float],
    ) -> "ObjectiveDistanceTable":
        """A table that keeps ``entries`` and ``subjective_overrides``
        themselves, as the constructor would have made them: pairs keyed in
        sorted order, observers parties to their pairs, distances floats
        >= 0. The constructor's pass over them is skipped, so nothing may
        change them afterwards. The run-file loader builds its tables so."""
        table = cls.__new__(cls)
        object.__setattr__(table, "entries", entries)
        object.__setattr__(table, "subjective_overrides", subjective_overrides)
        return table


@dataclass(frozen=True)
class BaselineInputs:
    """Optional inputs for the classical baseline auditors: finite scores
    (``check_scores``), and a distance for every pair of scored people, the
    one place a missing one is refused. ``ids`` is every id the scores,
    distances and overrides name, gathered once here.
    """

    scores: Mapping[str, float]
    distances: ObjectiveDistanceTable
    ids: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        scores = check_scores(self.scores)
        entries = self.distances.entries
        pairs = itertools.combinations(sorted(scores), 2)
        missing = next(itertools.filterfalse(entries.__contains__, pairs), None)
        if missing is not None:
            raise InputError(f"no distance recorded for scored pair ({missing[0]}, {missing[1]})")
        object.__setattr__(self, "scores", scores)
        overrides = self.distances.subjective_overrides
        object.__setattr__(self, "ids", frozenset(scores).union(*entries, *overrides))


def dwork_if_check(baseline: BaselineInputs) -> list[tuple[tuple[str, str], float, float]]:
    """Individual-fairness check against the objective distance: a pair
    (x, y) of scored people violates when |score(x) - score(y)| > d(x, y).
    Each violation is ``(pair, score gap, distance)``, pair sorted, in pair
    order.

    One walk over the stored pairs, keeping those of two distinct scored
    people; only the violations are sorted.
    """
    scores = baseline.scores
    violations = []
    for pair, d in baseline.distances.entries.items():
        x, y = pair
        if x in scores and y in scores and x != y:
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
    no override, and each override on a pair of scored people counts when
    the gap exceeds it (never on a self pair, whose gap is 0).
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
        if x in scores and y in scores:
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
