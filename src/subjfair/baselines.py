"""Classical fairness auditors for comparison.

Two individual-fairness checks over a score mapping -- one against an
objective symmetric distance, one against each observer's own perceived
distance -- plus a group-level statistical parity gap over final decisions.
The outcome metric is the absolute score difference throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from .core import DecisionVector, InputError, Population

ScoreMapping = Mapping[str, float]

#: Absolute slack for gap-vs-distance comparisons, so float rounding noise
#: (e.g. |0.85 - 0.90| landing a few ulp above 0.05) never flags a pair.
GAP_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ObjectiveDistanceTable:
    """Symmetric pairwise distances, optionally overridden per observer.

    ``entries`` maps each unordered pair, keyed in sorted order, to its
    objective distance. ``subjective_overrides`` maps (observer, x, y), pair
    sorted too, to the distance that observer perceives: the parties may disagree.
    """

    entries: Mapping[tuple[str, str], float]
    subjective_overrides: Mapping[tuple[str, str, str], float] | None = None

    def __post_init__(self) -> None:
        normalized = {}
        for (x, y), d in self.entries.items():
            if not d >= 0:
                raise InputError(f"distance d({x},{y}) must be >= 0, got {d}")
            normalized[(x, y) if x <= y else (y, x)] = float(d)
        object.__setattr__(self, "entries", normalized)
        overrides = {}
        for (observer, x, y), d in (self.subjective_overrides or {}).items():
            if not d >= 0:
                raise InputError(f"distance d_{observer}({x},{y}) must be >= 0, got {d}")
            overrides[(observer, x, y) if x <= y else (observer, y, x)] = float(d)
        object.__setattr__(self, "subjective_overrides", overrides)

    @classmethod
    def adopt(
        cls,
        entries: dict[tuple[str, str], float],
        subjective_overrides: dict[tuple[str, str, str], float],
    ) -> "ObjectiveDistanceTable":
        """A table that keeps ``entries`` and ``subjective_overrides``
        themselves, as the constructor would have made them: every pair
        keyed in sorted order and every distance a float >= 0. The
        constructor's pass over them is skipped, so nothing may change them
        afterwards. The run-file loader builds its tables so."""
        table = cls.__new__(cls)
        object.__setattr__(table, "entries", entries)
        object.__setattr__(table, "subjective_overrides", subjective_overrides)
        return table


@dataclass(frozen=True)
class PairViolation:
    """A pair whose score gap exceeds the distance between them."""

    pair: tuple[str, str]
    score_gap: float
    distance: float


@dataclass(frozen=True)
class ObserverViolation:
    """A pair one observer perceives as unfairly treated."""

    observer: str
    pair: tuple[str, str]
    score_gap: float
    perceived_distance: float


def _scored_pairs(
    scores: ScoreMapping, distances: ObjectiveDistanceTable
) -> Iterator[tuple[tuple[str, str], float, float]]:
    """Each sorted pair of scored people once, with its score gap and its
    distance; raises ``InputError`` naming the first pair with no distance."""
    for pair in itertools.combinations(sorted(scores), 2):
        d = distances.entries.get(pair)
        if d is None:
            raise InputError(f"no distance recorded for pair ({pair[0]}, {pair[1]})")
        yield pair, abs(scores[pair[0]] - scores[pair[1]]), d


def dwork_if_check(
    scores: ScoreMapping, distances: ObjectiveDistanceTable
) -> list[PairViolation]:
    """Individual-fairness check against the objective distance: a pair
    (x, y) of scored people violates when |score(x) - score(y)| > d(x, y)."""
    return [
        PairViolation(pair, gap, d)
        for pair, gap, d in _scored_pairs(scores, distances)
        if gap > d + GAP_TOLERANCE
    ]


def subjective_if_check(
    scores: ScoreMapping, distances: ObjectiveDistanceTable
) -> list[ObserverViolation]:
    """Individual-fairness check against each observer's own distance.

    For every pair, each of its two parties is asked in turn: does the
    score gap exceed the distance *you* perceive? A party who never stated
    one perceives the objective distance, so with no overrides this
    reduces to the objective check, reported once per observer.
    """
    overrides = distances.subjective_overrides
    violations = []
    for pair, gap, d in _scored_pairs(scores, distances):
        for observer in pair:
            perceived = overrides.get((observer, *pair), d)
            if gap > perceived + GAP_TOLERANCE:
                violations.append(ObserverViolation(observer, pair, gap, perceived))
    return violations


@dataclass(frozen=True)
class ParityReport:
    """Positive-decision rate per group and the max pairwise gap."""

    attribute: str
    rates: Mapping[Any, float]
    gap: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "rates", dict(self.rates))


def statistical_parity_gap(
    decisions: DecisionVector, pop: Population, group_attribute: str
) -> ParityReport:
    """Positive-decision rate per value of ``group_attribute``.

    The gap is the difference between the best- and worst-treated group
    (0.0 with a single group). Every individual must carry the attribute, and
    two values must be equal exactly when they print alike, as reports print the keys.
    """
    groups: dict[Any, list[int]] = {}
    by_value: dict[Any, Any] = {}
    by_print: dict[str, Any] = {}
    for individual in pop.individuals:
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
        groups.setdefault(value, []).append(decisions[individual].value)
    rates = {g: sum(vs) / len(vs) for g, vs in groups.items()}
    gap = max(rates.values()) - min(rates.values())
    return ParityReport(group_attribute, rates, gap)
