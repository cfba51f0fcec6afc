"""Classical fairness auditors for comparison.

Two individual-fairness checks over a score mapping -- one against an
objective symmetric distance, one against each observer's own perceived
distance -- plus a group-level statistical parity gap over final decisions.
The outcome metric is the absolute score difference throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .aggregation import binarize
from .core import DecisionVector, InputError, Population

ScoreMapping = Mapping[str, float]

#: Absolute slack for gap-vs-distance comparisons, so float rounding noise
#: (e.g. |0.85 - 0.90| landing a few ulp above 0.05) never flags a pair.
GAP_TOLERANCE = 1e-9


def _pair_key(x: str, y: str) -> tuple[str, str]:
    return (x, y) if x <= y else (y, x)


@dataclass(frozen=True)
class ObjectiveDistanceTable:
    """Symmetric pairwise distances, optionally overridden per observer.

    ``entries`` holds the objective distance for each unordered pair.
    ``subjective_overrides`` maps (observer, x, y) to the distance that
    observer perceives for the pair; overrides may break symmetry since
    the two parties of a pair can disagree.
    """

    entries: Mapping[tuple[str, str], float]
    subjective_overrides: Mapping[tuple[str, str, str], float] | None = None

    def __post_init__(self) -> None:
        normalized = {}
        for (x, y), d in self.entries.items():
            if not d >= 0:
                raise InputError(f"distance d({x},{y}) must be >= 0, got {d}")
            normalized[_pair_key(x, y)] = float(d)
        object.__setattr__(self, "entries", normalized)
        overrides = {}
        for (observer, x, y), d in (self.subjective_overrides or {}).items():
            if not d >= 0:
                raise InputError(
                    f"distance d_{observer}({x},{y}) must be >= 0, got {d}"
                )
            overrides[(observer,) + _pair_key(x, y)] = float(d)
        object.__setattr__(self, "subjective_overrides", overrides)

    def distance(self, x: str, y: str) -> float:
        try:
            return self.entries[_pair_key(x, y)]
        except KeyError:
            raise InputError(f"no distance recorded for pair ({x}, {y})") from None

    def perceived_distance(self, observer: str, x: str, y: str) -> float:
        """The observer's own distance for the pair; objective if they
        never stated one."""
        key = (observer,) + _pair_key(x, y)
        if key in self.subjective_overrides:
            return self.subjective_overrides[key]
        return self.distance(x, y)


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


def _score_gap(scores: ScoreMapping, x: str, y: str) -> float:
    for i in (x, y):
        if i not in scores:
            raise InputError(f"no score for {i}")
    return abs(scores[x] - scores[y])


def _all_pairs(scores: ScoreMapping) -> list[tuple[str, str]]:
    return list(itertools.combinations(sorted(scores), 2))


def dwork_if_check(
    scores: ScoreMapping,
    distances: ObjectiveDistanceTable,
    pairs: Iterable[tuple[str, str]] | None = None,
) -> list[PairViolation]:
    """Individual-fairness check against the objective distance.

    A pair (x, y) violates when |score(x) - score(y)| > d(x, y). Checks all
    unordered pairs of the score mapping when ``pairs`` is omitted.
    """
    violations = []
    for x, y in pairs if pairs is not None else _all_pairs(scores):
        gap = _score_gap(scores, x, y)
        d = distances.distance(x, y)
        if gap > d + GAP_TOLERANCE:
            violations.append(PairViolation(_pair_key(x, y), gap, d))
    return violations


def subjective_if_check(
    scores: ScoreMapping,
    distances: ObjectiveDistanceTable,
    pairs: Iterable[tuple[str, str]] | None = None,
) -> list[ObserverViolation]:
    """Individual-fairness check against each observer's own distance.

    For every pair, each of its two parties is asked in turn: does the
    score gap exceed the distance *you* perceive? With no overrides this
    reduces to the objective check, reported once per observer.
    """
    violations = []
    for x, y in pairs if pairs is not None else _all_pairs(scores):
        gap = _score_gap(scores, x, y)
        for observer in (x, y):
            perceived = distances.perceived_distance(observer, x, y)
            if gap > perceived + GAP_TOLERANCE:
                violations.append(
                    ObserverViolation(observer, _pair_key(x, y), gap, perceived)
                )
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
    (0.0 with a single group). Every individual must carry the attribute.
    """
    groups: dict[Any, list[float]] = {}
    for individual in pop.individuals:
        attrs = pop.attributes_of(individual)
        if group_attribute not in attrs:
            raise InputError(
                f"individual {individual} has no attribute {group_attribute!r}"
            )
        groups.setdefault(attrs[group_attribute], []).append(
            binarize(decisions[individual]).value
        )
    rates = {g: sum(vs) / len(vs) for g, vs in groups.items()}
    gap = max(rates.values()) - min(rates.values())
    return ParityReport(group_attribute, rates, gap)
