"""Domain types, parameter validation, and input validation.

Everything downstream (clustering, aggregation, auditing) is built on the
types in this module. They and every value downstream, the acceptance ledger
included, are immutable and safe to share across concurrent audit runs. One
derived cache is the exception, and it does not change its holder's value:
the perception table keeps the result of ``validate_population`` for the
population and recommendation vector it last checked, so a loaded run, and
every ``replace`` copy that keeps its population, table and vector, is
validated once.
A recommendation is one number per person, and its kind is stated once
per vector. Past loading, people are known by their index in
``individuals``: the pipeline's labels are plain 0/1 lists by position,
shared and never changed, and ids appear only in the documents written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Any, Callable, Mapping

#: Opaque unique token identifying one individual within a population.
IndividualId = str

#: Opaque token naming the issue under decision; one audit run concerns
#: exactly one purpose.
Purpose = str

#: Recommendation kinds. One vector holds one kind.
BINARY = "binary"
SCORE = "score"

#: Label 1 is the favorable ("good") outcome by convention.
GOOD_LABEL = 1
BAD_LABEL = 0

#: How the perception data was obtained. Informational only; the engine
#: treats every table the same way.
PROVENANCE_TAGS = ("declared", "fitted", "sampled", "dynamic")


class InputError(ValueError):
    """Malformed or incomplete caller-supplied data."""


@dataclass(frozen=True)
class Population:
    """The ordered set of individuals one audit run is about.

    Attributes are optional objective features (group labels for the
    baseline auditors, veto-rule inputs). When present, every covered
    individual must carry the same attribute keys.
    """

    individuals: tuple[IndividualId, ...]
    attributes: Mapping[IndividualId, Mapping[str, Any]] | None = None
    #: Each id's position, its index in ``individuals``.
    positions: Mapping[IndividualId, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "individuals", tuple(self.individuals))
        if not self.individuals:
            raise InputError("population must contain at least one individual")
        object.__setattr__(self, "positions", {x: k for k, x in enumerate(self.individuals)})
        if len(self.positions) != len(self.individuals):
            raise InputError("population contains duplicate ids")
        if self.attributes is not None:
            attrs = {i: dict(v) for i, v in self.attributes.items()}
            object.__setattr__(self, "attributes", attrs)
            keysets = set()
            for ind, values in attrs.items():
                if ind not in self.positions:
                    raise InputError(f"attributes reference unknown id {ind!r}")
                keysets.add(frozenset(values))
            if len(keysets) > 1:
                raise InputError("attribute keys differ across individuals")

    def __len__(self) -> int:
        return len(self.individuals)

    def __contains__(self, individual: str) -> bool:
        return individual in self.positions

    @cached_property
    def order(self) -> list[int]:
        """The positions sorted by id: the order every report lists people in."""
        return sorted(range(len(self.individuals)), key=self.individuals.__getitem__)

    def attribute_keys(self) -> frozenset[str]:
        """Attribute keys shared by the covered individuals (empty if none)."""
        if not self.attributes:
            return frozenset()
        first = next(iter(self.attributes.values()))
        return frozenset(first)

    def attributes_of(self, individual: str) -> Mapping[str, Any]:
        if self.attributes is None:
            return {}
        return self.attributes.get(individual, {})


#: The row of an observer who stated nothing.
_NO_ROW: Mapping[IndividualId, float] = MappingProxyType({})


#: The value types a perception row may hold, tested for a whole row in one
#: C-level pass; a row holding any other type is checked value by value.
_PLAIN_NUMBERS = frozenset((float, int))


def as_floats(numbers: Mapping[Any, Any], entry: Callable[[Any], str]) -> dict:
    """``numbers`` with each value as a float. A value too large for a float
    (an int of over 308 digits) is refused with an ``InputError`` naming its
    entry, ``entry(key)``."""
    try:
        return dict(zip(numbers, map(float, numbers.values())))
    except OverflowError:
        for key, value in numbers.items():
            try:
                float(value)
            except OverflowError:
                raise InputError(f"{entry(key)}: too large for a float") from None
        raise


def _similarities(observer: IndividualId, row: Mapping[IndividualId, Any]) -> dict:
    """``row`` with each value as a float. A bool, a value that is no number
    or an int too large for a float is refused with an ``InputError`` naming
    its entry; a subclass of int or float other than bool is a number."""
    values = row.values()
    types = set(map(type, values))
    if types == {float}:
        # float(x) is x itself for an exact float, so a copy is the row.
        return dict(row)
    if not types <= _PLAIN_NUMBERS:
        for target, value in row.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InputError(f"sim({observer},{target}): expected a number, got {value!r}")
    return as_floats(row, lambda target: f"sim({observer},{target})")


def _check_provenance(provenance: str) -> None:
    if provenance not in PROVENANCE_TAGS:
        raise InputError(f"provenance must be one of {PROVENANCE_TAGS}, got {provenance!r}")


@dataclass(frozen=True)
class PerceptionTable:
    """Per-observer, non-symmetric similarity scores over the population.

    ``rows[observer][target]`` is how similar *observer* rates *target* to
    themself, in [0, 1]: each row is one person's own statement, and the
    rows are the only form the table keeps. Missing entries read as 0.0 (no
    perceived similarity), which keeps input files sparse. Symmetry is not
    required and not assumed anywhere: ``sim(x, z)`` and ``sim(z, x)`` are
    independent opinions. The constructor stores every value as a float and
    refuses a bool or a value that is no number.
    """

    rows: Mapping[IndividualId, Mapping[IndividualId, float]]
    provenance: str = "declared"
    #: A derived cache, not part of the table's value: ``validate_population``
    #: keeps here the population and recommendation vector it last checked
    #: against this table, by identity, with its result.
    validated: Any = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_provenance(self.provenance)
        # An empty row states nothing, so it is not kept.
        object.__setattr__(
            self,
            "rows",
            {
                observer: _similarities(observer, row)
                for observer, row in self.rows.items()
                if row
            },
        )

    @classmethod
    def adopt(
        cls, rows: dict[IndividualId, dict[IndividualId, float]], provenance: str = "declared"
    ) -> "PerceptionTable":
        """A table that keeps ``rows`` themselves, as the constructor would
        have made them: no row empty and every value a float. The
        constructor's copy is skipped, so nothing may change the rows
        afterwards. The run-file loader builds its rows so."""
        _check_provenance(provenance)
        table = cls.__new__(cls)
        object.__setattr__(table, "rows", rows)
        object.__setattr__(table, "provenance", provenance)
        return table

    @property
    def entries(self) -> Mapping[tuple[IndividualId, IndividualId], float]:
        """Read-only ``{(observer, target): value}`` view, built from the
        rows on each access. The engine itself never builds it."""
        return MappingProxyType(
            {
                (observer, target): value
                for observer, row in self.rows.items()
                for target, value in row.items()
            }
        )

    def similarity(self, observer: str, target: str) -> float:
        """How similar ``observer`` rates ``target``; 0.0 when unstated."""
        return self.rows.get(observer, _NO_ROW).get(target, 0.0)

    def as_rows(self) -> dict[str, dict[str, float]]:
        """A copy of the rows, ``{observer: {target: value}}``."""
        return {observer: dict(row) for observer, row in self.rows.items()}


def _recommendation(value: Any, kind: str) -> float:
    """One recommendation as a vector of ``kind`` stores it: a binary label
    as the int 0 or 1, a score as a float in [0, 1]. A bool, NaN or any
    value that is no number is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"expected a number, got {value!r}")
    if kind == BINARY:
        if value == 0 or value == 1:
            return int(value)
        raise InputError(f"binary outcome must be 0 or 1, got {value}")
    if 0 <= value <= 1:
        return float(value)
    raise InputError(f"outcome value {value} outside [0, 1]")


@dataclass(frozen=True)
class RecommendationVector:
    """Per-individual system recommendations for one purpose, all of one
    ``kind``: ``values[x]`` is x's label, 0 or 1 (1 is the favorable
    outcome), or x's score in [0, 1].

    Totality over the population is checked by :func:`validate_population`,
    not at construction.
    """

    purpose: Purpose
    values: Mapping[IndividualId, float]
    kind: str = BINARY

    def __post_init__(self) -> None:
        if self.kind not in (BINARY, SCORE):
            raise InputError(f"unknown outcome kind {self.kind!r}")
        kind = self.kind
        values = {x: _recommendation(v, kind) for x, v in self.values.items()}
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class AuditParams:
    """The three audit thresholds.

    delta: cluster threshold -- how similar a target must be rated to join
        the observer's perceived cluster, in [0, 1], inclusive filter.
    epsilon: treatment-similarity threshold -- two treatments count as
        similar when their similarity is strictly above epsilon, in [0, 1).
    theta: majority threshold -- an aggregate is positive when the positive
        fraction is strictly above theta, in [0, 1). 0.5 means absolute
        majority and is the default.
    """

    delta: float
    epsilon: float = 0.0
    theta: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta <= 1.0:
            raise InputError(f"delta must be in [0, 1], got {self.delta}")
        if not 0.0 <= self.epsilon < 1.0:
            raise InputError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if not 0.0 <= self.theta < 1.0:
            raise InputError(f"theta must be in [0, 1), got {self.theta}")


# --- input validation -------------------------------------------------------

#: Violation codes emitted by validate_population.
SELF_SIMILARITY = "self_similarity"
VALUE_RANGE = "value_range"
MISSING_RECOMMENDATION = "missing_recommendation"
UNKNOWN_ID = "unknown_id"


def validate_population(
    pop: Population,
    perceptions: PerceptionTable,
    recs: RecommendationVector,
) -> tuple[tuple[str, str, str], ...]:
    """Check the audit inputs against the model invariants.

    Returns every violated invariant as a ``(code, where, message)`` triple,
    in a fixed order; an empty tuple means the inputs are clean. Checked:

    - every individual rates themself exactly 1.0 (self-similarity; missing
      diagonal entries read as 0.0 and therefore fail),
    - every perception value lies in [0, 1],
    - perception entries reference known ids only,
    - the recommendation vector is total over the population and references
      known ids only.

    The result is kept on ``perceptions``, so a second call with the same
    population and recommendation objects returns it at once.
    """
    checked = perceptions.validated
    if checked is not None and checked[0] is pop and checked[1] is recs:
        return checked[2]
    violations: list[tuple[str, str, str]] = []
    known = pop.positions

    for individual in pop.individuals:
        own = perceptions.similarity(individual, individual)
        if own != 1.0:
            message = f"self-similarity must be 1.0 for {individual}, got {own}"
            violations.append((SELF_SIMILARITY, f"sim({individual},{individual})", message))

    # One unsorted pass over the rows; only the entries at fault are sorted,
    # so a clean table costs O(nnz). No two entries share an (observer,
    # target) pair, so the sort orders them by that pair alone.
    faulty: list[tuple[str, str, float]] = []
    for observer, row in perceptions.rows.items():
        if observer not in known:
            faulty.extend((observer, target, value) for target, value in row.items())
            continue
        for target, value in row.items():
            if target not in known or not 0.0 <= value <= 1.0:
                faulty.append((observer, target, value))
    for observer, target, value in sorted(faulty):
        where = f"sim({observer},{target})"
        for individual in (observer, target):
            if individual not in known:
                message = f"unknown id {individual} in perception table"
                violations.append((UNKNOWN_ID, where, message))
        if not 0.0 <= value <= 1.0:
            violations.append((VALUE_RANGE, where, f"similarity {value} outside [0, 1]"))

    for individual in pop.individuals:
        if individual not in recs.values:
            message = f"no recommendation for {individual}"
            violations.append((MISSING_RECOMMENDATION, f"rec({individual})", message))
    for individual in sorted(recs.values):
        if individual not in known:
            message = f"recommendation for unknown id {individual}"
            violations.append((UNKNOWN_ID, f"rec({individual})", message))

    result = tuple(violations)
    object.__setattr__(perceptions, "validated", (pop, recs, result))
    return result
