"""Domain types, parameter validation, and input validation.

Everything downstream (clustering, aggregation, auditing) is built on the
types in this module. All types are immutable after construction and safe to
share across concurrent audit runs. The one exception downstream is the
cluster family (``clustering.ClusterFamily``): its clusters are immutable,
but it also holds a derived cache, the stage-1 tally of the last
recommendation vector read over it, which never changes its value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterator, Mapping

#: Opaque unique token identifying one individual within a population.
IndividualId = str

#: Opaque token naming the issue under decision; one audit run concerns
#: exactly one purpose.
Purpose = str

#: Outcome kinds. One population uses one kind uniformly per purpose.
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


class KindMismatchError(InputError):
    """Outcomes of different kinds (binary vs score) were mixed where one
    kind is required."""


class UnknownIndividualError(KeyError):
    """An operation referenced an id that is not part of the population."""


@dataclass(frozen=True)
class Outcome:
    """A single treatment outcome: a binary label or a score in [0, 1].

    Binary outcomes take values 0 and 1 only; label 1 is the favorable
    outcome. Score outcomes are reals in [0, 1].
    """

    value: float
    kind: str = BINARY

    def __post_init__(self) -> None:
        if self.kind not in (BINARY, SCORE):
            raise InputError(f"unknown outcome kind {self.kind!r}")
        object.__setattr__(self, "value", float(self.value))
        if self.kind == BINARY and self.value not in (0.0, 1.0):
            raise InputError(f"binary outcome must be 0 or 1, got {self.value}")
        if not 0.0 <= self.value <= 1.0:
            raise InputError(f"outcome value {self.value} outside [0, 1]")

    @classmethod
    def label(cls, value: int) -> "Outcome":
        """Binary outcome from a 0/1 label."""
        return cls(float(value), BINARY)

    @classmethod
    def score(cls, value: float) -> "Outcome":
        """Score outcome from a real in [0, 1]."""
        return cls(float(value), SCORE)

    @property
    def is_binary(self) -> bool:
        return self.kind == BINARY


@dataclass(frozen=True)
class Population:
    """The ordered set of individuals one audit run is about.

    Attributes are optional objective features (group labels for the
    baseline auditors, veto-rule inputs). When present, every covered
    individual must carry the same attribute keys.
    """

    individuals: tuple[IndividualId, ...]
    attributes: Mapping[IndividualId, Mapping[str, Any]] | None = None
    #: The ids as a set, for O(1) membership tests.
    id_set: frozenset[IndividualId] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "individuals", tuple(self.individuals))
        if not self.individuals:
            raise InputError("population must contain at least one individual")
        object.__setattr__(self, "id_set", frozenset(self.individuals))
        if len(self.id_set) != len(self.individuals):
            raise InputError("population contains duplicate ids")
        if self.attributes is not None:
            attrs = {i: dict(v) for i, v in self.attributes.items()}
            object.__setattr__(self, "attributes", attrs)
            keysets = set()
            for ind, values in attrs.items():
                if ind not in self.id_set:
                    raise InputError(f"attributes reference unknown id {ind!r}")
                keysets.add(frozenset(values))
            if len(keysets) > 1:
                raise InputError("attribute keys differ across individuals")

    def __len__(self) -> int:
        return len(self.individuals)

    def __contains__(self, individual: str) -> bool:
        return individual in self.id_set

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
    independent opinions.
    """

    rows: Mapping[IndividualId, Mapping[IndividualId, float]]
    provenance: str = "declared"

    def __post_init__(self) -> None:
        _check_provenance(self.provenance)
        # An empty row states nothing, so it is not kept.
        object.__setattr__(
            self,
            "rows",
            {
                observer: dict(zip(row, map(float, row.values())))
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


@dataclass(frozen=True)
class RecommendationVector:
    """Per-individual system recommendations for one purpose.

    All values must share one outcome kind. Totality over the population is
    checked by :func:`validate_population`, not at construction.
    """

    purpose: Purpose
    values: Mapping[IndividualId, Outcome]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", dict(self.values))
        kinds = {o.kind for o in self.values.values()}
        if len(kinds) > 1:
            raise KindMismatchError(
                f"recommendation vector mixes outcome kinds {sorted(kinds)}"
            )

    @property
    def kind(self) -> str:
        for outcome in self.values.values():
            return outcome.kind
        return BINARY

    def __getitem__(self, individual: str) -> Outcome:
        try:
            return self.values[individual]
        except KeyError:
            raise UnknownIndividualError(individual) from None


@dataclass(frozen=True)
class DecisionVector:
    """Final binary decisions, one per individual, for one purpose."""

    purpose: Purpose
    values: Mapping[IndividualId, Outcome]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", dict(self.values))
        for individual, outcome in self.values.items():
            if not outcome.is_binary:
                raise KindMismatchError(
                    f"decision for {individual!r} must be binary, got {outcome.kind}"
                )

    def __getitem__(self, individual: str) -> Outcome:
        try:
            return self.values[individual]
        except KeyError:
            raise UnknownIndividualError(individual) from None


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


@dataclass(frozen=True)
class Violation:
    code: str
    where: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __iter__(self) -> Iterator[Violation]:
        return iter(self.violations)

    def messages(self) -> list[str]:
        return [v.message for v in self.violations]


def validate_population(
    pop: Population,
    perceptions: PerceptionTable,
    recs: RecommendationVector,
) -> ValidationReport:
    """Check the audit inputs against the model invariants.

    Returns an empty report on success; otherwise lists every violated
    invariant with its location. Checked:

    - every individual rates themself exactly 1.0 (self-similarity; missing
      diagonal entries read as 0.0 and therefore fail),
    - every perception value lies in [0, 1],
    - perception entries reference known ids only,
    - the recommendation vector is total over the population and references
      known ids only.
    """
    violations: list[Violation] = []
    known = pop.id_set

    for individual in pop.individuals:
        own = perceptions.similarity(individual, individual)
        if own != 1.0:
            violations.append(
                Violation(
                    SELF_SIMILARITY,
                    f"sim({individual},{individual})",
                    f"self-similarity must be 1.0 for {individual}, got {own}",
                )
            )

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
                violations.append(
                    Violation(UNKNOWN_ID, where, f"unknown id {individual} in perception table")
                )
        if not 0.0 <= value <= 1.0:
            violations.append(
                Violation(VALUE_RANGE, where, f"similarity {value} outside [0, 1]")
            )

    for individual in pop.individuals:
        if individual not in recs.values:
            violations.append(
                Violation(
                    MISSING_RECOMMENDATION,
                    f"rec({individual})",
                    f"no recommendation for {individual}",
                )
            )
    for individual in sorted(recs.values):
        if individual not in known:
            violations.append(
                Violation(
                    UNKNOWN_ID,
                    f"rec({individual})",
                    f"recommendation for unknown id {individual}",
                )
            )

    return ValidationReport(tuple(violations))
