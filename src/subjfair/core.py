"""Domain types, parameter validation, and input validation.

Everything downstream (clustering, aggregation, auditing) is built on the
types in this module. They and every value downstream, the acceptance ledger
included, are immutable and safe to share across concurrent audit runs. One
derived cache is the exception, and it does not change its holder's value:
the perception table keeps the result of ``validate_population`` for the
population and recommendation vector it last checked, so a loaded run is
validated once, however many points it is audited at.
A recommendation is one number per person, and its kind is stated once
per vector. Past loading, people are known by their index in
``individuals``: the pipeline's labels are plain 0/1 lists by position,
shared and never changed, and ids appear only in the documents written.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Collection, Mapping

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
    """Malformed or incomplete caller-supplied data.

    ``path`` locates the fault in the caller's arguments: an argument's
    name, then keys or a row index, as ``("rows", observer, target)``.
    ``reason`` is the message without ``name`` (``sim(x,y)``), so a loader
    can give it at its own location for the path."""

    def __init__(self, reason: str, path: tuple = (), name: str = "") -> None:
        super().__init__(f"{name}: {reason}" if name else reason)
        self.reason = reason
        self.path = path


#: The types an attribute value may have.
_SCALARS = (str, int, float, type(None))


def number(value: Any, path: tuple = (), name: str = "") -> float:
    """``value`` as a float: an int or a float, not a bool, that fits in a
    float. Anything else is refused with an ``InputError`` at ``path``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"expected a number, got {value!r}", path, name)
    try:
        return float(value)
    except OverflowError:
        raise InputError("too large for a float", path, name) from None


def check_ids(ids: Collection[Any], path: tuple = ()) -> None:
    """Refuse the first id that is not a string: a coerced ``1`` would name
    ``"1"``."""
    for i in ids:
        if not isinstance(i, str):
            raise InputError(f"expected an id string, got {i!r}", path)


class Value:
    """An immutable record that compares, hashes and shows the fields named
    in ``_fields``. A record's ``__init__`` checks its arguments and stores
    them with ``_set``; then assigning or deleting an attribute raises
    ``AttributeError``. A member outside ``_fields`` is derived from them
    (an index, a cache) and does not enter equality. This ``__init__``
    takes every field, by position or by name, and checks nothing."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        values = dict(zip(self._fields, args), **kwargs)
        if len(args) + len(kwargs) != len(self._fields) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        self._set(**values)

    def _set(self, **values: Any) -> None:
        # One attribute at a time, not through ``__dict__``: an instance
        # whose dict is never asked for keeps its attributes inline, where
        # reading one is faster.
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Population(Value):
    """The ordered set of individuals one audit run is about.

    Attributes are optional objective features (group labels for the
    baseline auditors, veto-rule inputs), an empty map when none are given.
    Every covered individual must carry the same attribute keys.
    """

    _fields = ("individuals", "attributes")
    individuals: tuple[IndividualId, ...]
    attributes: Mapping[IndividualId, Mapping[str, Any]]
    #: Each id's position, its index in ``individuals``.
    positions: Mapping[IndividualId, int]

    def __init__(
        self, individuals: Collection[IndividualId], attributes: Mapping[str, Any] | None = None
    ) -> None:
        individuals = tuple(individuals)
        if not individuals:
            raise InputError("population must contain at least one individual", ("individuals",))
        check_ids(individuals, ("individuals",))
        self._set(individuals=individuals, positions={x: k for k, x in enumerate(individuals)})
        if len(self.positions) != len(individuals):
            raise InputError("population contains duplicate ids", ("individuals",))
        self._set(attributes=self._attributes({} if attributes is None else attributes))

    def _attributes(self, given: Any) -> dict[IndividualId, dict[str, Any]]:
        """A copy of ``given``: a mapping from ids of the population to
        mappings from attribute names, strings, to scalars (a string, a
        number, a boolean or None), with the same names for everyone. One
        loop reads each entry and refuses the first fault it meets."""
        if not isinstance(given, Mapping):
            raise InputError("expected a mapping", ("attributes",), "attributes")
        for individual, values in given.items():
            path = ("attributes", individual)
            if individual not in self.positions:
                raise InputError(f"unknown id {individual!r}", path, "attributes")
            if not isinstance(values, Mapping):
                raise InputError("expected a mapping", path, f"attributes of {individual}")
            for key, value in values.items():
                if not isinstance(key, str):
                    message = f"expected an attribute name string, got {key!r}"
                    raise InputError(message, path, f"attributes of {individual}")
                if not isinstance(value, _SCALARS):
                    message = "expected a string, number, boolean or null"
                    raise InputError(message, (*path, key), f"attribute {key} of {individual}")
        attrs = {individual: dict(values) for individual, values in given.items()}
        if len(set(map(frozenset, attrs.values()))) > 1:
            raise InputError("attribute keys differ across individuals", ("attributes",))
        return attrs

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
        return frozenset(next(iter(self.attributes.values()), ()))

    def attributes_of(self, individual: str) -> Mapping[str, Any]:
        return self.attributes.get(individual, {})


#: The row of an observer who stated nothing.
_NO_ROW: Mapping[IndividualId, float] = MappingProxyType({})


#: The types one C-level pass tests a whole collection for: a row's, a
#: value's that needs no conversion, and a number's. These bulk scans stay
#: where the values are many, so the pass pays: the benchmark's
#: ``dense_report`` table holds 75k similarity entries.
_DICT = frozenset((dict,))
_FLOAT = frozenset((float,))
_PLAIN_NUMBERS = frozenset((float, int))


def as_floats(numbers: Mapping[Any, Any], name: Callable[[Any], str], path: tuple = ()) -> dict:
    """``numbers`` with each value as a float (``number``), refused at
    ``(*path, key)`` and named ``name(key)``. One C-level type scan; only
    a type other than int and float, or a huge int, is read one by one."""
    if _PLAIN_NUMBERS.issuperset(map(type, numbers.values())):
        try:
            return dict(zip(numbers, map(float, numbers.values())))
        except OverflowError:
            pass
    return {key: number(v, (*path, key), name(key)) for key, v in numbers.items()}


def _similarity_rows(rows: Any) -> dict[IndividualId, Mapping[IndividualId, float]]:
    """``rows`` as a ``PerceptionTable`` keeps them: a mapping from each
    observer to a mapping of numbers (``as_floats``), an empty row dropped.
    One C-level type scan covers every value: if each is a float, the rows
    are kept themselves; only else is each row converted."""
    if not isinstance(rows, Mapping):
        raise InputError("expected a mapping", ("rows",), "rows")
    if not _DICT.issuperset(map(type, rows.values())):
        for observer, row in rows.items():
            if not isinstance(row, Mapping):
                raise InputError("expected a mapping", ("rows", observer), f"row {observer}")
        rows = {observer: dict(row) for observer, row in rows.items()}
    kept = dict(filter(itemgetter(1), rows.items()))
    if _FLOAT.issuperset(map(type, chain.from_iterable(map(dict.values, kept.values())))):
        return kept
    return {
        observer: as_floats(row, lambda target: f"sim({observer},{target})", ("rows", observer))
        for observer, row in kept.items()
    }


class PerceptionTable(Value):
    """Per-observer, non-symmetric similarity scores over the population.

    ``rows[observer][target]`` is how similar *observer* rates *target* to
    themself, in [0, 1]: each row is one person's own statement, and the
    rows are the only form the table keeps. Missing entries read as 0.0 (no
    perceived similarity), which keeps input files sparse. Symmetry is not
    required and not assumed anywhere: ``sim(x, z)`` and ``sim(z, x)`` are
    independent opinions. The constructor and ``adopt`` share one rule for
    rows (``_similarity_rows``): each row a mapping, each value a number
    (``number``), kept as a float; a row that states nothing is not kept.
    """

    _fields = ("rows", "provenance")
    rows: Mapping[IndividualId, Mapping[IndividualId, float]]
    provenance: str
    #: A derived cache, not part of the table's value: ``validate_population``
    #: keeps here the population and recommendation vector it last checked
    #: against this table, by identity, with its result.
    validated: Any = None

    def __init__(self, rows: Mapping[str, Any], provenance: str = "declared") -> None:
        rows = PerceptionTable.adopt(rows, provenance).rows
        rows = {observer: dict(row) for observer, row in rows.items()}
        self._set(rows=rows, provenance=provenance)

    @classmethod
    def adopt(cls, rows: Mapping[str, Any], provenance: str = "declared") -> PerceptionTable:
        """The table the constructor makes of ``rows``, refused alike, but
        keeping each row that holds only floats itself, uncopied, so nothing
        may change those rows afterwards. The run-file loader builds its
        table so."""
        table = cls.__new__(cls)
        table._set(rows=_similarity_rows(rows))
        if provenance not in PROVENANCE_TAGS:
            message = f"must be one of {PROVENANCE_TAGS}, got {provenance!r}"
            raise InputError(message, ("provenance",), "provenance")
        table._set(provenance=provenance)
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


#: The two labels a binary vector holds.
_LABELS = frozenset((0.0, 1.0))


class RecommendationVector(Value):
    """Per-individual system recommendations for one purpose, all of one
    ``kind``: ``values[x]`` is x's label, 0 or 1 (1 is the favorable
    outcome), or x's score in [0, 1].

    Totality over the population is checked by :func:`validate_population`,
    not at construction.
    """

    _fields = ("purpose", "values", "kind")
    purpose: Purpose
    values: Mapping[IndividualId, float]
    kind: str

    def __init__(
        self, purpose: Purpose, values: Mapping[IndividualId, float], kind: str = BINARY
    ) -> None:
        if kind not in (BINARY, SCORE):
            raise InputError(f"unknown outcome kind {kind!r}", ("kind",))
        if not isinstance(purpose, str):
            raise InputError(f"expected a string, got {purpose!r}", ("purpose",))
        given = values
        if not isinstance(values, Mapping):
            raise InputError("expected a mapping", ("values",), "values")
        # Only a value of another type than int and float is converted;
        # ``test_a_clean_file_is_checked_in_bulk`` pins the skip.
        if not _PLAIN_NUMBERS.issuperset(map(type, values.values())):
            values = as_floats(values, "rec({})".format, ("values",))
        binary = kind == BINARY
        for x, value in values.items():
            if not (value in _LABELS if binary else 0.0 <= value <= 1.0):
                message = (
                    f"binary outcome must be 0 or 1, got {given[x]}"
                    if binary
                    else f"outcome value {given[x]} outside [0, 1]"
                )
                raise InputError(message, ("values", x), f"rec({x})")
        values = dict(zip(values, map(int if binary else float, values.values())))
        self._set(purpose=purpose, values=values, kind=kind)


class AuditParams(Value):
    """The three audit thresholds.

    delta: cluster threshold -- how similar a target must be rated to join
        the observer's perceived cluster, in [0, 1], inclusive filter.
    epsilon: treatment-similarity threshold -- two treatments count as
        similar when their similarity is strictly above epsilon, in [0, 1).
    theta: majority threshold -- an aggregate is positive when the positive
        fraction is strictly above theta, in [0, 1). 0.5 means absolute
        majority and is the default.
    """

    _fields = ("delta", "epsilon", "theta")
    delta: float
    epsilon: float
    theta: float

    def __init__(self, delta: float, epsilon: float = 0.0, theta: float = 0.5) -> None:
        given = zip(self._fields, (delta, epsilon, theta))
        self._set(**{name: number(value, (name,), name) for name, value in given})
        if not 0.0 <= self.delta <= 1.0:
            raise InputError(f"delta must be in [0, 1], got {self.delta}", ("delta",))
        if not 0.0 <= self.epsilon < 1.0:
            raise InputError(f"epsilon must be in [0, 1), got {self.epsilon}", ("epsilon",))
        if not 0.0 <= self.theta < 1.0:
            raise InputError(f"theta must be in [0, 1), got {self.theta}", ("theta",))


# --- input validation -------------------------------------------------------

#: Violation codes emitted by validate_population.
SELF_SIMILARITY = "self_similarity"
VALUE_RANGE = "value_range"
MISSING_RECOMMENDATION = "missing_recommendation"
UNKNOWN_ID = "unknown_id"


def _id_order(individual: Any) -> tuple:
    """A sort key for ids that is total over ids of any type: strings first,
    in their own order, then every other id by its type's name and repr."""
    if isinstance(individual, str):
        return (0, individual)
    return (1, type(individual).__name__, repr(individual))


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
    # target) pair, so the sort orders them by that pair alone, and
    # ``_id_order`` orders ids of any type.
    faulty: list[tuple[str, str, float]] = []
    for observer, row in perceptions.rows.items():
        if observer not in known:
            faulty.extend((observer, target, value) for target, value in row.items())
            continue
        for target, value in row.items():
            if target not in known or not 0.0 <= value <= 1.0:
                faulty.append((observer, target, value))
    for observer, target, value in sorted(faulty, key=lambda e: (_id_order(e[0]), _id_order(e[1]))):
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
    for individual in sorted(recs.values.keys() - known.keys(), key=_id_order):
        message = f"recommendation for unknown id {individual}"
        violations.append((UNKNOWN_ID, f"rec({individual})", message))

    result = tuple(violations)
    perceptions._set(validated=(pop, recs, result))
    return result
