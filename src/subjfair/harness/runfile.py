"""Audit-run files: one self-contained JSON document per audit.

A run file carries everything needed to reproduce a report byte-for-byte:
population, perception table, recommendations, parameters, strategy, the
optional acceptance ledger, optional baseline-auditor inputs, and run
metadata. Field names mirror the engine's symbols (sim, rec, delta,
epsilon, theta) so files stay traceable next to the definitions.

``save_run`` writes a canonical form (sorted keys, two-space indent);
loading and re-saving any valid file is idempotent and preserves content.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..aggregation import (
    STRATEGY_KINDS,
    AggregationStrategy,
    VetoRule,
    validate_veto_rules,
)
from ..baselines import ObjectiveDistanceTable
from ..core import (
    BINARY,
    SCORE,
    AuditParams,
    InputError,
    Outcome,
    PerceptionTable,
    Population,
    RecommendationVector,
    validate_population,
)
from ..explanations import AcceptanceLedger
from .canonical import dumps_canonical

SCHEMA = "subjfair-run/1"

#: Every top-level field the schema defines; any other key is rejected.
FIELDS = frozenset(
    {
        "schema", "purpose", "individuals", "attributes", "provenance", "sim",
        "rec", "params", "strategy", "ledger", "baseline", "metadata",
    }
)


#: The one type a parsed similarity value needs no further check for.
_FLOAT = frozenset((float,))


class RunFileError(InputError):
    """A run file is malformed, violates the schema, or fails validation."""

    def __init__(self, message: str, location: str | None = None) -> None:
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


@dataclass(frozen=True)
class BaselineInputs:
    """Optional inputs for the classical baseline auditors."""

    scores: Mapping[str, float]
    distances: ObjectiveDistanceTable

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "scores", {str(i): float(v) for i, v in self.scores.items()}
        )


@dataclass(frozen=True)
class AuditRunFile:
    """One audit run: inputs, parameters, and acceptance state.

    Theta is one fact: the strategy's theta must equal ``params.theta``.
    """

    population: Population
    perceptions: PerceptionTable
    recommendations: RecommendationVector
    params: AuditParams
    strategy: AggregationStrategy
    ledger: AcceptanceLedger | None = None
    baseline: BaselineInputs | None = None
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.strategy.theta != self.params.theta:
            raise InputError(
                f"strategy theta {self.strategy.theta} differs from params theta "
                f"{self.params.theta}"
            )
        object.__setattr__(self, "metadata", dict(self.metadata))

    @property
    def purpose(self) -> str:
        return self.recommendations.purpose

    @property
    def n(self) -> int:
        return len(self.population)


def _require(doc: Mapping[str, Any], key: str, location: str = "") -> Any:
    if key not in doc:
        raise RunFileError(f"missing required field {key!r}", location or key)
    return doc[key]


def _expect_object(
    value: Any, location: str, fields: frozenset[str] | None = None
) -> Mapping[str, Any]:
    """``value`` as an object; with ``fields``, reject any other key."""
    if not isinstance(value, dict):
        raise RunFileError("expected an object", location)
    if fields is not None:
        unknown = sorted(str(key) for key in value if key not in fields)
        if unknown:
            raise RunFileError(f"unknown field {unknown[0]!r}", f"{location}.{unknown[0]}")
    return value


def _expect_list(value: Any, location: str) -> list[Any]:
    if not isinstance(value, list):
        raise RunFileError("expected a list", location)
    return value


def _expect_number(value: Any, location: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RunFileError(f"expected a number, got {value!r}", location)
    try:
        return float(value)
    except OverflowError:
        raise RunFileError(f"number {value} is out of range", location) from None


def _parse_score(value: Any, location: str) -> float:
    score = _expect_number(value, location)
    if not math.isfinite(score):
        raise RunFileError(f"expected a finite score, got {score}", location)
    return score


def _parse_distance(value: Any, location: str) -> float:
    distance = _expect_number(value, location)
    if not distance >= 0:  # NaN included
        raise RunFileError(f"distance must be >= 0, got {distance}", location)
    return distance


def _parse_outcome(value: Any, kind: str, individual: str) -> Outcome:
    """The recommendation at ``rec.values.<individual>``. A plain number is
    taken as it is; the location is spelled out only for any other value
    or one the outcome rejects."""
    if type(value) is float or type(value) is int:  # a bool is neither
        try:
            return Outcome(value, kind)
        except (InputError, OverflowError):
            pass
    location = f"rec.values.{individual}"
    number = _expect_number(value, location)
    try:
        return Outcome(number, kind)
    except InputError as exc:
        raise RunFileError(str(exc), location) from None


def _parse_distance_row(row: Any, size: int, location: str) -> list[Any]:
    """``row`` as ``[*ids, distance]`` with ``size`` items and its distance
    checked."""
    if not (isinstance(row, list) and len(row) == size):
        names = "[x, y, distance]" if size == 3 else "[observer, x, y, distance]"
        raise RunFileError(f"expected {names}", location)
    return [*row[:-1], _parse_distance(row[-1], location)]


def _parse_params(doc: Mapping[str, Any]) -> AuditParams:
    section = _expect_object(
        _require(doc, "params"), "params", frozenset({"delta", "epsilon", "theta"})
    )
    try:
        return AuditParams(
            delta=_expect_number(_require(section, "delta", "params.delta"), "params.delta"),
            epsilon=_expect_number(section.get("epsilon", 0.0), "params.epsilon"),
            theta=_expect_number(section.get("theta", 0.5), "params.theta"),
        )
    except InputError as exc:
        raise RunFileError(str(exc), "params") from None


def _parse_strategy(doc: Mapping[str, Any], params: AuditParams) -> AggregationStrategy:
    section = doc.get("strategy")
    if section is None:
        return AggregationStrategy(theta=params.theta)
    section = _expect_object(section, "strategy", frozenset({"kind", "theta", "veto_rules"}))
    kind = section.get("kind", "majority")
    if kind not in STRATEGY_KINDS:
        raise RunFileError(f"unknown strategy kind {kind!r}", "strategy.kind")
    rules = []
    for idx, rule in enumerate(_expect_list(section.get("veto_rules", []), "strategy.veto_rules")):
        where = f"strategy.veto_rules[{idx}]"
        rule = _expect_object(rule, where, frozenset({"attribute", "op", "value", "vetoes"}))
        label = rule.get("vetoes", 1)
        if isinstance(label, bool) or label not in (0, 1):
            raise RunFileError(f"expected 0 or 1, got {label!r}", f"{where}.vetoes")
        try:
            rules.append(
                VetoRule(
                    attribute=str(_require(rule, "attribute", where)),
                    op=str(_require(rule, "op", where)),
                    operand=_require(rule, "value", where),
                    vetoed_label=int(label),
                )
            )
        except InputError as exc:
            raise RunFileError(str(exc), where) from None
    try:
        return AggregationStrategy(
            kind=kind,
            theta=_expect_number(section.get("theta", params.theta), "strategy.theta"),
            veto_rules=tuple(rules),
        )
    except InputError as exc:
        raise RunFileError(str(exc), "strategy") from None


def _parse_baseline(doc: Mapping[str, Any], ids: frozenset[str]) -> BaselineInputs | None:
    """The baseline section, checked against the population ``ids``: every
    id it names must be in the population, every override's observer must be
    a party to its pair, and every pair of scored people needs a distance."""
    section = doc.get("baseline")
    if section is None:
        return None
    section = _expect_object(section, "baseline", frozenset({"scores", "distances", "overrides"}))
    # A value that passes the plain type test is taken as it is, and only any
    # other value is checked again with its location spelled out.
    scores = {}
    for i, v in _expect_object(
        _require(section, "scores", "baseline.scores"), "baseline.scores"
    ).items():
        if not (type(v) is float and math.isfinite(v)):
            v = _parse_score(v, f"baseline.scores.{i}")
        scores[str(i)] = v
    unknown = sorted(scores.keys() - ids)
    if unknown:
        raise RunFileError(
            f"score for unknown id {unknown[0]!r}", f"baseline.scores.{unknown[0]}"
        )
    entries = _parse_distances(section, ids)
    overrides = _parse_overrides(section, ids)
    pairs = itertools.combinations(sorted(scores), 2)
    missing = next(itertools.filterfalse(entries.__contains__, pairs), None)
    if missing is not None:
        raise RunFileError(
            f"no distance recorded for scored pair ({missing[0]}, {missing[1]})",
            "baseline.distances",
        )
    return BaselineInputs(scores, ObjectiveDistanceTable.adopt(entries, overrides))


def _parse_distances(
    section: Mapping[str, Any], ids: frozenset[str]
) -> dict[tuple[str, str], float]:
    """The ``[x, y, distance]`` rows keyed by sorted pair, as the distance
    table keeps them, so that a pair given twice, in either order, is seen.

    Plain rows, two population ids and a float >= 0, go in first; only if
    some row is no such row, or a pair repeats, are the rows read again one
    by one, to convert that row or to report it at its location."""
    rows = _expect_list(section.get("distances", []), "baseline.distances")
    entries: dict[tuple[str, str], float] = {}
    try:
        for row in rows:
            if type(row) is list and len(row) == 3:
                x, y, d = row
                if type(d) is float and d >= 0 and x in ids and y in ids:
                    entries[(x, y) if x <= y else (y, x)] = d
                    continue
            break
    except TypeError:  # an id that is a list or an object
        pass
    if len(entries) == len(rows):
        return entries
    entries = {}
    for idx, row in enumerate(rows):
        where = f"baseline.distances[{idx}]"
        row = _parse_distance_row(row, 3, where)
        x, y = str(row[0]), str(row[1])
        pair = (x, y) if x <= y else (y, x)
        if not ids.issuperset(pair):
            raise _unknown_id((x, y), ids, where)
        if pair in entries:
            raise RunFileError(f"second distance for the pair ({x}, {y})", where)
        entries[pair] = row[2]
    return entries


def _parse_overrides(
    section: Mapping[str, Any], ids: frozenset[str]
) -> dict[tuple[str, str, str], float]:
    """The ``[observer, x, y, distance]`` rows keyed by observer and sorted
    pair, as the distance table keeps them; the observer must be a party to
    the pair and may state one distance for it."""
    overrides: dict[tuple[str, str, str], float] = {}
    for idx, row in enumerate(_expect_list(section.get("overrides", []), "baseline.overrides")):
        where = f"baseline.overrides[{idx}]"
        if not (type(row) is list and len(row) == 4 and type(row[3]) is float and row[3] >= 0):
            row = _parse_distance_row(row, 4, where)
        observer, x, y = str(row[0]), str(row[1]), str(row[2])
        key = (observer, x, y) if x <= y else (observer, y, x)
        if not ids.issuperset(key):
            raise _unknown_id((observer, x, y), ids, where)
        if observer != x and observer != y:
            raise RunFileError(
                f"observer {observer!r} is not a party to the pair ({x}, {y})", where
            )
        if key in overrides:
            raise RunFileError(f"second override by {observer!r} for the pair ({x}, {y})", where)
        overrides[key] = row[3]
    return overrides


def _unknown_id(names: tuple[str, ...], ids: frozenset[str], location: str) -> RunFileError:
    unknown = next(name for name in names if name not in ids)
    return RunFileError(f"unknown id {unknown!r}", location)


def from_dict(doc: Mapping[str, Any]) -> AuditRunFile:
    """Build a run from a parsed document, reporting the offending field
    on any schema violation. The run keeps the document's ``sim`` rows that
    hold only floats, so the document must not change afterwards."""
    doc = _expect_object(doc, "<document>")
    schema = _require(doc, "schema")
    if schema != SCHEMA:
        raise RunFileError(f"unsupported schema {schema!r}, expected {SCHEMA!r}", "schema")
    unknown = sorted(str(key) for key in doc if key not in FIELDS)
    if unknown:
        raise RunFileError(f"unknown field {unknown[0]!r}", unknown[0])

    individuals = _require(doc, "individuals")
    if not isinstance(individuals, list) or not all(isinstance(i, str) for i in individuals):
        raise RunFileError("expected a list of id strings", "individuals")
    attributes = doc.get("attributes")
    if attributes is not None:
        attributes = _expect_object(attributes, "attributes")
        for individual, values in attributes.items():
            for key, value in _expect_object(values, f"attributes.{individual}").items():
                if isinstance(value, (list, dict)):
                    raise RunFileError(
                        "expected a string, number, boolean or null",
                        f"attributes.{individual}.{key}",
                    )
    try:
        population = Population(tuple(individuals), attributes)
    except InputError as exc:
        raise RunFileError(str(exc), "individuals") from None

    # A row of floats is kept as it is; only any other row is checked value
    # by value, with each location spelled out, and copied as floats.
    rows = {}
    for observer, row in _expect_object(_require(doc, "sim"), "sim").items():
        if not (type(row) is dict and _FLOAT.issuperset(map(type, row.values()))):
            row = {
                target: _expect_number(value, f"sim.{observer}.{target}")
                for target, value in _expect_object(row, f"sim.{observer}").items()
            }
        if row:
            rows[observer] = row
    try:
        perceptions = PerceptionTable.adopt(rows, doc.get("provenance", "declared"))
    except InputError as exc:
        raise RunFileError(str(exc), "provenance") from None

    rec = _expect_object(_require(doc, "rec"), "rec", frozenset({"kind", "values"}))
    kind = rec.get("kind", "binary")
    if kind not in (BINARY, SCORE):
        raise RunFileError(f"unknown outcome kind {kind!r}", "rec.kind")
    values = {
        str(i): _parse_outcome(v, kind, i)
        for i, v in _expect_object(_require(rec, "values", "rec.values"), "rec.values").items()
    }
    purpose = _require(doc, "purpose")
    if not isinstance(purpose, str):
        raise RunFileError(f"expected a string, got {purpose!r}", "purpose")
    recommendations = RecommendationVector(purpose, values)

    params = _parse_params(doc)
    strategy = _parse_strategy(doc, params)

    ledger = None
    if "ledger" in doc:
        ledger = AcceptanceLedger()
        for individual, states in _expect_object(doc["ledger"], "ledger").items():
            for obligation, state in _expect_object(states, f"ledger.{individual}").items():
                try:
                    ledger.record(individual, obligation, state)
                except InputError as exc:
                    raise RunFileError(str(exc), f"ledger.{individual}.{obligation}") from None

    baseline = _parse_baseline(doc, population.id_set)
    metadata = _expect_object(doc.get("metadata", {}), "metadata")
    try:
        run = AuditRunFile(
            population=population,
            perceptions=perceptions,
            recommendations=recommendations,
            params=params,
            strategy=strategy,
            ledger=ledger,
            baseline=baseline,
            metadata=metadata,
        )
    except InputError as exc:
        raise RunFileError(str(exc), "strategy.theta") from None
    return run


def settings_to_dict(run: AuditRunFile) -> dict[str, Any]:
    """The ``params`` and ``strategy`` blocks, as run files and reports
    write them."""
    return {
        "params": {
            "delta": run.params.delta,
            "epsilon": run.params.epsilon,
            "theta": run.params.theta,
        },
        "strategy": {
            "kind": run.strategy.kind,
            "theta": run.strategy.theta,
            "veto_rules": [
                {
                    "attribute": r.attribute,
                    "op": r.op,
                    "value": r.operand,
                    "vetoes": r.vetoed_label,
                }
                for r in run.strategy.veto_rules
            ],
        },
    }


def to_dict(run: AuditRunFile) -> dict[str, Any]:
    """Canonical document form of a run. Optional sections are omitted
    when empty."""
    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "purpose": run.purpose,
        "individuals": list(run.population.individuals),
        "provenance": run.perceptions.provenance,
        "sim": {
            observer: dict(sorted(row.items()))
            for observer, row in sorted(run.perceptions.rows.items())
        },
        "rec": {
            "kind": run.recommendations.kind,
            "values": {
                i: (int(o.value) if o.is_binary else o.value)
                for i, o in sorted(run.recommendations.values.items())
            },
        },
        **settings_to_dict(run),
    }
    if run.population.attributes:
        doc["attributes"] = {
            i: dict(sorted(v.items()))
            for i, v in sorted(run.population.attributes.items())
        }
    if run.ledger is not None and len(run.ledger):
        doc["ledger"] = run.ledger.as_rows()
    if run.baseline is not None:
        doc["baseline"] = {
            "scores": dict(sorted(run.baseline.scores.items())),
            "distances": [
                [x, y, d] for (x, y), d in sorted(run.baseline.distances.entries.items())
            ],
            "overrides": [
                [o, x, y, d]
                for (o, x, y), d in sorted(run.baseline.distances.subjective_overrides.items())
            ],
        }
    if run.metadata:
        doc["metadata"] = dict(run.metadata)
    return doc


def validate_run(run: AuditRunFile) -> None:
    """Raise a RunFileError on any model-invariant violation."""
    report = validate_population(run.population, run.perceptions, run.recommendations)
    if not report.ok:
        first = report.violations[0]
        raise RunFileError(
            "; ".join(report.messages()[:5])
            + (f" (+{len(report.violations) - 5} more)" if len(report.violations) > 5 else ""),
            first.where,
        )
    if run.strategy.veto_rules:
        try:
            validate_veto_rules(run.strategy.veto_rules, run.population)
        except InputError as exc:
            raise RunFileError(str(exc), "strategy.veto_rules") from None


def loads_run(text: str, validate: bool = True) -> AuditRunFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RunFileError(
            f"malformed JSON: {exc.msg}", f"line {exc.lineno} column {exc.colno}"
        ) from None
    except (ValueError, RecursionError) as exc:  # too many digits, too deep
        raise RunFileError(f"unreadable JSON: {exc}", "<document>") from None
    run = from_dict(doc)
    if validate:
        validate_run(run)
    return run


def load_run(path: str | Path, validate: bool = True) -> AuditRunFile:
    """Load a run file; with ``validate`` (default) reject any file whose
    inputs break the model invariants."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise RunFileError(f"not UTF-8 text: {exc.reason}", f"byte {exc.start}") from None
    return loads_run(text, validate=validate)


def dumps_run(run: AuditRunFile) -> str:
    return dumps_canonical(to_dict(run))


def save_run(run: AuditRunFile, path: str | Path) -> Path:
    """Write the canonical form; re-saving a loaded file is idempotent."""
    path = Path(path)
    path.write_text(dumps_run(run), encoding="utf-8")
    return path
