"""Audit-run files: one self-contained JSON document per audit.

A run file carries everything needed to reproduce a report byte-for-byte:
population, perception table, recommendations, parameters, strategy, the
optional acceptance ledger, optional baseline-auditor inputs, and run
metadata. Field names mirror the engine's symbols (sim, rec, delta,
epsilon, theta) so files stay traceable next to the definitions. Metadata
is free-form except ``ethicality_asserted``, the one key the engine reads,
which must be a JSON boolean. The ids of every baseline row, and the
attribute and operator of every veto rule, must be strings: none is
coerced. Every id a baseline score or row names must be in the population
(``BaselineInputs``, from ``baselines``, gathers them into one set).

``dumps_doc`` is the one written form of every JSON document, run files
and reports alike: compact JSON with sorted keys and a closing newline, in
one call to the standard library's C encoder. ``save_run`` writes it;
loading and re-saving any valid file is idempotent and preserves content.
The loader reads any JSON layout, so indented files load as well.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..aggregation import (
    STRATEGY_KINDS,
    AggregationStrategy,
    VetoRule,
    validate_veto_rules,
)
from ..baselines import (
    BaselineInputs,
    ObjectiveDistanceTable,
    add_distances,
    check_ids,
    check_scores,
)
from ..core import (
    BINARY,
    SCORE,
    AuditParams,
    InputError,
    PerceptionTable,
    Population,
    RecommendationVector,
    validate_population,
)
from ..explanations import AcceptanceLedger

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
class AuditRunFile:
    """One audit run: inputs, parameters, and acceptance state.

    Theta is one fact: the strategy's theta must equal ``params.theta``.
    Every veto rule must hold for the population (``validate_veto_rules``),
    and every id the baseline names must be of the population: one set
    test of ``baseline.ids``, and only a refused baseline is read key by
    key (``_check_baseline_ids``).
    ``metadata.ethicality_asserted``, the one metadata key the engine reads,
    must be a boolean: any other value would be read by its truth and could
    assert by accident.
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
        object.__setattr__(self, "metadata", dict(self.metadata))
        asserted = self.metadata.get("ethicality_asserted", False)
        if type(asserted) is not bool:
            raise RunFileError(
                f"expected true or false, got {asserted!r}", "metadata.ethicality_asserted"
            )
        if self.strategy.theta != self.params.theta:
            raise RunFileError(
                f"strategy theta {self.strategy.theta} differs from params theta "
                f"{self.params.theta}",
                "strategy.theta",
            )
        if self.strategy.veto_rules:
            try:
                validate_veto_rules(self.strategy.veto_rules, self.population)
            except InputError as exc:
                raise RunFileError(str(exc), "strategy.veto_rules") from None
        ids = self.population.positions
        if self.baseline is not None and not self.baseline.ids <= ids.keys():
            _check_baseline_ids(self.baseline, ids)

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


def _check_scored_ids(scores: Mapping[str, float], ids: Mapping[str, int]) -> None:
    """Refuse the first scored id, in sorted order, outside the population ``ids``."""
    unknown = sorted(scores.keys() - ids.keys())
    if unknown:
        raise RunFileError(f"score for unknown id {unknown[0]!r}", f"baseline.scores.{unknown[0]}")


def _check_baseline_ids(baseline: BaselineInputs, ids: Mapping[str, int]) -> None:
    """Refuse the first id of ``baseline`` outside the population ``ids``:
    a scored one (``_check_scored_ids``), else one that a distance or
    override names, at ``baseline.<distances or overrides>[<index>]`` in
    the order the table holds them, which for a loaded run is the file's.
    The run calls it only to locate an id it knows is there."""
    _check_scored_ids(baseline.scores, ids)
    table = baseline.distances
    for name, rows in (("distances", table.entries), ("overrides", table.subjective_overrides)):
        for idx, key in enumerate(rows):
            unknown = next((i for i in key if i not in ids), None)
            if unknown is not None:
                where = f"baseline.{name}[{idx}]"
                try:
                    check_ids(key)  # the loader keys a row of numbers too
                except InputError as exc:
                    raise RunFileError(str(exc), where) from None
                raise RunFileError(f"unknown id {unknown!r}", where)


def _located(build: Callable[[dict], Any], entries: Mapping, where: Callable[[Any], str]) -> Any:
    """``build(entries)``. Only if it refuses them are the entries given to
    it one by one, to report the first it refuses alone at ``where(key)``;
    if it refuses none alone, its refusal is reported with no location."""
    try:
        return build(entries)
    except InputError as exc:
        for key, value in entries.items():
            try:
                build({key: value})
            except InputError as one:
                raise RunFileError(str(one), where(key)) from None
        raise RunFileError(str(exc)) from None


def _parse_recommendations(doc: Mapping[str, Any]) -> RecommendationVector:
    """The ``rec`` section as a vector of ``doc``'s purpose, the first value
    the vector refuses reported at ``rec.values.<id>``."""
    rec = _expect_object(_require(doc, "rec"), "rec", frozenset({"kind", "values"}))
    kind = rec.get("kind", BINARY)
    if kind not in (BINARY, SCORE):
        raise RunFileError(f"unknown outcome kind {kind!r}", "rec.kind")
    values = _expect_object(_require(rec, "values", "rec.values"), "rec.values")
    purpose = _require(doc, "purpose")
    if not isinstance(purpose, str):
        raise RunFileError(f"expected a string, got {purpose!r}", "purpose")
    return _located(
        lambda vs: RecommendationVector(purpose, vs, kind), values, "rec.values.{}".format
    )


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
        attribute, op = _require(rule, "attribute", where), _require(rule, "op", where)
        for name, value in (("attribute", attribute), ("op", op)):
            if type(value) is not str:
                raise RunFileError(f"expected a string {name}, got {value!r}", where)
        try:
            rules.append(
                VetoRule(
                    attribute=attribute,
                    op=op,
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


def _parse_baseline(doc: Mapping[str, Any], ids: Mapping[str, int]) -> BaselineInputs | None:
    """The baseline section. The scores are checked before the rows are
    read, so a score is refused at its own location before any trace it
    leaves there, such as a scored pair with no distance."""
    section = doc.get("baseline")
    if section is None:
        return None
    section = _expect_object(section, "baseline", frozenset({"scores", "distances", "overrides"}))
    scores = _expect_object(_require(section, "scores", "baseline.scores"), "baseline.scores")
    scores = {
        i: v if type(v) is float else _expect_number(v, f"baseline.scores.{i}")
        for i, v in scores.items()
    }
    scores = _located(check_scores, scores, "baseline.scores.{}".format)
    _check_scored_ids(scores, ids)
    table = ObjectiveDistanceTable.adopt(
        _parse_rows(section, "distances", ids), _parse_rows(section, "overrides", ids)
    )
    try:
        return BaselineInputs(scores, table)
    except InputError as exc:  # a scored pair with no distance
        raise RunFileError(str(exc), "baseline.distances") from None


def _parse_rows(section: Mapping[str, Any], name: str, ids: Mapping) -> dict[tuple, float]:
    """The ``distances`` rows, ``[x, y, distance]``, or the ``overrides``
    rows, ``[observer, x, y, distance]``, of the baseline ``section``, keyed
    as the distance table keeps them (``add_distances``), in row order.

    Plain rows, each observer a party to its pair and a float >= 0, go in
    first, their ids left to the run (``_check_baseline_ids``); only if some
    row is no such row, or a key repeats, are the rows read again one by
    one, to convert that row or to report the first faulty row at its
    location, a row naming an id outside the population ``ids`` included."""
    location = f"baseline.{name}"
    rows = _expect_list(section.get(name, []), location)
    size = 3 if name == "distances" else 4
    try:
        if size == 3:
            entries = {
                (x, y) if x <= y else (y, x): d
                for x, y, d in rows
                if type(d) is float and d >= 0
            }
        else:
            entries = {
                (o, x, y) if x <= y else (o, y, x): d
                for o, x, y, d in rows
                if type(d) is float and d >= 0 and o in (x, y)
            }
        if len(entries) == len(rows):
            return entries
    except (TypeError, ValueError):  # a row of another length, an id that is a list or an object
        pass
    entries = {}
    for idx, row in enumerate(rows):
        where = f"{location}[{idx}]"
        if not (isinstance(row, list) and len(row) == size):
            shape = "[x, y, distance]" if size == 3 else "[observer, x, y, distance]"
            raise RunFileError(f"expected {shape}", where)
        *names, d = row
        d = _expect_number(d, where)
        try:
            check_ids(names)
            unknown = next((i for i in names if i not in ids), None)
            if unknown is not None:
                raise InputError(f"unknown id {unknown!r}")
            add_distances(entries, [(tuple(names), d)])
        except InputError as exc:
            raise RunFileError(str(exc), where) from None
    return entries


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

    recommendations = _parse_recommendations(doc)

    params = _parse_params(doc)
    strategy = _parse_strategy(doc, params)

    ledger = None
    if "ledger" in doc:
        states = {
            (individual, kind): state
            for individual, row in _expect_object(doc["ledger"], "ledger").items()
            for kind, state in _expect_object(row, f"ledger.{individual}").items()
        }
        ledger = _located(AcceptanceLedger, states, "ledger.{0[0]}.{0[1]}".format)

    baseline = _parse_baseline(doc, population.positions)
    return AuditRunFile(
        population=population,
        perceptions=perceptions,
        recommendations=recommendations,
        params=params,
        strategy=strategy,
        ledger=ledger,
        baseline=baseline,
        metadata=_expect_object(doc.get("metadata", {}), "metadata"),
    )


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
    """Canonical document form of a run. A ledger is written whenever the
    run has one, as a report echoes it even empty; other optional sections
    are omitted when empty. The ``sim`` rows, the recommendation values,
    the attributes and the baseline scores are the run's own maps, unsorted
    and uncopied (``dumps_doc`` sorts every key), so the document is for
    writing, not for changing."""
    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "purpose": run.purpose,
        "individuals": list(run.population.individuals),
        "provenance": run.perceptions.provenance,
        "sim": run.perceptions.rows,
        "rec": {"kind": run.recommendations.kind, "values": run.recommendations.values},
        **settings_to_dict(run),
    }
    if run.population.attributes:
        doc["attributes"] = run.population.attributes
    if run.ledger is not None:
        doc["ledger"] = run.ledger.as_rows()
    if run.baseline is not None:
        doc["baseline"] = {
            "scores": run.baseline.scores,
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
    violations = validate_population(run.population, run.perceptions, run.recommendations)
    if violations:
        raise RunFileError(
            "; ".join(message for _, _, message in violations[:5])
            + (f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""),
            violations[0][1],
        )


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


def dumps_doc(doc: Any) -> str:
    """``doc`` as compact JSON with sorted keys and a closing newline:
    deterministic bytes for a deterministic document."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def dumps_run(run: AuditRunFile) -> str:
    return dumps_doc(to_dict(run))


def save_run(run: AuditRunFile, path: str | Path) -> Path:
    """Write ``dumps_run``'s form; re-saving a loaded file is idempotent."""
    path = Path(path)
    path.write_text(dumps_run(run), encoding="utf-8")
    return path
