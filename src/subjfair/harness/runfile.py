"""Audit-run files: one self-contained JSON document per audit.

A run file carries everything needed to reproduce a report byte-for-byte:
population, perception table, recommendations, parameters, strategy, the
optional acceptance ledger, optional baseline-auditor inputs, and run
metadata. Field names mirror the engine's symbols (sim, rec, delta,
epsilon, theta) so files stay traceable next to the definitions. Metadata
is free-form except ``ethicality_asserted``, the one key the engine reads,
which must be a JSON boolean. Every id a baseline score or row names must
be in the population (``BaselineInputs``, from ``baselines``, gathers them
into one set).

The loader checks the document's shape: its objects, its lists and its
field names. Every value goes to the engine constructor that takes it,
which holds that value's rule and refuses a bad one with an
``InputError`` whose ``path`` the loader maps to the field that holds the
value (``_build``), so a run built in code is refused alike.

``dumps_doc`` is the one written form of every JSON document, run files
and reports alike: compact JSON with sorted keys and a closing newline, in
one call to the standard library's C encoder. ``save_run`` writes it;
loading and re-saving any valid file is idempotent and preserves content.
The loader reads any JSON layout, so indented files load as well.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..aggregation import AggregationStrategy, VetoRule, veto_flags
from ..baselines import BaselineInputs, ObjectiveDistanceTable, check_scores
from ..core import (
    BINARY,
    AuditParams,
    InputError,
    PerceptionTable,
    Population,
    RecommendationVector,
    check_ids,
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


class RunFileError(InputError):
    """A run file is malformed, violates the schema, or fails validation, at
    the field ``location``; ``reason`` is the message without it."""

    def __init__(self, message: str, location: str | None = None) -> None:
        self.location = location
        super().__init__(message, name=location or "")


@dataclass(frozen=True)
class AuditRunFile:
    """One audit run: inputs, parameters, and acceptance state.

    Theta is one fact: the strategy's theta must equal ``params.theta``.
    Every veto rule must hold for the population (``veto_flags``), and
    every id the baseline names must be of the population: one set test of
    ``baseline.ids``, which spares a clean baseline a walk of its rows
    (21,900 in the benchmark's ``dense_report``), and only a refused
    baseline is read key by key (``_check_baseline_ids``).
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
        _build(
            lambda: veto_flags(self.strategy.veto_rules, self.population),
            lambda path: ".".join(("strategy", *path)),
        )
        baseline = self.baseline
        if baseline is not None and not baseline.ids <= self.population.positions.keys():
            rows = baseline.distances.entries, baseline.distances.subjective_overrides
            _check_baseline_ids(self.population, baseline.scores, *rows)

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


def located(exc: InputError, where: Callable[[tuple], str]) -> RunFileError:
    """The engine's refusal ``exc``, whose ``path`` locates the bad value in
    its arguments, at ``where(path)``, the field of the file that holds it."""
    return RunFileError(exc.reason, where(exc.path))


def _build(build: Callable[[], Any], where: Callable[[tuple], str]) -> Any:
    """``build()``, a call of the engine, its refusal ``located`` at ``where``."""
    try:
        return build()
    except InputError as exc:
        raise located(exc, where) from None


def _check_baseline_ids(
    population: Population, scores: Mapping[str, float], *rows: Iterable[Any]
) -> None:
    """Refuse the first id outside ``population`` in file order: a scored
    one, in sorted order, at ``baseline.scores.<id>``, else one that a row
    names, the ids of the ``distances`` rows then of the ``overrides`` rows
    given as ``rows``, an id that is no string (``check_ids``) first, at
    ``baseline.<name>[<index>]``."""
    ids = population.positions
    unknown = sorted(scores.keys() - ids.keys())
    if unknown:
        raise RunFileError(f"score for unknown id {unknown[0]!r}", f"baseline.scores.{unknown[0]}")
    for name, keys in zip(("distances", "overrides"), rows):
        for idx, key in enumerate(keys):
            where = f"baseline.{name}[{idx}]"
            _build(lambda: check_ids(key), lambda path: where)
            unknown = next((i for i in key if i not in ids), None)
            if unknown is not None:
                raise RunFileError(f"unknown id {unknown!r}", where)


def _parse_recommendations(doc: Mapping[str, Any]) -> RecommendationVector:
    rec = _expect_object(_require(doc, "rec"), "rec", frozenset({"kind", "values"}))
    values = _expect_object(_require(rec, "values", "rec.values"), "rec.values")
    purpose = _require(doc, "purpose")
    return _build(
        lambda: RecommendationVector(purpose, values, rec.get("kind", BINARY)),
        lambda path: "purpose" if path == ("purpose",) else ".".join(("rec", *path)),
    )


def _parse_params(doc: Mapping[str, Any]) -> AuditParams:
    section = _expect_object(
        _require(doc, "params"), "params", frozenset({"delta", "epsilon", "theta"})
    )
    _require(section, "delta", "params.delta")
    return _build(lambda: AuditParams(**section), lambda path: ".".join(("params", *path)))


def _parse_strategy(doc: Mapping[str, Any], params: AuditParams) -> AggregationStrategy:
    section = doc.get("strategy")
    if section is None:
        return AggregationStrategy(theta=params.theta)
    section = _expect_object(section, "strategy", frozenset({"kind", "theta", "veto_rules"}))
    rules = []
    for idx, rule in enumerate(_expect_list(section.get("veto_rules", []), "strategy.veto_rules")):
        where = f"strategy.veto_rules[{idx}]"
        rule = _expect_object(rule, where, frozenset({"attribute", "op", "value", "vetoes"}))
        attribute, op, operand = (_require(rule, k, where) for k in ("attribute", "op", "value"))
        rules.append(
            _build(
                lambda: VetoRule(attribute, op, operand, rule.get("vetoes", 1)),
                lambda path: f"{where}.{'vetoes' if path == ('vetoed_label',) else path[0]}",
            )
        )
    theta = section.get("theta", params.theta)
    return _build(
        lambda: AggregationStrategy(section.get("kind", "majority"), theta, tuple(rules)),
        lambda path: ".".join(("strategy", *path)),
    )


def _parse_baseline(doc: Mapping[str, Any], population: Population) -> BaselineInputs | None:
    """The baseline section. The scores and their ids are checked before
    the rows are read, so a score is refused at its own location before
    any trace it leaves there, such as a scored pair with no distance."""
    section = doc.get("baseline")
    if section is None:
        return None
    section = _expect_object(section, "baseline", frozenset({"scores", "distances", "overrides"}))
    scores = _expect_object(_require(section, "scores", "baseline.scores"), "baseline.scores")
    rows = {
        name: _expect_list(section.get(name, []), f"baseline.{name}")
        for name in ("distances", "overrides")
    }
    scores = _build(lambda: check_scores(scores), _in_baseline)
    _check_baseline_ids(population, scores)
    try:
        table = ObjectiveDistanceTable.from_rows(rows["distances"], rows["overrides"])
    except InputError as exc:
        name, idx = "distances" if exc.path[0] == "entries" else "overrides", exc.path[1]
        # An id outside the population, in this row or an earlier one in
        # file order, is named first, as the run names it in rows the table
        # takes: every distances row comes before the overrides rows.
        upto = rows[name][: idx + 1]
        read = (upto,) if name == "distances" else (rows["distances"], upto)
        keys = ([row[:-1] if isinstance(row, list) else () for row in part] for part in read)
        _check_baseline_ids(population, scores, *keys)
        raise located(exc, lambda path: f"baseline.{name}[{idx}]") from None
    return _build(lambda: BaselineInputs(scores, table), _in_baseline)


def _in_baseline(path: tuple) -> str:
    return ".".join(("baseline", *path))


def from_dict(doc: Mapping[str, Any]) -> AuditRunFile:
    """Build a run from a parsed document, reporting the offending field
    on any schema violation. The loader checks the document's shape, its
    objects, lists and field names; each value is checked by the engine
    constructor that takes it, whose refusal the loader reports at the
    value's field. The run keeps the document's ``sim`` rows that hold
    only floats, so the document must not change afterwards."""
    doc = _expect_object(doc, "<document>")
    schema = _require(doc, "schema")
    if schema != SCHEMA:
        raise RunFileError(f"unsupported schema {schema!r}, expected {SCHEMA!r}", "schema")
    unknown = sorted(str(key) for key in doc if key not in FIELDS)
    if unknown:
        raise RunFileError(f"unknown field {unknown[0]!r}", unknown[0])

    individuals = _expect_list(_require(doc, "individuals"), "individuals")
    population = _build(lambda: Population(tuple(individuals), doc.get("attributes")), ".".join)
    sim = _require(doc, "sim")
    perceptions = _build(
        lambda: PerceptionTable.adopt(sim, doc.get("provenance", "declared")),
        lambda path: ".".join(("sim", *path[1:])) if path[:1] == ("rows",) else "provenance",
    )
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
        ledger = _build(
            lambda: AcceptanceLedger(states), lambda path: ".".join(("ledger", *path[1:]))
        )

    baseline = _parse_baseline(doc, population)
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


def settings_to_dict(params: AuditParams, strategy: AggregationStrategy) -> dict[str, Any]:
    """The ``params`` and ``strategy`` blocks of the point ``(params,
    strategy)``, as run files and reports write them."""
    return {
        "params": {
            "delta": params.delta,
            "epsilon": params.epsilon,
            "theta": params.theta,
        },
        "strategy": {
            "kind": strategy.kind,
            "theta": strategy.theta,
            "veto_rules": [
                {
                    "attribute": r.attribute,
                    "op": r.op,
                    "value": r.operand,
                    "vetoes": r.vetoed_label,
                }
                for r in strategy.veto_rules
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
        **settings_to_dict(run.params, run.strategy),
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
