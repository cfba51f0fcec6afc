"""Brute-force oracle: an independent re-derivation of a full audit.

Everything here is recomputed from the raw run data with naive exhaustive
loops and the most literal transcription of the definitions, on purpose.
It shares no computation with the engine modules, so a field-for-field
comparison of its output against the engine's audit document is a real
differential test. Deliberately slow; refuses populations above ``bound``.
It writes the ``subjfair-report/3`` audit document, which leaves out the
membership relation that stage 2 reads here and lists the per-person
verdicts, scenarios and conflicts in sorted id order.
"""

from __future__ import annotations

import operator
from typing import Any

from ..core import InputError
from .runfile import AuditRunFile

DEFAULT_BOUND = 10

#: Each veto operator's comparison; a rule runs only its own.
COMPARISONS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
}


def brute_force_oracle(run: AuditRunFile, bound: int = DEFAULT_BOUND) -> dict[str, Any]:
    """Recompute the audit document for ``run`` by exhaustive loops.

    Raises:
        InputError: when the population exceeds ``bound`` individuals.
    """
    ids = list(run.population.individuals)
    n = len(ids)
    if n > bound:
        raise InputError(f"population of {n} exceeds oracle bound {bound}")

    delta = run.params.delta
    eps = run.params.epsilon
    theta = run.params.theta
    strategy = run.strategy.kind
    rows = run.perceptions.as_rows()
    kind = run.recommendations.kind
    raw = {i: run.recommendations.values[i] for i in ids}

    def sim(x: str, z: str) -> float:
        return rows.get(x, {}).get(z, 0.0)

    def rbin(i: str) -> float:
        if kind == "binary":
            return raw[i]
        return 1.0 if raw[i] > 0.5 else 0.0

    def t_raw(a: float, b: float) -> float:
        if kind == "binary":
            return 1.0 if a == b else 0.0
        return 1.0 - abs(a - b)

    # clusters and the inverse membership relation
    clusters = {x: [z for z in ids if sim(x, z) >= delta] for x in ids}
    membership = {i: [o for o in ids if i in clusters[o]] for i in ids}

    def majority_label(members: list[str]) -> float:
        return 1.0 if sum(rbin(m) for m in members) / len(members) > theta else 0.0

    # stage 1
    set_rec: dict[str, float] = {}
    for owner in ids:
        members = clusters[owner]
        if strategy == "pessimistic":
            label = 0.0 if any(rbin(m) == 0.0 for m in members) else 1.0
        elif strategy == "trust_weighted":
            weights = {
                m: (1.0 if rbin(m) == majority_label(clusters[m]) else 0.0)
                for m in members
            }
            total = sum(weights.values())
            if total == 0.0:
                label = majority_label(members)
            else:
                tally = sum(weights[m] * rbin(m) for m in members) / total
                label = 1.0 if tally > theta else 0.0
        else:
            label = majority_label(members)
        set_rec[owner] = label

    # stage 2
    dec: dict[str, float] = {}
    for i in ids:
        owners = membership[i]
        if strategy == "pessimistic":
            d = 0.0 if any(set_rec[o] == 0.0 for o in owners) else 1.0
        else:
            d = 1.0 if sum(set_rec[o] for o in owners) / len(owners) > theta else 0.0
        if strategy == "veto":
            attrs = run.population.attributes_of(i)
            for rule in run.strategy.veto_rules:
                if rule.attribute in attrs:
                    value = attrs[rule.attribute]
                    if COMPARISONS[rule.op](value, rule.operand):
                        d = 0.0
        dec[i] = d

    # verdicts
    verdicts: dict[str, dict[str, Any]] = {}
    scenarios: dict[str, str] = {}
    conflicts: dict[str, str] = {}
    for x in ids:
        members = clusters[x]
        fair_isf = all(t_raw(raw[x], raw[y]) > eps for y in members)
        ratio = sum(1 for y in members if t_raw(raw[x], raw[y]) > eps) / len(members)
        relaxed_agg = majority_label(members)
        fair_relaxed = (1.0 if rbin(x) == relaxed_agg else 0.0) > eps
        verdicts[x] = {
            "isf": "fair" if fair_isf else "unfair",
            "relaxed_isf": "fair" if fair_relaxed else "unfair",
            "satisfaction_ratio": ratio,
        }

        own_vs_set = 1.0 if rbin(x) == set_rec[x] else 0.0
        if own_vs_set <= eps:
            scenarios[x] = "NEITHER"
        elif any(t_raw(raw[y], raw[x]) <= eps for y in members):
            scenarios[x] = "RELAXED_ONLY"
        else:
            scenarios[x] = "ISF_SATISFIED"

        if own_vs_set > eps:
            conflicts[x] = "NO_CONFLICT"
        elif (1.0 if rbin(x) == dec[x] else 0.0) > eps:
            conflicts[x] = "JUSTIFIABLE_BY_GROUP"
        else:
            conflicts[x] = "SYSTEM_SUSPECT"

    dissenters = sorted(x for x in ids if verdicts[x]["isf"] == "unfair")
    individuals = sorted(ids)

    # obligations, re-derived from the classes
    obligations: list[dict[str, Any]] = []
    for x in individuals:
        kinds: list[str] = []
        if scenarios[x] != "ISF_SATISFIED":
            kinds += ["SYSTEM_RECOMMENDATION", "AGGREGATION_METHOD"]
        if conflicts[x] == "JUSTIFIABLE_BY_GROUP":
            kinds.append("GROUP_IDENTIFICATION")
        elif conflicts[x] == "SYSTEM_SUSPECT":
            kinds.append("SYSTEM_ERROR_REVIEW")
        for k in kinds:
            obligations.append({"individual": x, "kind": k})

    return {
        "schema": "subjfair-report/3",
        "purpose": run.purpose,
        "n": n,
        "params": {"delta": delta, "epsilon": eps, "theta": theta},
        "strategy": {
            "kind": run.strategy.kind,
            "theta": run.strategy.theta,
            "veto_rules": [
                {
                    "attribute": r.attribute,
                    "op": r.op,
                    "value": r.operand,
                    "vetoes": 1,
                }
                for r in run.strategy.veto_rules
            ],
        },
        "clusters": {x: sorted(clusters[x]) for x in ids},
        "set_rec": {x: int(set_rec[x]) for x in ids},
        "dec": {i: int(dec[i]) for i in ids},
        "individuals": individuals,
        "verdicts": {
            key: [verdicts[x][key] for x in individuals]
            for key in ("isf", "relaxed_isf", "satisfaction_ratio")
        },
        "scenarios": [scenarios[x] for x in individuals],
        "conflicts": [conflicts[x] for x in individuals],
        "sf": {
            "verdict": "fair" if not dissenters else "unfair",
            "dissenters": dissenters,
        },
        "counts": {
            "isf_fair": sum(1 for x in ids if verdicts[x]["isf"] == "fair"),
            "relaxed_isf_fair": sum(
                1 for x in ids if verdicts[x]["relaxed_isf"] == "fair"
            ),
        },
        "scenario_histogram": {
            label: sum(1 for x in ids if scenarios[x] == label)
            for label in ("ISF_SATISFIED", "RELAXED_ONLY", "NEITHER")
        },
        "conflict_histogram": {
            label: sum(1 for x in ids if conflicts[x] == label)
            for label in ("NO_CONFLICT", "JUSTIFIABLE_BY_GROUP", "SYSTEM_SUSPECT")
        },
        "obligations": obligations,
        "obligation_tags": {
            "SYSTEM_RECOMMENDATION": ["accuracy"],
            "AGGREGATION_METHOD": ["consistency"],
            "GROUP_IDENTIFICATION": ["ethicality"],
            "SYSTEM_ERROR_REVIEW": ["accuracy"],
        },
    }
