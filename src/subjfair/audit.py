"""Subjective-fairness evaluation: per-individual verdicts, the process-level
verdict, and the scenario/conflict taxonomies.

Individual subjective fairness (ISF) holds for x when everyone in x's
perceived cluster is treated epsilon-similarly to x. The relaxed variant
compares x against their cluster's aggregate label instead of member by
member. The whole process is subjectively fair only when every individual's
ISF verdict is fair.

Whenever a recommendation is compared against a binary aggregate (a cluster
label or a final decision), score recommendations are binarized at 0.5
first, mirroring the decision pipeline.

The audit reads the stage-1 tally the pipeline read (``cluster_tally``),
passed in as a value, and the pipeline's 0/1 lists by position. It fills
one column per verdict, by person position, and builds no per-person
record.
"""

from __future__ import annotations

from itertools import compress
from operator import truediv
from typing import Sequence

from .aggregation import majority_labels
from .clustering import ClusterFamily
from .core import BINARY, AuditParams, InputError, Population, RecommendationVector, Value

FAIR = "fair"
UNFAIR = "unfair"

#: Scenario classes: exactly one applies per individual per audit.
ISF_SATISFIED = "ISF_SATISFIED"
RELAXED_ONLY = "RELAXED_ONLY"
NEITHER = "NEITHER"
SCENARIOS = (ISF_SATISFIED, RELAXED_ONLY, NEITHER)

#: Conflict classes for the triple (own rec, cluster label, final decision).
NO_CONFLICT = "NO_CONFLICT"
JUSTIFIABLE_BY_GROUP = "JUSTIFIABLE_BY_GROUP"
SYSTEM_SUSPECT = "SYSTEM_SUSPECT"
CONFLICTS = (NO_CONFLICT, JUSTIFIABLE_BY_GROUP, SYSTEM_SUSPECT)


class AuditReport(Value):
    """Everything one audit run decided, in columns by person position:
    ``isf[k]`` is the ISF verdict of the person at position k of
    ``population``, and so on; ``set_labels`` and ``decisions`` are the
    pipeline's 0/1 cluster labels and decisions.

    ``satisfaction_ratio[k]`` is the fraction of that person's cluster
    treated epsilon-similarly to them; it is reported as a scalar fairness
    degree but never enters the fair/unfair logic."""

    _fields = (
        "population", "isf", "relaxed_isf", "satisfaction_ratio", "scenario", "conflict",
        "set_labels", "decisions", "sf", "dissenters",
    )
    population: Population
    isf: list[str]
    relaxed_isf: list[str]
    satisfaction_ratio: list[float]
    scenario: list[str]
    conflict: list[str]
    set_labels: list[int]
    decisions: list[int]
    sf: str
    dissenters: frozenset[str]


def _similar(a: float, b: float, epsilon: float) -> bool:
    """Whether two treatment values of one kind are epsilon-similar.

    Their similarity is ``1 - |a - b|``, the score metric; on 0/1 labels it
    is 1.0 for a match and 0.0 otherwise, the exact-match rule for binary
    outcomes. Similar means strictly above epsilon.
    """
    return 1.0 - abs(a - b) > epsilon


def sf_process(individuals: Sequence[str], isf: Sequence[str]) -> tuple[str, frozenset[str]]:
    """Process-level verdict plus the exact set of dissenting individuals,
    from the ISF column ``isf`` of ``individuals``: fair iff no verdict is
    unfair."""
    dissenters = frozenset(compress(individuals, map(UNFAIR.__eq__, isf)))
    return (FAIR if not dissenters else UNFAIR), dissenters


def audit_population(
    pop: Population,
    family: ClusterFamily,
    recs: RecommendationVector,
    params: AuditParams,
    tally: tuple[list[int], list[int]],
    set_labels: list[int],
    decisions: list[int],
) -> AuditReport:
    """Assemble the full audit report from pipeline outputs: ``set_labels``
    and ``decisions`` are those of the same family at ``params.theta``, one
    label per person of ``pop`` (else InputError).

    Each person's cluster is read once, from ``tally``, the pipeline's
    ``cluster_tally`` of ``pop``, ``family`` and ``recs``: the person's
    label and the count of positive labels in their cluster. Relaxed ISF
    compares the label with the cluster's plain theta-majority of that
    count, whatever the strategy, as ``majority_labels`` reads it for every
    cluster at once. On 0/1 labels epsilon-similarity is equality for every epsilon in
    [0, 1), so labels are compared by equality, and on binary
    recommendations the members treated like x are the positive count when
    x's label is 1 and the rest when it is 0; score recommendations are
    compared with x's raw value member by member. ISF is fair iff every
    member is satisfied; the scenario compares the label with the cluster
    label, and the conflict class with it and then with the decision. Cost:
    O(n) on binary recommendations, else O(n + sum |C|)."""
    if len(set_labels) != len(pop) or len(decisions) != len(pop):
        raise InputError("the pipeline's labels must hold one label per person")
    label, positive = tally
    members = family.members
    sizes = list(map(len, members))
    if recs.kind == BINARY:
        satisfied = [p if own else size - p for own, p, size in zip(label, positive, sizes)]
    else:
        raw = list(map(recs.values.__getitem__, pop.individuals))
        satisfied = [
            sum([_similar(own, raw[y], params.epsilon) for y in cluster])
            for own, cluster in zip(raw, members)
        ]
    isf = [FAIR if sat == size else UNFAIR for sat, size in zip(satisfied, sizes)]
    majority = majority_labels(positive, sizes, params.theta)
    agrees = list(map(int.__eq__, label, set_labels))
    sf, dissenters = sf_process(pop.individuals, isf)
    return AuditReport(
        population=pop,
        isf=isf,
        relaxed_isf=[FAIR if own == m else UNFAIR for own, m in zip(label, majority)],
        satisfaction_ratio=list(map(truediv, satisfied, sizes)),
        scenario=[
            (ISF_SATISFIED if verdict == FAIR else RELAXED_ONLY) if agree else NEITHER
            for agree, verdict in zip(agrees, isf)
        ],
        conflict=[
            NO_CONFLICT if agree else JUSTIFIABLE_BY_GROUP if own == d else SYSTEM_SUSPECT
            for agree, own, d in zip(agrees, label, decisions)
        ],
        set_labels=set_labels,
        decisions=decisions,
        sf=sf,
        dissenters=dissenters,
    )
