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

The verdicts read the pipeline's stage-1 tally (``cluster_tally``): each
person's label and each cluster's positive count, computed once per family
and recommendation vector. Relaxed ISF needs only the count; so does ISF on
binary recommendations, where the members treated like x are the members
sharing x's label. Score recommendations are compared member by member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .aggregation import SetRecommendationVector, cluster_tally, majority_label
from .clustering import ClusterFamily
from .core import BINARY, AuditParams, DecisionVector, Population, RecommendationVector

FAIR = "fair"
UNFAIR = "unfair"

#: Scenario classes: exactly one applies per individual per audit.
ISF_SATISFIED = "ISF_SATISFIED"
RELAXED_ONLY = "RELAXED_ONLY"
NEITHER = "NEITHER"

#: Conflict classes for the triple (own rec, cluster label, final decision).
NO_CONFLICT = "NO_CONFLICT"
JUSTIFIABLE_BY_GROUP = "JUSTIFIABLE_BY_GROUP"
SYSTEM_SUSPECT = "SYSTEM_SUSPECT"


@dataclass(frozen=True)
class FairnessVerdict:
    """Per-individual fairness result.

    satisfaction_ratio is the fraction of the individual's cluster treated
    epsilon-similarly to them; it is reported as a scalar fairness degree
    but never enters the fair/unfair logic.
    """

    individual: str
    isf: str
    relaxed_isf: str
    satisfaction_ratio: float


@dataclass(frozen=True)
class AuditReport:
    """Everything one audit run decided, keyed by individual."""

    purpose: str
    verdicts: Mapping[str, FairnessVerdict]
    scenarios: Mapping[str, str]
    conflicts: Mapping[str, str]
    set_recommendations: SetRecommendationVector
    decisions: DecisionVector
    sf: str
    dissenters: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "verdicts", dict(self.verdicts))
        object.__setattr__(self, "scenarios", dict(self.scenarios))
        object.__setattr__(self, "conflicts", dict(self.conflicts))
        object.__setattr__(self, "dissenters", frozenset(self.dissenters))


def _similar(a: float, b: float, epsilon: float) -> bool:
    """Whether two treatment values of one kind are epsilon-similar.

    Their similarity is ``1 - |a - b|``, the score metric; on 0/1 labels it
    is 1.0 for a match and 0.0 otherwise, the exact-match rule for binary
    outcomes. Similar means strictly above epsilon.
    """
    return 1.0 - abs(a - b) > epsilon


def sf_process(
    verdicts: Mapping[str, FairnessVerdict],
) -> tuple[str, frozenset[str]]:
    """Process-level verdict plus the exact set of dissenting individuals.

    The process is fair iff no individual's ISF verdict is unfair.
    """
    dissenters = frozenset(x for x, v in verdicts.items() if v.isf == UNFAIR)
    return (FAIR if not dissenters else UNFAIR), dissenters


def audit_population(
    pop: Population,
    family: ClusterFamily,
    recs: RecommendationVector,
    params: AuditParams,
    set_recs: SetRecommendationVector,
    decisions: DecisionVector,
) -> AuditReport:
    """Assemble the full audit report from pipeline outputs.

    ``set_recs`` and ``decisions`` are the pipeline outputs for the same
    family, computed at ``params.theta``, since scenario classification
    compares against those cluster labels.

    Each person's cluster is read once, from the stage-1 tally the pipeline
    keeps on ``family`` (``cluster_tally``): the person's label and the
    count of positive labels in their cluster. Relaxed ISF compares the
    label with the cluster's plain theta-majority of that count, whatever
    the strategy. On binary recommendations epsilon-similarity is equality
    for every epsilon in [0, 1), so the members treated epsilon-similarly
    to x are the positive count when x's label is 1 and the rest when it is
    0; score recommendations are compared with x's raw value member by
    member. ISF is fair iff every member is satisfied, and the satisfaction
    ratio is the satisfied share. The scenario compares the label with the
    cluster label ``set_recs[x]``, and the conflict class with it and then
    with the decision. Cost: O(n) on binary recommendations once the tally
    exists, O(n + sum |C|) on scores.
    """
    epsilon = params.epsilon
    theta = params.theta
    label, positive = cluster_tally(pop, family, recs)
    raw = None if recs.kind == BINARY else {x: recs[x].value for x in pop.individuals}
    verdicts: dict[str, FairnessVerdict] = {}
    scenarios: dict[str, str] = {}
    conflicts: dict[str, str] = {}
    for x in pop.individuals:
        members = family.cluster_of(x).members
        size = len(members)
        if raw is None:
            satisfied = positive[x] if label[x] else size - positive[x]
        else:
            own = raw[x]
            satisfied = sum(_similar(own, raw[y], epsilon) for y in members)
        majority = majority_label(positive[x], size, theta)
        verdicts[x] = FairnessVerdict(
            individual=x,
            isf=FAIR if satisfied == size else UNFAIR,
            relaxed_isf=FAIR if _similar(label[x], majority, epsilon) else UNFAIR,
            satisfaction_ratio=satisfied / size,
        )
        if _similar(label[x], set_recs[x].value, epsilon):
            scenarios[x] = ISF_SATISFIED if satisfied == size else RELAXED_ONLY
            conflicts[x] = NO_CONFLICT
        else:
            scenarios[x] = NEITHER
            if _similar(label[x], decisions[x].value, epsilon):
                conflicts[x] = JUSTIFIABLE_BY_GROUP
            else:
                conflicts[x] = SYSTEM_SUSPECT
    sf, dissenters = sf_process(verdicts)

    return AuditReport(
        purpose=recs.purpose,
        verdicts=verdicts,
        scenarios=scenarios,
        conflicts=conflicts,
        set_recommendations=set_recs,
        decisions=decisions,
        sf=sf,
        dissenters=dissenters,
    )
