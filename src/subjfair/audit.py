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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .aggregation import (
    SetRecommendationVector,
    aggregate_set_recommendation,
    binarize,
)
from .clustering import ClusterFamily
from .core import (
    AuditParams,
    DecisionVector,
    Population,
    RecommendationVector,
    treatment_similarity,
)

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


def isf(
    x: str, family: ClusterFamily, recs: RecommendationVector, epsilon: float
) -> str:
    """Fair iff every member of x's cluster is treated epsilon-similarly.

    x is a member of their own cluster, but self-comparison is similarity
    1.0 and can never cause unfairness.
    """
    r_x = recs[x]
    for y in family.cluster_of(x).members:
        if treatment_similarity(r_x, recs[y]) <= epsilon:
            return UNFAIR
    return FAIR


def satisfaction_ratio(
    x: str, family: ClusterFamily, recs: RecommendationVector, epsilon: float
) -> float:
    """Fraction of x's cluster treated epsilon-similarly to x."""
    r_x = recs[x]
    members = family.cluster_of(x).members
    satisfied = sum(
        1 for y in members if treatment_similarity(r_x, recs[y]) > epsilon
    )
    return satisfied / len(members)


def relaxed_isf(
    x: str,
    family: ClusterFamily,
    recs: RecommendationVector,
    epsilon: float,
    theta: float,
) -> str:
    """Fair iff x's treatment is epsilon-similar to their cluster's majority
    label (so "most" similar people being treated alike is enough)."""
    agg = aggregate_set_recommendation(family.cluster_of(x), recs, theta)
    if treatment_similarity(binarize(recs[x]), agg) > epsilon:
        return FAIR
    return UNFAIR


def sf_process(
    pop: Population,
    family: ClusterFamily,
    recs: RecommendationVector,
    params: AuditParams,
) -> tuple[str, frozenset[str]]:
    """Process-level verdict plus the exact set of dissenting individuals.

    The process is fair iff no individual's ISF verdict is unfair.
    """
    dissenters = frozenset(
        x for x in pop.individuals if isf(x, family, recs, params.epsilon) == UNFAIR
    )
    return (FAIR if not dissenters else UNFAIR), dissenters


def classify_scenario(
    x: str,
    family: ClusterFamily,
    recs: RecommendationVector,
    set_recs: SetRecommendationVector,
    params: AuditParams,
) -> str:
    """Which fairness level x's cluster reaches.

    ISF_SATISFIED: x matches their cluster label and every member matches x.
    RELAXED_ONLY: x matches their cluster label but some member does not
    match x. NEITHER: x does not even match their cluster label.

    ``set_recs`` must have been computed at the same theta as ``params``.
    """
    if treatment_similarity(binarize(recs[x]), set_recs[x]) <= params.epsilon:
        return NEITHER
    if isf(x, family, recs, params.epsilon) == UNFAIR:
        return RELAXED_ONLY
    return ISF_SATISFIED


def classify_conflict(
    x: str,
    recs: RecommendationVector,
    set_recs: SetRecommendationVector,
    decisions: DecisionVector,
    epsilon: float,
) -> str:
    """How the conflict between x's recommendation and cluster label, if
    any, should be handled.

    NO_CONFLICT: x's recommendation matches their cluster label.
    JUSTIFIABLE_BY_GROUP: they differ, but the final decision sides with
    x's recommendation, so the group assignment itself is what needs
    justifying. SYSTEM_SUSPECT: recommendation, cluster label and final
    decision are mutually inconsistent; the system's recommendation needs
    review.
    """
    own = binarize(recs[x])
    if treatment_similarity(own, set_recs[x]) > epsilon:
        return NO_CONFLICT
    if treatment_similarity(own, decisions[x]) > epsilon:
        return JUSTIFIABLE_BY_GROUP
    return SYSTEM_SUSPECT


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
    """
    sf, dissenters = sf_process(pop, family, recs, params)
    verdicts: dict[str, FairnessVerdict] = {}
    scenarios: dict[str, str] = {}
    conflicts: dict[str, str] = {}
    for x in pop.individuals:
        verdicts[x] = FairnessVerdict(
            individual=x,
            isf=UNFAIR if x in dissenters else FAIR,
            relaxed_isf=relaxed_isf(x, family, recs, params.epsilon, params.theta),
            satisfaction_ratio=satisfaction_ratio(x, family, recs, params.epsilon),
        )
        scenarios[x] = classify_scenario(x, family, recs, set_recs, params)
        conflicts[x] = classify_conflict(x, recs, set_recs, decisions, params.epsilon)

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
