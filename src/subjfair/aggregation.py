"""Two-stage decision pipeline and alternative aggregation strategies.

Stage 1 turns individual recommendations into one label per perceived
cluster; stage 2 turns cluster labels into one final decision per individual
by aggregating over every cluster that contains them. Both stages use a
strict majority test: a tally exactly equal to theta resolves to 0.

Besides plain majority voting the pipeline supports trust-weighted voting,
pessimistic conflict resolution (the bad outcome wins any conflict), and
attribute-based veto rules applied to final decisions.

Every strategy runs in O(sum |C|) time over the cluster family: trust
weighting computes each cluster's unweighted majority and each person's
weight once, then reads them from every cluster the person sits in.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .clustering import ClusterFamily, PerceivedCluster
from .core import (
    BAD_LABEL,
    GOOD_LABEL,
    InputError,
    Outcome,
    Population,
    RecommendationVector,
    DecisionVector,
    UnknownIndividualError,
    treatment_similarity,
)

MAJORITY = "majority"
TRUST_WEIGHTED = "trust_weighted"
PESSIMISTIC = "pessimistic"
VETO = "veto"

STRATEGY_KINDS = (MAJORITY, TRUST_WEIGHTED, PESSIMISTIC, VETO)


class ConfigError(InputError):
    """A strategy or veto-rule configuration is unusable."""


@dataclass(frozen=True)
class SetRecommendationVector:
    """One aggregated binary recommendation per cluster owner."""

    purpose: str
    values: Mapping[str, Outcome]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", dict(self.values))

    def __getitem__(self, owner: str) -> Outcome:
        try:
            return self.values[owner]
        except KeyError:
            raise UnknownIndividualError(owner) from None


_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


@dataclass(frozen=True)
class VetoRule:
    """Force a decision label to 0 for individuals matching a predicate.

    E.g. ``VetoRule("age", "<", 18, vetoed_label=1)`` strips a positive
    decision from anyone under 18.
    """

    attribute: str
    op: str
    operand: Any
    vetoed_label: int = GOOD_LABEL

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ConfigError(f"unknown veto operator {self.op!r}")
        if self.vetoed_label not in (0, 1):
            raise ConfigError(f"vetoed label must be 0 or 1, got {self.vetoed_label}")

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        if self.attribute not in attributes:
            return False
        return bool(_OPS[self.op](attributes[self.attribute], self.operand))


@dataclass(frozen=True)
class AggregationStrategy:
    """How the pipeline aggregates at both stages.

    kind: one of majority, trust_weighted, pessimistic, veto. The veto kind
        aggregates by majority and then applies its rules to the final
        decisions.
    theta: majority threshold, strict, in [0, 1). Unused by pessimistic.
    """

    kind: str = MAJORITY
    theta: float = 0.5
    veto_rules: tuple[VetoRule, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy kind {self.kind!r}")
        if not 0.0 <= self.theta < 1.0:
            raise ConfigError(f"theta must be in [0, 1), got {self.theta}")
        object.__setattr__(self, "veto_rules", tuple(self.veto_rules))
        if self.veto_rules and self.kind != VETO:
            raise ConfigError("veto rules are only valid with the veto strategy")


def validate_veto_rules(rules: Iterable[VetoRule], pop: Population) -> None:
    """Reject rules referencing attribute keys the population lacks, or
    whose operand cannot be compared with some individual's value."""
    keys = pop.attribute_keys()
    for rule in rules:
        if rule.attribute not in keys:
            raise ConfigError(
                f"veto rule references unknown attribute {rule.attribute!r}"
            )
        for individual, attrs in (pop.attributes or {}).items():
            try:
                rule.matches(attrs)
            except TypeError:
                raise ConfigError(
                    f"veto rule {rule.attribute} {rule.op} {rule.operand!r} cannot "
                    f"compare {individual}'s value {attrs[rule.attribute]!r}"
                ) from None


def binarize(outcome: Outcome) -> Outcome:
    """Binary view of an outcome: scores become 1 iff strictly above 0.5."""
    if outcome.is_binary:
        return outcome
    return Outcome.label(GOOD_LABEL if outcome.value > 0.5 else BAD_LABEL)


def aggregate_set_recommendation(
    cluster: PerceivedCluster, recs: RecommendationVector, theta: float
) -> Outcome:
    """Stage 1: majority label of one cluster.

    Returns 1 iff the fraction of members with a positive (binarized)
    recommendation is strictly above theta, else 0. A tie at exactly theta
    resolves to 0.
    """
    if not cluster.members:
        raise ValueError(f"cluster of {cluster.owner!r} is empty")
    tally = sum(binarize(recs[m]).value for m in cluster.members) / len(cluster.members)
    return Outcome.label(1 if tally > theta else 0)


def aggregate_individual_decision(
    i: str, family: ClusterFamily, set_recs: SetRecommendationVector, theta: float
) -> Outcome:
    """Stage 2: majority over the clusters that contain ``i``.

    Returns 1 iff the mean cluster label across every cluster containing
    ``i`` is strictly above theta, else 0. Each containing cluster counts
    once per owner.
    """
    owners = family.containing(i)
    tally = sum(set_recs[o].value for o in owners) / len(owners)
    return Outcome.label(1 if tally > theta else 0)


def trust_weight(
    x: str, family: ClusterFamily, recs: RecommendationVector, theta: float = 0.5
) -> float:
    """Weight of x's recommendation: 1.0 when it matches their own cluster's
    majority, else 0.0 (binary treatments).

    Someone whose recommendation agrees with the people they grouped
    themselves with is taken to have drawn their cluster honestly, so their
    vote carries full weight in trust-weighted aggregation.
    """
    own_majority = aggregate_set_recommendation(family.cluster_of(x), recs, theta)
    return _agreement(recs[x], own_majority)


def _agreement(rec: Outcome, own_majority: Outcome) -> float:
    return treatment_similarity(binarize(rec), own_majority)


def _trust_weighted_set_recommendation(
    cluster: PerceivedCluster,
    recs: RecommendationVector,
    theta: float,
    weights: Mapping[str, float],
    majority: Outcome,
) -> Outcome:
    # Weighted positive fraction; an all-zero weight sum falls back to the
    # cluster's unweighted ``majority``.
    total = sum(weights[m] for m in cluster.members)
    if total == 0.0:
        return majority
    tally = (
        sum(weights[m] * binarize(recs[m]).value for m in cluster.members) / total
    )
    return Outcome.label(1 if tally > theta else 0)


def resolve_pessimistic(conflicting: Iterable[Outcome]) -> Outcome:
    """Reconcile conflicting binary outcomes by favoring the bad one.

    Returns 0 if any outcome is 0, else 1.

    Raises:
        ValueError: on an empty collection.
    """
    outcomes = list(conflicting)
    if not outcomes:
        raise ValueError("cannot resolve an empty set of outcomes")
    return Outcome.label(0 if any(binarize(o).value == 0.0 for o in outcomes) else 1)


def apply_veto(
    i: str,
    decision: Outcome,
    rules: Iterable[VetoRule],
    attributes: Mapping[str, Mapping[str, Any]] | None,
) -> Outcome:
    """Force the decision to 0 when a matching rule vetoes its label."""
    attrs = (attributes or {}).get(i, {})
    d = binarize(decision)
    for rule in rules:
        if rule.matches(attrs) and d.value == rule.vetoed_label:
            return Outcome.label(0)
    return d


def run_pipeline(
    pop: Population,
    family: ClusterFamily,
    recs: RecommendationVector,
    strategy: AggregationStrategy | None = None,
) -> tuple[SetRecommendationVector, DecisionVector]:
    """Run both stages and return (cluster labels, final decisions).

    The decision vector is total: everyone belongs at least to their own
    cluster, so stage 2 always has something to aggregate.
    """
    strategy = strategy or AggregationStrategy()
    if strategy.veto_rules:
        validate_veto_rules(strategy.veto_rules, pop)

    if strategy.kind == TRUST_WEIGHTED:
        # Each cluster's majority and each person's weight, once: a weight
        # depends only on its owner's cluster, however many clusters it is
        # read in.
        majority = {
            x: aggregate_set_recommendation(family.cluster_of(x), recs, strategy.theta)
            for x in pop.individuals
        }
        weights = {x: _agreement(recs[x], majority[x]) for x in pop.individuals}

    set_values: dict[str, Outcome] = {}
    for owner in pop.individuals:
        cluster = family.cluster_of(owner)
        if strategy.kind == TRUST_WEIGHTED:
            label = _trust_weighted_set_recommendation(
                cluster, recs, strategy.theta, weights, majority[owner]
            )
        elif strategy.kind == PESSIMISTIC:
            label = resolve_pessimistic(recs[m] for m in cluster.members)
        else:
            label = aggregate_set_recommendation(cluster, recs, strategy.theta)
        set_values[owner] = label
    set_recs = SetRecommendationVector(recs.purpose, set_values)

    decisions: dict[str, Outcome] = {}
    for i in pop.individuals:
        if strategy.kind == PESSIMISTIC:
            decision = resolve_pessimistic(set_recs[o] for o in family.containing(i))
        else:
            decision = aggregate_individual_decision(i, family, set_recs, strategy.theta)
        if strategy.veto_rules:
            decision = apply_veto(i, decision, strategy.veto_rules, pop.attributes)
        decisions[i] = decision

    return set_recs, DecisionVector(recs.purpose, decisions)
