"""Two-stage decision pipeline and alternative aggregation strategies.

Stage 1 turns individual recommendations into one label per perceived
cluster; stage 2 turns cluster labels into one final decision per individual
by aggregating over every cluster that contains them. Both stages use one
strict majority test, ``majority_labels``: a tally exactly equal to theta
resolves to 0.

Besides plain majority voting the pipeline supports trust-weighted voting,
pessimistic conflict resolution (the bad outcome wins any conflict), and
attribute-based veto rules applied to final decisions.

Everything runs on lists of 0/1 labels indexed by person position, one
whole column at a time, and ``flagged_counts`` makes every count. The
stage-1 tally (``cluster_tally``) depends on neither theta nor the
strategy, so the caller makes it once per family and recommendation vector
and passes the value on: both pipeline stages, the audit's verdicts and
every theta of a sweep read it. Past its one ``binarize`` call per person
no stage calls a Python function per cluster or per person, and every
strategy costs at most O(n + sum |C|), but for the veto: ``veto_flags``
compares each rule with each person the attributes cover, once per point,
so its rules add O(rules * n).
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Iterable, Mapping
from functools import partial
from itertools import chain, compress, repeat
from typing import Any

from .clustering import ClusterFamily
from .core import BAD_LABEL, InputError, Population, RecommendationVector, Value, number

MAJORITY = "majority"
TRUST_WEIGHTED = "trust_weighted"
PESSIMISTIC = "pessimistic"
VETO = "veto"

STRATEGY_KINDS = (MAJORITY, TRUST_WEIGHTED, PESSIMISTIC, VETO)


_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


class VetoRule(Value):
    """Set the decision of everyone matching a predicate to 0.

    E.g. ``VetoRule("age", "<", 18)`` strips a positive decision from
    anyone under 18. The attribute and the operator are strings.
    """

    _fields = ("attribute", "op", "operand")
    attribute: str
    op: str
    operand: Any

    def __init__(self, attribute: str, op: str, operand: Any) -> None:
        for name, value in (("attribute", attribute), ("op", op)):
            if not isinstance(value, str):
                raise InputError(f"expected a string {name}, got {value!r}", (name,))
        if op not in _OPS:
            raise InputError(f"unknown veto operator {op!r}", ("op",))
        self._set(attribute=attribute, op=op, operand=operand)

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        if self.attribute not in attributes:
            return False
        return bool(_OPS[self.op](attributes[self.attribute], self.operand))


class AggregationStrategy(Value):
    """How the pipeline aggregates at both stages.

    kind: one of majority, trust_weighted, pessimistic, veto. The veto kind
        aggregates by majority and then applies its rules to the final
        decisions.
    theta: majority threshold, strict, in [0, 1). Unused by pessimistic.
    """

    _fields = ("kind", "theta", "veto_rules")
    kind: str
    theta: float
    veto_rules: tuple[VetoRule, ...]

    def __init__(
        self, kind: str = MAJORITY, theta: float = 0.5, veto_rules: Iterable[VetoRule] = ()
    ) -> None:
        if kind not in STRATEGY_KINDS:
            raise InputError(f"unknown strategy kind {kind!r}", ("kind",))
        theta = number(theta, ("theta",), "theta")
        if not 0.0 <= theta < 1.0:
            raise InputError(f"theta must be in [0, 1), got {theta}", ("theta",))
        veto_rules = tuple(veto_rules)
        if veto_rules and kind != VETO:
            raise InputError("veto rules are only valid with the veto strategy", ("veto_rules",))
        self._set(kind=kind, theta=theta, veto_rules=veto_rules)


def veto_flags(rules: Iterable[VetoRule], pop: Population) -> list[int]:
    """One 0/1 flag per position of ``pop``, 1 where a rule matches the
    person, so their decision becomes 0.

    Each rule is compared with each person the attributes cover, rule by
    rule in attribute order: O(rules * n). A rule naming an attribute the
    population lacks, or whose operand cannot be compared with someone's
    value, is refused at ``veto_rules``."""
    keys, positions = pop.attribute_keys(), pop.positions
    flags = [0] * len(pop)
    for rule in rules:
        if rule.attribute not in keys:
            message = f"veto rule references unknown attribute {rule.attribute!r}"
            raise InputError(message, ("veto_rules",))
        for individual, attrs in pop.attributes.items():
            try:
                if rule.matches(attrs):
                    flags[positions[individual]] = 1
            except TypeError:
                raise InputError(
                    f"veto rule {rule.attribute} {rule.op} {rule.operand!r} cannot "
                    f"compare {individual}'s value {attrs[rule.attribute]!r}",
                    ("veto_rules",),
                ) from None
    return flags


def binarize(value: float) -> int:
    """The 0/1 label of a recommendation: 1 iff strictly above 0.5, so a
    binary label is its own label and a score of exactly 0.5 is 0."""
    return 1 if value > 0.5 else 0


def flagged_counts(flags: Iterable[int], lists: list[list[int]]) -> list[int]:
    """For each position k, how many flagged positions j have k in
    ``lists[j]``: ``flags`` holds one 0/1 flag per position, and ``lists``
    one list of positions per position, so its length is the count's.

    One C-level pass counts the lists of the flagged positions only, so it
    costs O(n + sum over flagged j of |lists[j]|) and never reads the list
    of an unflagged position.
    """
    counts = Counter(chain.from_iterable(compress(lists, flags)))
    return list(map(counts.get, range(len(lists)), repeat(0)))


def majority_labels(positive: Iterable[int], sizes: Iterable[int], theta: float) -> list[int]:
    """The strict theta rule over whole columns: label k is 1 iff the share
    ``positive[k] / sizes[k]`` is strictly above theta, else 0, so a tally
    exactly at theta resolves to 0."""
    return [1 if p / size > theta else 0 for p, size in zip(positive, sizes)]


def unanimous_labels(positive: Iterable[int], sizes: Iterable[int]) -> list[int]:
    """The pessimistic rule over whole columns: label k is 1 iff every one of
    the ``sizes[k]`` labels is positive, so the bad outcome wins any
    conflict."""
    return [1 if p == size else 0 for p, size in zip(positive, sizes)]


def cluster_tally(
    pop: Population, family: ClusterFamily, recs: RecommendationVector
) -> tuple[list[int], list[int]]:
    """The stage-1 tally ``(label, positive)``, by position: ``label[k]`` is
    the binarized recommendation of the person at position k of ``pop``, and
    ``positive[k]`` counts the positive labels in their cluster.

    One ``binarize`` call per person and one ``flagged_counts`` pass over
    the owner lists of the positive people: O(n + sum over them of the
    clusters they sit in), at most O(n + sum |C|).
    """
    label = list(map(binarize, map(recs.values.__getitem__, pop.individuals)))
    return label, flagged_counts(label, family.owners)


def run_pipeline(
    pop: Population,
    family: ClusterFamily,
    tally: tuple[list[int], list[int]],
    strategy: AggregationStrategy | None = None,
) -> tuple[list[int], list[int]]:
    """Run both stages and return (cluster labels, final decisions), each a
    0/1 label by person position: ``set_labels[k]`` is the label of the
    cluster of the person at position k, ``decisions[k]`` their decision.

    ``tally`` is ``cluster_tally`` of the same ``pop`` and ``family``;
    stage 1 reads each cluster's positive count off it. The decisions are
    total: everyone belongs at least to their own cluster, so stage 2
    always has something to aggregate.
    """
    strategy = strategy or AggregationStrategy()
    if strategy.kind == PESSIMISTIC:
        rule = unanimous_labels
    else:
        rule = partial(majority_labels, theta=strategy.theta)
    label, positive = tally
    members, owners = family.members, family.owners
    sizes = list(map(len, members))
    set_label = rule(positive, sizes)
    if strategy.kind == TRUST_WEIGHTED:
        # Weight 1 for a label that matches its owner's cluster majority,
        # else 0. A cluster tallies the positive labels of weight 1 over all
        # labels of weight 1, and keeps its plain tally when none has
        # weight, so nothing divides by zero. Only the members of weight 0
        # are counted, with the positive ones among them (label 1 against
        # a cluster label of 0); the rest follow from the plain counts.
        zero = flagged_counts(map(operator.ne, label, set_label), owners)
        zero_positive = flagged_counts(map(operator.gt, label, set_label), owners)
        weights = [size - z for size, z in zip(sizes, zero)]
        set_label = rule(
            [p - zp if w else p for p, zp, w in zip(positive, zero_positive, weights)],
            [w or size for w, size in zip(weights, sizes)],
        )

    decisions = rule(flagged_counts(set_label, members), map(len, owners))
    if strategy.veto_rules:
        vetoed = veto_flags(strategy.veto_rules, pop)
        decisions = [BAD_LABEL if v else d for d, v in zip(decisions, vetoed)]
    return set_label, decisions
