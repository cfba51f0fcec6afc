"""Shared builders for the test suite."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from collections.abc import Mapping
from types import SimpleNamespace

from subjfair import (
    BINARY,
    MAJORITY,
    PESSIMISTIC,
    TRUST_WEIGHTED,
    AggregationStrategy,
    AuditParams,
    AuditReport,
    ExplanationObligation,
    InputError,
    ObjectiveDistanceTable,
    PerceptionTable,
    Population,
    RecommendationVector,
    audit_population,
    build_cluster_family,
    cluster_tally,
    run_pipeline,
)
from subjfair.baselines import GAP_TOLERANCE
from subjfair.clustering import ClusterFamily
from subjfair.harness.runfile import AuditRunFile
from subjfair.harness.synth import SynthProfile, generate_population, individual_ids


def perceived_cluster(
    x: str, pop: Population, perceptions: PerceptionTable, delta: float
) -> list[int]:
    """x's perceived cluster by n lookups, as its members' positions in id
    order: everyone x rates >= delta similar, and x. The per-owner reference
    ``build_cluster_family`` is checked against; the threshold is inclusive,
    so delta = 0.0 admits everyone.

    Raises:
        KeyError: if ``x`` is not in the population.
    """
    if x not in pop:
        raise KeyError(x)
    ids = pop.individuals
    return [k for k in pop.order if ids[k] == x or perceptions.similarity(x, ids[k]) >= delta]


def by_id(ids: tuple[str, ...], labels: list[int]) -> dict[str, int]:
    """The 0/1 labels of the people of ``ids``, by position, as ``{id: label}``."""
    return dict(zip(ids, labels))


def obligation_records(owed: dict[str, tuple[str, ...]]) -> list[ExplanationObligation]:
    """One obligation per kind ``owed`` names, person by person."""
    return [ExplanationObligation(x, kind) for x, kinds in owed.items() for kind in kinds]


def make_inputs(
    rows: dict[str, dict[str, float]],
    recs: dict[str, float],
    delta: float = 0.5,
    epsilon: float = 0.0,
    theta: float = 0.5,
    kind: str = "binary",
    attributes: dict[str, dict] | None = None,
    purpose: str = "test",
) -> SimpleNamespace:
    """Assemble validated audit inputs from plain dicts."""
    pop = Population(tuple(rows), attributes)
    table = PerceptionTable(rows)
    vector = RecommendationVector(purpose, recs, kind)
    params = AuditParams(delta=delta, epsilon=epsilon, theta=theta)
    family = build_cluster_family(pop, table, delta)
    return SimpleNamespace(
        pop=pop,
        table=table,
        recs=vector,
        params=params,
        family=family,
        tally=cluster_tally(pop, family, vector),
    )


def audit(
    inputs: SimpleNamespace,
    epsilon: float | None = None,
    theta: float | None = None,
    kind: str = MAJORITY,
) -> AuditReport:
    """Run the ``kind`` pipeline over ``inputs`` and audit the result, at
    the inputs' own epsilon and theta unless given."""
    params = AuditParams(
        delta=inputs.params.delta,
        epsilon=inputs.params.epsilon if epsilon is None else epsilon,
        theta=inputs.params.theta if theta is None else theta,
    )
    strategy = AggregationStrategy(kind, theta=params.theta)
    set_labels, decisions = run_pipeline(inputs.pop, inputs.family, inputs.tally, strategy)
    return audit_population(
        inputs.pop, inputs.family, inputs.recs, params, inputs.tally, set_labels, decisions
    )


class CountingMapping(Mapping):
    """A read-only mapping that counts every key it is asked for and every
    key or item it hands out, for work gates on the tables the engine
    walks."""

    def __init__(self, data):
        self.data = data
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return self.data[key]

    def __contains__(self, key):
        self.reads += 1
        return key in self.data

    def __iter__(self):
        for key in self.data:
            self.reads += 1
            yield key

    def __len__(self):
        return len(self.data)

    def items(self):
        for item in self.data.items():
            self.reads += 1
            yield item


def counted_map(table, name):
    """Put a ``CountingMapping`` in place of the map ``name`` of the built
    distance ``table``, and return it."""
    counting = CountingMapping(getattr(table, name))
    object.__setattr__(table, name, counting)
    return counting


def if_checks_by_pair(
    scores: dict[str, float], distances: ObjectiveDistanceTable
) -> tuple[list, list]:
    """Both individual-fairness checks by their per-pair definition, the
    reference ``dwork_if_check`` and ``subjective_if_check`` are checked
    against: each sorted pair of scored people in turn, its distance looked
    up, then each party's own distance, the objective one when the party
    stated none. Returns the (objective, subjective) violations.

    Raises:
        InputError: naming the first scored pair with no distance.
    """
    objective, subjective = [], []
    overrides = distances.subjective_overrides
    for pair in itertools.combinations(sorted(scores), 2):
        d = distances.entries.get(pair)
        if d is None:
            raise InputError(f"no distance recorded for pair ({pair[0]}, {pair[1]})")
        gap = abs(scores[pair[0]] - scores[pair[1]])
        if gap > d + GAP_TOLERANCE:
            objective.append((pair, gap, d))
        for observer in pair:
            perceived = overrides.get((observer, *pair), d)
            if gap > perceived + GAP_TOLERANCE:
                subjective.append((observer, pair, gap, perceived))
    return objective, subjective


def pipeline_by_cluster(
    pop: Population,
    family: ClusterFamily,
    recs: RecommendationVector,
    strategy: AggregationStrategy,
    reached: Counter | None = None,
) -> tuple[list[int], list[int]]:
    """Both pipeline stages tallied cluster by cluster and person by person,
    each by a scalar majority test: the reference the whole-column kernels
    of ``run_pipeline`` are checked against.

    ``reached`` counts the cases met: ``tie`` for a tally exactly at theta,
    ``singleton`` for a cluster of one, ``zero_weight`` for a trust-weighted
    cluster whose weight total is 0.
    """
    reached = Counter() if reached is None else reached
    theta = strategy.theta

    def majority_label(positive: int, size: int) -> int:
        if positive / size == theta:
            reached["tie"] += 1
        return 1 if positive / size > theta else 0

    def unanimous(positive: int, size: int) -> int:
        return 1 if positive == size else 0

    tally = unanimous if strategy.kind == PESSIMISTIC else majority_label
    label = [1 if recs.values[i] > 0.5 else 0 for i in pop.individuals]
    members = family.members
    reached["singleton"] += sum(len(c) == 1 for c in members)
    positive = [sum(map(label.__getitem__, c)) for c in members]
    set_label = list(map(tally, positive, map(len, members)))
    if strategy.kind == TRUST_WEIGHTED:
        # a member has weight 1 iff their label equals the plain label of
        # their own cluster; the plain labels are read before any changes
        plain = list(set_label)
        for k, c in enumerate(members):
            total = trusted = 0
            for j in c:
                if label[j] == plain[j]:
                    total += 1
                    trusted += label[j]
            if total:
                set_label[k] = tally(trusted, total)
            else:
                reached["zero_weight"] += 1
    decisions = [tally(sum(map(set_label.__getitem__, o)), len(o)) for o in family.owners]
    attributes = pop.attributes or {}
    for k, i in enumerate(pop.individuals):
        if any(rule.matches(attributes.get(i, {})) for rule in strategy.veto_rules):
            decisions[k] = 0
    return set_label, decisions


def honest_rows_by_pair(
    rng: random.Random, ids: list[str], density: float
) -> dict[str, dict[str, float]]:
    """The honest perception table drawn pair by pair, testing each
    (observer, target) pair for the diagonal: the reference
    ``synth.honest_rows`` is checked against."""
    rows: dict[str, dict[str, float]] = {}
    for observer in ids:
        row = {observer: 1.0}
        for target in ids:
            if target != observer and rng.random() < density:
                row[target] = round(rng.random(), 3)
        rows[observer] = row
    return rows


def similarity(a: float, b: float, kind: str) -> float:
    """Treatment similarity of two recommendations of ``kind`` by its
    definition, the reference the audit's epsilon tests are checked against:
    binary labels compare by exact match (1.0 or 0.0), scores by
    ``1 - |a - b|``."""
    if kind == BINARY:
        return 1.0 if a == b else 0.0
    return 1.0 - abs(a - b)


def cluster_label(
    recs: list[float], theta: float = 0.5, kind: str = "binary", strategy: str = MAJORITY
) -> int:
    """The stage-1 label ``run_pipeline`` gives one cluster that holds one
    person per value of ``recs``: p0 rates everyone 1.0, everyone else
    rates only themself."""
    ids = [f"p{k}" for k in range(len(recs))]
    rows = {i: {i: 1.0} for i in ids}
    rows[ids[0]] = dict.fromkeys(ids, 1.0)
    inputs = make_inputs(rows, dict(zip(ids, recs)), theta=theta, kind=kind)
    set_labels, _ = run_pipeline(
        inputs.pop, inputs.family, inputs.tally, AggregationStrategy(strategy, theta=theta)
    )
    return set_labels[0]


def as_run(inputs: SimpleNamespace, kind: str = MAJORITY) -> AuditRunFile:
    """The run file of ``inputs`` under the ``kind`` strategy at their theta."""
    return AuditRunFile(
        population=inputs.pop,
        perceptions=inputs.table,
        recommendations=inputs.recs,
        params=inputs.params,
        strategy=AggregationStrategy(kind, theta=inputs.params.theta),
    )


def rows_of(entries: dict[tuple[str, str], float]) -> dict[str, dict[str, float]]:
    """The per-observer rows of a ``{(observer, target): value}`` dict, the
    form the tests' literal definitions are written in."""
    rows: dict[str, dict[str, float]] = {}
    for (observer, target), value in entries.items():
        rows.setdefault(observer, {})[target] = value
    return rows


def random_rows(
    rng: random.Random, ids: list[str], density: float = 0.5
) -> dict[str, dict[str, float]]:
    """A valid perception table: diagonal 1.0, off-diagonal drawn at the
    given density with values on a coarse grid (so thresholds hit
    boundaries often)."""
    grid = [0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0]
    rows: dict[str, dict[str, float]] = {}
    for x in ids:
        row = {x: 1.0}
        for z in ids:
            if z != x and rng.random() < density:
                row[z] = rng.choice(grid)
        rows[x] = row
    return rows


def random_instance(
    rng: random.Random,
    max_n: int = 8,
    kind: str = "binary",
    delta: float | None = None,
    theta: float | None = None,
    epsilon: float = 0.0,
) -> SimpleNamespace:
    """A random valid audit instance for seeded property loops."""
    n = rng.randint(1, max_n)
    ids = [f"p{k}" for k in range(n)]
    rows = random_rows(rng, ids, density=rng.choice([0.2, 0.5, 0.8]))
    if kind == "binary":
        recs = {i: float(rng.randint(0, 1)) for i in ids}
    else:
        recs = {i: round(rng.random(), 3) for i in ids}
    if delta is None:
        delta = rng.choice([0.0, 0.3, 0.5, 0.8, 1.0])
    if theta is None:
        theta = rng.choice([0.25, 0.4, 0.5, 0.6, 0.75])
    return make_inputs(rows, recs, delta=delta, epsilon=epsilon, theta=theta, kind=kind)


def find_manipulation_instance(
    n: int = 6,
    cluster_density: float = 0.35,
    base_positive_rate: float = 0.5,
    max_seeds: int = 1000,
) -> AuditRunFile:
    """Search seeds for a run where manipulation demonstrably fails.

    Returns the first generated run in which the manipulating agent lands
    in a favorable cluster (both the target's cluster and the agent's own
    post-manipulation cluster carry label 1) yet the cross-cluster decision
    still denies them.

    Raises:
        LookupError: if no such instance appears within ``max_seeds``.
    """
    ids = individual_ids(n)
    agent, target = ids[0], ids[-1]
    for seed in range(max_seeds):
        profile = SynthProfile(
            n=n,
            cluster_density=cluster_density,
            base_positive_rate=base_positive_rate,
            manipulation=((agent, target),),
            seed=seed,
        )
        run = generate_population(profile)
        family = build_cluster_family(run.population, run.perceptions, run.params.delta)
        tally = cluster_tally(run.population, family, run.recommendations)
        set_labels, decisions = run_pipeline(run.population, family, tally, run.strategy)
        a, t = run.population.positions[agent], run.population.positions[target]
        if set_labels[t] == 1 and set_labels[a] == 1 and decisions[a] == 0:
            return run
    raise LookupError(
        f"no manipulation-mitigation instance found within {max_seeds} seeds"
    )
