"""Shared builders for the test suite."""

from __future__ import annotations

import random
from types import SimpleNamespace

from subjfair import (
    BINARY,
    MAJORITY,
    AggregationStrategy,
    AuditParams,
    AuditReport,
    Outcome,
    PerceivedCluster,
    PerceptionTable,
    Population,
    RecommendationVector,
    UnknownIndividualError,
    audit_population,
    build_cluster_family,
    run_pipeline,
)
from subjfair.harness.runfile import AuditRunFile
from subjfair.harness.synth import SynthProfile, generate_population, individual_ids


def perceived_cluster(
    x: str, pop: Population, perceptions: PerceptionTable, delta: float
) -> PerceivedCluster:
    """x's perceived cluster by n lookups: everyone x rates >= delta similar,
    and x. The per-owner reference ``build_cluster_family`` is checked
    against; the threshold is inclusive, so delta = 0.0 admits everyone.

    Raises:
        UnknownIndividualError: if ``x`` is not in the population.
    """
    if x not in pop:
        raise UnknownIndividualError(x)
    members = {z for z in pop.individuals if perceptions.similarity(x, z) >= delta}
    return PerceivedCluster(x, frozenset(members | {x}))


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
    make = Outcome.label if kind == "binary" else Outcome.score
    vector = RecommendationVector(purpose, {i: make(v) for i, v in recs.items()})
    params = AuditParams(delta=delta, epsilon=epsilon, theta=theta)
    family = build_cluster_family(pop, table, delta)
    return SimpleNamespace(
        pop=pop, table=table, recs=vector, params=params, family=family
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
    set_recs, decisions = run_pipeline(inputs.pop, inputs.family, inputs.recs, strategy)
    return audit_population(
        inputs.pop, inputs.family, inputs.recs, params, set_recs, decisions
    )


def similarity(a: Outcome, b: Outcome) -> float:
    """Treatment similarity by its definition, the reference the audit's
    epsilon tests are checked against: binary outcomes compare by exact
    match (1.0 or 0.0), scores by ``1 - |a - b|``."""
    if a.kind == BINARY:
        return 1.0 if a.value == b.value else 0.0
    return 1.0 - abs(a.value - b.value)


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
    set_recs, _ = run_pipeline(
        inputs.pop, inputs.family, inputs.recs, AggregationStrategy(strategy, theta=theta)
    )
    return int(set_recs[ids[0]].value)


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
        set_recs, decisions = run_pipeline(
            run.population, family, run.recommendations, run.strategy
        )
        if (
            set_recs[target].value == 1.0
            and set_recs[agent].value == 1.0
            and decisions[agent].value == 0.0
        ):
            return run
    raise LookupError(
        f"no manipulation-mitigation instance found within {max_seeds} seeds"
    )
