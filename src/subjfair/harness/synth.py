"""Seeded synthetic populations, including manipulative agents.

A manipulative agent inflates their stated similarity toward every member
of a target owner's cluster, placing themselves in a cluster whose
aggregate label they hope to inherit. Because the cross-cluster decision
stage also counts the clusters *other* people put the agent in, the
manipulation does not necessarily pay off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .. import __version__
from ..aggregation import AggregationStrategy
from ..core import (
    AuditParams,
    InputError,
    PerceptionTable,
    Population,
    RecommendationVector,
    validate_population,
)
from .runfile import AuditRunFile

#: Parameters a generated run is audited with.
DEFAULT_PARAMS = AuditParams(delta=0.5, epsilon=0.0, theta=0.5)


@dataclass(frozen=True)
class SynthProfile:
    """Shape of a synthetic population.

    cluster_density is the probability that any off-diagonal perception
    entry is drawn at all (drawn values are uniform in [0, 1], so density 0
    leaves every cluster a singleton at the default delta).
    manipulation lists (agent, target owner) pairs: each agent's similarity
    toward every member of the target's cluster is raised above the cluster
    threshold after the honest table is drawn.
    """

    n: int = 8
    cluster_density: float = 0.3
    base_positive_rate: float = 0.5
    manipulation: tuple[tuple[str, str], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError(f"population size must be >= 1, got {self.n}")
        if not 0.0 <= self.cluster_density <= 1.0:
            raise InputError(f"cluster_density must be in [0, 1], got {self.cluster_density}")
        if not 0.0 <= self.base_positive_rate <= 1.0:
            raise InputError(
                f"base_positive_rate must be in [0, 1], got {self.base_positive_rate}"
            )
        object.__setattr__(
            self, "manipulation", tuple((str(a), str(t)) for a, t in self.manipulation)
        )


def individual_ids(n: int) -> list[str]:
    """Stable zero-padded ids i00, i01, ... for a population of size n."""
    width = max(2, len(str(n - 1)))
    return [f"i{k:0{width}d}" for k in range(n)]


def honest_rows(
    rng: random.Random, ids: list[str], density: float
) -> dict[str, dict[str, float]]:
    """The honest perception table, row by row in id order: each observer
    rates themself 1.0, and every other person, in id order, is drawn with
    probability ``density`` and then given a value uniform in [0, 1] to 3
    decimals. The observer is skipped by slicing around them, so ``rng`` is
    asked for exactly one draw per other person, plus one per drawn entry."""
    draw = rng.random
    rows: dict[str, dict[str, float]] = {}
    for k, observer in enumerate(ids):
        row = {observer: 1.0}
        for others in (ids[:k], ids[k + 1 :]):
            for target in others:
                if draw() < density:
                    row[target] = round(draw(), 3)
        rows[observer] = row
    return rows


def generate_population(profile: SynthProfile) -> AuditRunFile:
    """Draw a run file deterministically from the profile's seed.

    The honest table is drawn first (diagonal 1.0, off-diagonal entries
    drawn with probability cluster_density), recommendations second, and
    manipulation applied last: for each (agent, target) pair the agent's
    similarity toward every current member of the target's cluster is
    raised to clear the cluster threshold.
    """
    rng = random.Random(profile.seed)
    ids = individual_ids(profile.n)
    known = set(ids)

    rows = honest_rows(rng, ids, profile.cluster_density)
    rec_values = {i: 1 if rng.random() < profile.base_positive_rate else 0 for i in ids}

    delta = DEFAULT_PARAMS.delta
    boost = round(min(1.0, delta + (1.0 - delta) * 0.9), 3)
    for agent, target in profile.manipulation:
        for i in (agent, target):
            if i not in known:
                raise InputError(f"manipulation references unknown id {i!r}")
        target_members = [
            z for z in ids if rows[target].get(z, 0.0) >= delta
        ]
        for member in target_members:
            if member != agent:
                rows[agent][member] = max(rows[agent].get(member, 0.0), boost)

    population = Population(tuple(ids))
    perceptions = PerceptionTable(rows, provenance="sampled")
    recommendations = RecommendationVector("synthetic", rec_values)
    violations = validate_population(population, perceptions, recommendations)
    if violations:
        raise AssertionError(f"generator produced invalid inputs: {violations}")

    return AuditRunFile(
        population=population,
        perceptions=perceptions,
        recommendations=recommendations,
        params=DEFAULT_PARAMS,
        strategy=AggregationStrategy(theta=DEFAULT_PARAMS.theta),
        metadata={
            "seed": profile.seed,
            "engine_version": __version__,
            "generator": "synthetic",
            "manipulation": [list(pair) for pair in profile.manipulation],
        },
    )
