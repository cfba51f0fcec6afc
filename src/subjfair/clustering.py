"""Perceived-cluster construction and membership indexing.

Each individual owns one cluster: the set of people they rate at least
delta-similar to themself. Because similarity is non-symmetric, belonging to
someone's cluster says nothing about whose clusters you put them in, so a
separate inverse index tracks which clusters contain each individual.

Cost: ``build_cluster_family`` reads each person's own row of the perception
table once and then writes each cluster and its transpose once, so it runs
in O(n + nnz + sum |C|) time, where nnz is the number of entries and sum |C|
the total cluster size. It never looks up the n^2 pairs a table leaves
unstated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .core import PerceptionTable, Population, UnknownIndividualError


@dataclass(frozen=True)
class PerceivedCluster:
    """The set of individuals ``owner`` considers similar to themself.

    Always contains the owner: everyone rates themself 1.0, which clears
    any threshold in [0, 1].
    """

    owner: str
    members: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))
        if self.owner not in self.members:
            raise ValueError(f"cluster of {self.owner!r} must contain its owner")

    def __contains__(self, individual: str) -> bool:
        return individual in self.members

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ClusterFamily:
    """All perceived clusters of one population, plus the inverse index.

    ``clusters`` maps each owner to their cluster; ``membership_index`` maps
    each individual to the owners whose clusters contain them. The two views
    are exact transposes of each other.

    ``tally`` is a derived cache, not part of the family's value:
    ``aggregation.cluster_tally`` keeps there the labels and positive counts
    it last computed over these clusters, with the inputs it read.
    """

    clusters: Mapping[str, PerceivedCluster]
    membership_index: Mapping[str, frozenset[str]]
    tally: Any = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "clusters", dict(self.clusters))
        object.__setattr__(
            self,
            "membership_index",
            {i: frozenset(owners) for i, owners in self.membership_index.items()},
        )

    def cluster_of(self, individual: str) -> PerceivedCluster:
        try:
            return self.clusters[individual]
        except KeyError:
            raise UnknownIndividualError(individual) from None

    def containing(self, individual: str) -> frozenset[str]:
        """Owners whose clusters contain ``individual`` (never empty)."""
        try:
            return self.membership_index[individual]
        except KeyError:
            raise UnknownIndividualError(individual) from None


def build_cluster_family(
    pop: Population, perceptions: PerceptionTable, delta: float
) -> ClusterFamily:
    """One cluster per individual, plus the inverse membership index.

    Owner x's cluster is everyone x rates at least delta-similar, plus x:
    the threshold is inclusive, so delta = 0.0 admits the whole population.
    Entries naming ids outside the population are ignored.
    """
    ids = pop.id_set
    # A missing entry reads 0.0, so it either qualifies for every owner
    # (delta <= 0) or for none. Only the explicit entries whose verdict
    # differs from that default change a cluster. Rows of observers outside
    # the population are never read.
    missing_qualifies = 0.0 >= delta
    clusters: dict[str, PerceivedCluster] = {}
    index: dict[str, set[str]] = {x: set() for x in pop.individuals}
    for x in pop.individuals:
        row = perceptions.rows.get(x, {})
        if missing_qualifies:
            # Entries below delta (NaN included) leave; the owner stays.
            left = {z for z, value in row.items() if not value >= delta}
            left.discard(x)
            members = ids.difference(left)
        else:
            members = {z for z, value in row.items() if value >= delta and z in ids}
            members.add(x)
        clusters[x] = PerceivedCluster(x, members)
        for member in members:
            index[member].add(x)
    return ClusterFamily(clusters, index)
