"""Perceived-cluster construction and membership indexing.

Each individual owns one cluster: the set of people they rate at least
delta-similar to themself. Because similarity is non-symmetric, belonging to
someone's cluster says nothing about whose clusters you put them in, so a
separate inverse index tracks which clusters contain each individual.

A family holds both as lists of person positions, each in id order.

Cost: ``build_cluster_family`` reads each person's own row of the perception
table once, writes each cluster once and transposes the family twice, in id
order, so it runs in O(n + nnz + sum |C|) time, where nnz is the number of
entries and sum |C| the total cluster size, with no record or set per owner.
It never looks up the n^2 pairs a table leaves unstated.
"""

from __future__ import annotations

from typing import Any

from .core import PerceptionTable, Population, Value


class ClusterFamily(Value):
    """All perceived clusters of one population, plus the inverse index.

    ``members[k]`` lists the positions in the cluster of the person at
    position k of the population, the owner included; ``owners[k]`` lists
    the owners whose clusters contain that person, never empty. Both are in
    id order, and they are exact transposes of each other.
    """

    _fields = ("members", "owners")
    members: list[list[int]]
    owners: list[list[int]]


def _transpose(lists: list[list[int]], order: list[int]) -> list[list[int]]:
    # Row j of the result lists every k whose row holds j, in ``order``.
    result: list[list[int]] = [[] for _ in lists]
    for k in order:
        for j in lists[k]:
            result[j].append(k)
    return result


def build_cluster_family(
    pop: Population, perceptions: PerceptionTable, delta: float
) -> ClusterFamily:
    """One cluster per individual, plus the inverse membership index.

    Owner x's cluster is everyone x rates at least delta-similar, plus x:
    the threshold is inclusive, so delta = 0.0 admits the whole population.
    Entries naming ids outside the population are ignored.
    """
    positions = pop.positions
    everyone = range(len(positions))
    # A missing entry reads 0.0, so it qualifies for every owner (delta <= 0)
    # or for none; only the explicit entries that differ change a cluster.
    # Rows of observers outside the population are never read.
    missing_qualifies = 0.0 >= delta
    clusters: list[Any] = []
    for k, x in enumerate(pop.individuals):
        row = perceptions.rows.get(x, {})
        if missing_qualifies:
            # Entries below delta (NaN included) leave; the owner stays.
            left = {positions.get(z) for z, value in row.items() if not value >= delta}
            left.discard(k)
            clusters.append([j for j in everyone if j not in left] if left else everyone)
        else:
            cluster = [
                positions[z] for z, value in row.items() if value >= delta and z in positions
            ]
            own = row.get(x)
            if own is None or not own >= delta:
                cluster.append(k)
            clusters.append(cluster)
    # Transposing in id order lists each person's owners in id order, and
    # transposing those back lists each cluster's members in id order.
    owners = _transpose(clusters, pop.order)
    return ClusterFamily(_transpose(owners, pop.order), owners)
