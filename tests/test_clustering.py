import random

import pytest
from hypothesis import given, settings, strategies as st

from subjfair import (
    PerceptionTable,
    Population,
    build_cluster_family,
)

from helpers import make_inputs, perceived_cluster, random_rows, rows_of


FOUR = Population(("x", "y", "u", "v"))
#: The positions of ``FOUR``; its id order is u, v, x, y.
X, Y, U, V = range(4)


def test_threshold_filter():
    table = PerceptionTable(
        {"x": {"x": 1.0, "y": 0.8, "u": 0.2, "v": 0.1}}
    )
    assert build_cluster_family(FOUR, table, 0.5).members[X] == [X, Y]


def test_zero_threshold_admits_everyone():
    table = PerceptionTable({"x": {"x": 1.0}})
    assert build_cluster_family(FOUR, table, 0.0).members[X] == [U, V, X, Y]


def test_threshold_boundary_is_inclusive():
    table = PerceptionTable({"x": {"x": 1.0, "y": 0.5}})
    assert build_cluster_family(Population(("x", "y")), table, 0.5).members[X] == [X, Y]


def test_crossed_clusters_membership_index():
    # y sits in the clusters of x, y and v
    inputs = make_inputs(
        {
            "x": {"x": 1.0, "y": 0.8, "u": 0.1, "v": 0.1},
            "y": {"x": 0.1, "y": 1.0, "u": 0.8, "v": 0.8},
            "u": {"x": 0.8, "y": 0.1, "u": 1.0, "v": 0.8},
            "v": {"x": 0.1, "y": 0.8, "u": 0.1, "v": 1.0},
        },
        {"x": 0, "y": 1, "u": 0, "v": 1},
    )
    assert inputs.family.owners[Y] == [V, X, Y]


def test_single_individual_population():
    inputs = make_inputs({"solo": {"solo": 1.0}}, {"solo": 1})
    assert inputs.family.members == inputs.family.owners == [[0]]


def test_symmetric_perceptions_make_index_equal_members():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 8)
        ids = [f"p{k}" for k in range(n)]
        rows = {i: {i: 1.0} for i in ids}
        for a in range(n):
            for b in range(a + 1, n):
                value = rng.choice([0.0, 0.3, 0.6, 0.9])
                rows[ids[a]][ids[b]] = value
                rows[ids[b]][ids[a]] = value
        pop = Population(tuple(ids))
        family = build_cluster_family(pop, PerceptionTable(rows), 0.5)
        assert family.owners == family.members


def test_inverse_consistency_against_double_loop():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 8)
        ids = [f"p{k}" for k in range(n)]
        rows = random_rows(rng, ids, density=rng.random())
        delta = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])
        pop = Population(tuple(ids))
        table = PerceptionTable(rows)
        family = build_cluster_family(pop, table, delta)
        for target in range(n):
            owners = [owner for owner in pop.order if target in family.members[owner]]
            assert family.owners[target] == owners


@st.composite
def table_and_deltas(draw):
    n = draw(st.integers(1, 6))
    ids = [f"p{k}" for k in range(n)]
    rows = {i: {i: 1.0} for i in ids}
    for x in ids:
        for z in ids:
            if z != x:
                value = draw(st.sampled_from([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]))
                if value:
                    rows[x][z] = value
    lo = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9]))
    hi = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]))
    if hi < lo:
        lo, hi = hi, lo
    return ids, rows, lo, hi


@given(table_and_deltas())
def test_delta_monotonicity(case):
    ids, rows, lo, hi = case
    pop = Population(tuple(ids))
    table = PerceptionTable(rows)
    for x in ids:
        tight = perceived_cluster(x, pop, table, hi)
        loose = perceived_cluster(x, pop, table, lo)
        assert set(tight) <= set(loose)


@given(table_and_deltas())
def test_owner_always_member(case):
    ids, rows, _, delta = case
    pop = Population(tuple(ids))
    table = PerceptionTable(rows)
    for x in ids:
        assert pop.positions[x] in perceived_cluster(x, pop, table, delta)


def test_family_has_one_cluster_per_individual():
    rng = random.Random(3)
    ids = [f"p{k}" for k in range(6)]
    inputs = make_inputs(random_rows(rng, ids), {i: 1 for i in ids})
    assert len(inputs.family.members) == len(inputs.family.owners) == len(ids)


# --- differential: the one-pass family against the definition ---------------


def _naive_clusters(pop, entries, delta):
    """The definition, literally: x's cluster is everyone x rates >= delta
    (a missing entry reads 0.0), plus x. By owner position, each cluster as
    its members' positions in id order."""
    ids = pop.individuals
    return [
        [k for k in pop.order if entries.get((x, ids[k]), 0.0) >= delta or ids[k] == x]
        for x in ids
    ]


def _transposed(pop, clusters):
    """The owners of each position, in id order."""
    owners = [[] for _ in clusters]
    for owner in pop.order:
        for k in clusters[owner]:
            owners[k].append(owner)
    return owners


def _sparse_entries(rng, ids, validated):
    """A sparse table: each observer names a handful of peers. Unvalidated
    tables also drop or spoil diagonals, carry out-of-range and NaN values,
    and name ids outside the population as observer or target."""
    grid = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    entries = {}
    for x in ids:
        if validated or rng.random() < 0.7:
            entries[(x, x)] = 1.0
        elif rng.random() < 0.5:
            entries[(x, x)] = rng.choice([-0.5, float("nan")])
        for z in rng.sample(ids, rng.randint(0, 6)):
            entries[(x, z)] = rng.choice(grid)
    if not validated:
        for k in range(len(ids) // 4):
            x = rng.choice(ids)
            entries[(x, rng.choice(ids))] = rng.choice([-0.5, 1.5, 2.0, float("nan")])
            entries[(x, f"ghost{k}")] = rng.choice(grid)
            entries[(f"ghost{k}", x)] = rng.choice(grid)
    return entries


@pytest.mark.parametrize("validated", [True, False])
def test_family_matches_definition_on_sparse_tables(validated):
    rng = random.Random(2024 + validated)
    for _ in range(3):
        n = rng.randint(100, 200)
        ids = [f"p{k:03d}" for k in range(n)]
        entries = _sparse_entries(rng, ids, validated)
        pop = Population(tuple(ids))
        table = PerceptionTable(rows_of(entries))
        stated = [v for v in entries.values() if v == v]  # NaN is not a delta
        deltas = [0.0, 1.0, -0.5, float("nan"), *rng.sample(stated, 3)]
        for delta in deltas:
            expected = _naive_clusters(pop, entries, delta)
            family = build_cluster_family(pop, table, delta)
            assert len(family.members) == len(family.owners) == len(ids)
            assert family.members == expected
            for k, x in enumerate(ids):
                assert perceived_cluster(x, pop, table, delta) == expected[k]
            assert family.owners == _transposed(pop, expected)


@st.composite
def hand_built_tables(draw):
    """A population of 50-300 in shuffled order and a hand-built table that
    skips validation: rows of observers outside the population, targets
    outside it, NaN and out-of-range values, missing self entries."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(50, 300))
    ids = [f"p{k:03d}" for k in range(n)]
    rng.shuffle(ids)
    entries = _sparse_entries(rng, ids, validated=False)
    for x in rng.sample(ids, n // 10):
        entries.pop((x, x), None)
        entries[(x, rng.choice(ids))] = float("nan")
    return ids, entries


@settings(max_examples=25, deadline=None)
@given(hand_built_tables())
def test_family_views_are_exact_transposes_matching_the_definition(case):
    ids, entries = case
    pop = Population(tuple(ids))
    table = PerceptionTable(rows_of(entries))
    for delta in (0.0, 0.5, 1.0):
        family = build_cluster_family(pop, table, delta)
        # each list holds each person once, in id order: the members are
        # {z : sim(x, z) >= delta} | {x}, and the owners their transpose
        assert family.members == _naive_clusters(pop, entries, delta)
        assert family.owners == _transposed(pop, family.members)


def test_family_boundary_entry_joins_and_below_zero_entry_leaves():
    # delta equal to an entry admits it; with delta 0 a missing entry
    # qualifies, but an explicit negative or NaN one does not
    table = PerceptionTable({"x": {"x": 1.0, "y": 0.4, "u": -0.1, "v": float("nan")}})
    assert build_cluster_family(FOUR, table, 0.4).members[X] == [X, Y]
    assert build_cluster_family(FOUR, table, 0.0).members[X] == [X, Y]
    assert build_cluster_family(FOUR, table, 0.0).members[U] == [U, V, X, Y]


# --- complexity gate by counted calls ------------------------------------------


def test_build_cluster_family_looks_up_at_most_n_pairs(monkeypatch):
    rng = random.Random(5)
    ids = [f"p{k:03d}" for k in range(150)]
    pop = Population(tuple(ids))
    table = PerceptionTable(rows_of(_sparse_entries(rng, ids, validated=True)))
    calls = 0
    similarity = PerceptionTable.similarity

    def counting(self, observer, target):
        nonlocal calls
        calls += 1
        return similarity(self, observer, target)

    monkeypatch.setattr(PerceptionTable, "similarity", counting)
    for delta in (0.0, 0.5, 1.0):
        calls = 0
        build_cluster_family(pop, table, delta)
        assert calls <= len(ids)
