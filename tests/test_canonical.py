"""The canonical JSON writer against ``json.dumps(v, indent=2, sort_keys=True)``."""

from __future__ import annotations

import contextlib
import json
from collections import Counter, OrderedDict
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from subjfair.harness import canonical
from subjfair.harness.canonical import dumps_canonical


def _reference(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


#: Text over an alphabet that includes non-ASCII, control characters, the
#: quote and the backslash, besides the plain characters ids are made of.
TEXT = st.text(
    alphabet=st.sampled_from(list('ab_Z09 "\\\n\t\x00\x07\x1f\x7fé中😀[]{},:')), max_size=6
)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e-7, 1e16, 0.1 + 0.2, 0, 1, True, False]),
    TEXT,
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(TEXT, children, max_size=5),
        st.dictionaries(TEXT, children, max_size=5).map(Counter),
    )


VALUES = st.recursive(
    st.one_of(SCALARS, st.just([]), st.just({}), st.just(())), _containers, max_leaves=40
)


@st.composite
def deep_values(draw):
    """A value wrapped in 6 to 9 levels of lists and dicts, with siblings
    (empty containers among them) at every level."""
    value = draw(VALUES)
    for _ in range(draw(st.integers(min_value=6, max_value=9))):
        siblings = draw(st.lists(st.one_of(SCALARS, st.just([]), st.just({})), max_size=3))
        if draw(st.booleans()):
            value = [*siblings, value]
        else:
            value = {draw(TEXT) + str(i): v for i, v in enumerate(siblings)} | {"~": value}
    return value


#: Keys with the characters a %-template or a str.format template would
#: read, the quote, a newline and non-ASCII.
KEYS = st.text(alphabet=st.sampled_from(list('ab%{}"\n\\é中😀 :s')), max_size=4)

#: Key sets: strings (drawn twice as often), or keys json writes in quotes.
KEY_SETS = st.one_of(
    st.lists(KEYS, min_size=1, max_size=4, unique=True),
    st.lists(KEYS, min_size=2, max_size=4, unique=True),
    st.one_of(
        st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True),
        st.lists(st.floats(allow_nan=False), min_size=1, max_size=3, unique=True),
        st.sampled_from([[True, False], [False], [None], [1.5, True, -0.0]]),
    ),
)

#: Scalars with bool next to int, NaN and the infinities often drawn.
LEAF_SCALARS = st.one_of(
    SCALARS,
    st.sampled_from([True, 1, False, 0, 1.0, float("nan"), float("inf"), float("-inf")]),
)
LIST_LEAVES = st.lists(LEAF_SCALARS, min_size=1, max_size=4)
DICT_LEAVES = st.one_of(
    st.dictionaries(KEYS, LEAF_SCALARS, min_size=1, max_size=4),
    st.dictionaries(KEYS, st.integers(), min_size=1, max_size=3).map(Counter),
    st.dictionaries(KEYS, LEAF_SCALARS, min_size=1, max_size=3).map(OrderedDict),
    st.dictionaries(st.integers(-2, 2), LEAF_SCALARS, min_size=1, max_size=3),
)
EMPTY = st.sampled_from([[], (), {}, Counter()])

#: What the values of one key, or the siblings of one container, are drawn
#: from: one kind the batch paths take throughout ...
LEAF_KINDS = [LIST_LEAVES, st.one_of(LIST_LEAVES, LIST_LEAVES.map(tuple)), DICT_LEAVES]
UNIFORM = [LEAF_SCALARS, st.integers(), st.booleans(), *LEAF_KINDS]
#: ... or kinds they must refuse, or take only in part.
MIXED = [
    st.one_of(LEAF_SCALARS, LIST_LEAVES),
    st.one_of(LIST_LEAVES, DICT_LEAVES),
    st.one_of(LIST_LEAVES, EMPTY),
    st.one_of(DICT_LEAVES, EMPTY),
    st.one_of(LEAF_SCALARS, EMPTY),
    st.lists(LIST_LEAVES, min_size=1, max_size=2),
]
COLUMNS = st.sampled_from(UNIFORM + MIXED)


@st.composite
def sibling_records(draw):
    """A list, tuple or dict of at least two dicts with one key set, each
    built in its own key order, one key holding leaves, maybe wrapped in a
    few more levels."""
    keys = draw(KEY_SETS)
    count = draw(st.integers(min_value=2, max_value=6))
    kinds = draw(st.sampled_from([UNIFORM, UNIFORM + MIXED]))
    columns = {}
    for key in keys:
        # The first key holds leaves, so that a record is no leaf itself.
        kind = draw(st.sampled_from(kinds if columns else LEAF_KINDS))
        columns[key] = draw(st.lists(kind, min_size=count, max_size=count))
    records = []
    for i in range(count):
        order = draw(st.permutations(keys))
        record = {key: columns[key][i] for key in order}
        records.append(draw(st.sampled_from([dict, OrderedDict]))(record))
    return draw(_siblings_in_a_container(records))


@st.composite
def sibling_leaves(draw):
    """A list, tuple or dict of at least two values of one column kind."""
    column = draw(COLUMNS)
    values = draw(st.lists(column, min_size=2, max_size=6))
    return draw(_siblings_in_a_container(values))


@st.composite
def _siblings_in_a_container(draw, values):
    kind = draw(st.sampled_from(["list", "tuple", "dict", "int-keyed", "counter"]))
    if kind in ("list", "tuple"):
        value = values if kind == "list" else tuple(values)
    else:
        key = st.integers() if kind == "int-keyed" else KEYS
        keys = draw(st.lists(key, min_size=len(values), max_size=len(values), unique=True))
        value = dict(zip(keys, values))
        value = Counter(value) if kind == "counter" else value
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        wrappers = [[value], [0, value, "z"], {"k": value}, {"a": 1, "k": value}]
        value = draw(st.sampled_from(wrappers))
    return value


SIBLINGS = st.one_of(sibling_records(), sibling_leaves())


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_writer_matches_json_dumps(value):
    assert dumps_canonical(value) == _reference(value)


@settings(max_examples=100, deadline=None)
@given(deep_values())
def test_writer_matches_json_dumps_at_depth(value):
    assert dumps_canonical(value) == _reference(value)


@settings(max_examples=300, deadline=None)
@given(SIBLINGS)
def test_writer_matches_json_dumps_on_sibling_records(value):
    assert dumps_canonical(value) == _reference(value)


@pytest.mark.parametrize(
    "value",
    [
        {1: [2], 3: 4},
        {1.5: {"a": 1}, -0.0: [1]},
        {float("nan"): [1], float("inf"): 2},
        {True: [1], False: 0},
        {None: [[]]},
        [2**64 + 1, -(2**70), True, 1, False, 0],
        [float("nan"), float("inf"), float("-inf"), -0.0, 1e-7, 1e16, 0.1 + 0.2, None],
    ],
)
def test_writer_matches_json_dumps_on_non_string_keys_and_special_floats(value):
    assert dumps_canonical(value) == _reference(value)


def test_values_json_cannot_write_raise_as_json_dumps_does():
    for value in ({"a": [{1, 2}]}, [object()], {("a",): 1}, {"a": {"b": {("c",): 1}}}):
        with pytest.raises(TypeError):
            _reference(value)
        with pytest.raises(TypeError):
            dumps_canonical(value)


def test_large_leaves_come_out_whole():
    # The C encoder returns a container this large in several chunks; a
    # writer that kept only the first would cut the output short.
    big_list = list(range(300_000))
    big_dict = {f"k{i:06d}": i for i in range(300_000)}
    for value in (big_list, big_dict, {"list": big_list, "dict": big_dict, "x": [1]}):
        assert dumps_canonical(value) == _reference(value)


def test_fallback_without_the_c_encoder_matches_json_dumps():
    @settings(max_examples=100, deadline=None)
    @given(VALUES)
    def check(value):
        assert dumps_canonical(value) == _reference(value)

    with _without_the_c_encoder():
        check()
        assert dumps_canonical({"a": [[1, 2], {"b": 3}]}) == _reference(
            {"a": [[1, 2], {"b": 3}]}
        )


def test_fallback_without_the_c_encoder_matches_json_dumps_on_sibling_records():
    @settings(max_examples=150, deadline=None)
    @given(SIBLINGS)
    def check(value):
        assert dumps_canonical(value) == _reference(value)

    with _without_the_c_encoder():
        check()


@contextlib.contextmanager
def _without_the_c_encoder():
    canonical._leaf_encoder.cache_clear()
    try:
        with mock.patch.object(canonical, "c_make_encoder", None):
            yield
    finally:
        canonical._leaf_encoder.cache_clear()


def _obligations(n):
    kinds = ["SYSTEM_RECOMMENDATION", "AGGREGATION_METHOD"]
    return [
        {"individual": f"i{i:04d}", "kind": kinds[i % 2], "procedural_tags": ["accuracy"]}
        for i in range(n)
    ]


def _report_like(n):
    ids = [f"i{i:04d}" for i in range(n)]
    return {
        "clusters": {i: ids[: 1 + k % 5] for k, i in enumerate(ids)},
        "verdicts": {i: {"isf": "fair", "satisfaction_ratio": k / n} for k, i in enumerate(ids)},
        "obligations": _obligations(n),
        "objective_if": [
            {"distance": 0.5, "pair": [x, y], "score_gap": 0.75} for x, y in zip(ids, ids[1:])
        ],
        "distances": [[x, y, 0.5] for x, y in zip(ids, ids[1:])],
        "sim": {i: {j: 0.5 for j in ids[k : k + 3]} for k, i in enumerate(ids)},
        "sf": {"dissenters": ids, "verdict": "unfair"},
    }


@pytest.mark.parametrize("shape", [_obligations, _report_like])
def test_sibling_records_cost_a_walk_count_that_does_not_grow_with_their_number(shape):
    # complexity gate by counted calls: every _walk call is one Python step;
    # N same-shaped records must cost as many steps as 10
    counts = []
    for n in (10, 1000):
        value = shape(n)
        calls = 0
        walk = canonical._walk

        def counted(*args):
            nonlocal calls
            calls += 1
            return walk(*args)

        with mock.patch.object(canonical, "_walk", counted):
            assert dumps_canonical(value) == _reference(value)
        counts.append(calls)
    assert counts[0] == counts[1]
