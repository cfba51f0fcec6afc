"""The canonical JSON writer against ``json.dumps(v, indent=2, sort_keys=True)``."""

from __future__ import annotations

import json
from collections import Counter
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


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_writer_matches_json_dumps(value):
    assert dumps_canonical(value) == _reference(value)


@settings(max_examples=100, deadline=None)
@given(deep_values())
def test_writer_matches_json_dumps_at_depth(value):
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

    canonical._leaf_encoder.cache_clear()
    try:
        with mock.patch.object(canonical, "c_make_encoder", None):
            check()
            assert dumps_canonical({"a": [[1, 2], {"b": 3}]}) == _reference(
                {"a": [[1, 2], {"b": 3}]}
            )
    finally:
        canonical._leaf_encoder.cache_clear()
