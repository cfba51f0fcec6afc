"""The canonical JSON writer: the one form of every JSON document the
harness prints or saves.

``dumps_canonical(v)`` returns exactly ``json.dumps(v, indent=2,
sort_keys=True) + "\\n"``. Given an indent, the standard library leaves its
C encoder for the pure-Python one, which costs several Python calls per
value. Here one Python step is taken per container that holds another
container. A container whose children are all scalars (a leaf) goes to a C
encoder built once per depth, whose item separator carries the indent of
that depth. The leaves of one depth and one bracket are encoded together,
as one list, and the result is cut between them; each piece is re-framed
with its opening newline and its closing indent.
"""

from __future__ import annotations

import json
from collections import defaultdict
from functools import lru_cache
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, Iterable

_INDENT = "  "
_CONTAINERS = (dict, list, tuple)
_EXACT_CONTAINERS = frozenset(_CONTAINERS)
_SCALARS = frozenset((str, int, float, bool, type(None)))
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
#: The error ``json.dumps`` raises for a value it cannot serialize.
_unserializable = json.JSONEncoder().default

#: Leaves waiting for the C encoder, by (depth, is a dict): the leaves, and
#: the index of the output part each one fills.
_Pending = dict[tuple[int, bool], tuple[list[Any], list[int]]]


def dumps_canonical(value: Any) -> str:
    """``value`` as sorted two-space-indented JSON, ending in a newline."""
    parts: list[str] = []
    pending: _Pending = defaultdict(lambda: ([], []))
    if isinstance(value, _CONTAINERS):
        _walk(value, 0, parts, pending)
    else:
        parts.append(_scalar(value))
    for (depth, is_dict), (leaves, slots) in pending.items():
        for slot, text in zip(slots, _encode_leaves(leaves, depth, is_dict)):
            parts[slot] = text
    parts.append("\n")
    return "".join(parts)


@lru_cache(maxsize=None)
def _leaf_encoder(depth: int) -> Callable[[Any, int], Iterable[str]]:
    """The chunks of compact JSON of a value whose items, if it is a
    container, are separated by a newline and the indent of ``depth``."""
    separator = ",\n" + _INDENT * depth
    if c_make_encoder is None:  # an interpreter without ``_json``
        encoder = json.JSONEncoder(separators=(separator, ": "), sort_keys=True)
        return lambda value, _: encoder.iterencode(value)
    return c_make_encoder(
        None, _unserializable, encode_basestring_ascii, None, ": ", separator, True, False, True
    )


def _encode_leaves(leaves: list[Any], depth: int, is_dict: bool) -> list[str]:
    """Each of ``leaves``, all dicts or all lists at ``depth``, as JSON.

    Encoded as one list, the leaves are separated as their items are. But
    an item separator inside a leaf follows a scalar, and no scalar ends in
    a bracket, so only the separators between leaves follow one."""
    opening, closing = "{}" if is_dict else "[]"
    outer = _INDENT * depth
    inner = outer + _INDENT
    text = "".join(_leaf_encoder(depth + 1)(leaves, 0))
    between = f"{closing},\n{inner}{opening}"
    return [f"{opening}\n{inner}{p}\n{outer}{closing}" for p in text[2:-2].split(between)]


def _scalar(value: Any) -> str:
    """A value that is no dict, list or tuple as JSON; a float directly by
    its repr, as ``json`` writes it."""
    if type(value) is float:
        text = float.__repr__(value)
        return _NONFINITE.get(text, text)
    return "".join(_leaf_encoder(0)(value, 0))


def _key(key: Any) -> str:
    """A dict key as JSON: a string as itself, a float, int, bool or None
    as its JSON form in quotes."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (bool, int, float)):
        return f'"{_scalar(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _walk(value: Any, depth: int, parts: list[str], pending: _Pending) -> None:
    """Append the container ``value``, whose first line sits at ``depth``
    indents, to ``parts``; a leaf gets an empty part and waits in
    ``pending``."""
    is_dict = isinstance(value, dict)
    if not value:
        parts.append("{}" if is_dict else "[]")
        return
    children = value.values() if is_dict else value
    if _SCALARS.issuperset(map(type, children)) or (
        _EXACT_CONTAINERS.isdisjoint(map(type, children))
        and not any(issubclass(t, _CONTAINERS) for t in set(map(type, children)))
    ):
        leaves, slots = pending[depth, is_dict]
        leaves.append(value)
        slots.append(len(parts))
        parts.append("")
        return
    outer = _INDENT * depth
    separator = ",\n" + outer + _INDENT
    lead = ("{" if is_dict else "[") + separator[1:]
    depth += 1
    append = parts.append
    # Each child is written inline; only a container costs another step.
    if is_dict:
        for k in sorted(value):
            v = value[k]
            key = lead + (encode_basestring_ascii(k) if type(k) is str else _key(k)) + ": "
            if type(v) is str:
                append(key + encode_basestring_ascii(v))
            elif isinstance(v, _CONTAINERS):
                append(key)
                _walk(v, depth, parts, pending)
            else:
                append(key + _scalar(v))
            lead = separator
        append("\n" + outer + "}")
    else:
        for v in value:
            if type(v) is str:
                append(lead + encode_basestring_ascii(v))
            elif isinstance(v, _CONTAINERS):
                append(lead)
                _walk(v, depth, parts, pending)
            else:
                append(lead + _scalar(v))
            lead = separator
        append("\n" + outer + "]")
