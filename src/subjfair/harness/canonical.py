"""The canonical JSON writer: the one form of every JSON document the
harness prints or saves.

``dumps_canonical(v)`` returns exactly ``json.dumps(v, indent=2,
sort_keys=True) + "\\n"``. Given an indent, the standard library leaves its
C encoder for the pure-Python one, which costs several Python calls per
value. Here the C encoder writes every scalar, and Python steps are taken
per batch of siblings, not per value:

- A container whose children are all scalars (a leaf) goes to a C encoder
  built once per depth, whose item separator carries the indent of that
  depth. The leaves that wait at one depth in one bracket are encoded
  together, as one list, and the result is cut between them.
- A container whose children are all non-empty leaves of one bracket (the
  report's clusters and verdicts, the run file's similarity and distance
  rows) is written the same way at once: one C-encoder call for all of its
  children, one cut, and one ``%`` template that frames each child after
  its key.
- A container whose children are dicts with one set of string keys, each
  value a scalar or a leaf (obligations, baseline violations), is written
  column by column: one C-encoder call per key, and one template per record
  shape that the columns are zipped through.
- Any other container is walked child by child, and each child container
  costs one more step.

On the benchmark's seed-101 ``dense_report`` report (2.3 MB) the batches
cut the writer from 0.090 to 0.049 s and its peak heap from 7.9 to 4.7 MB
against the per-record walk they replace (medians of 31 interleaved
calls, wall time, shared 2-vCPU VM, Python 3.11.7).
"""

from __future__ import annotations

import json
from collections import defaultdict
from functools import lru_cache
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

_INDENT = "  "
_CONTAINERS = (dict, list, tuple)
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
        template, texts = _split_leaves(leaves, depth, *("{}" if is_dict else "[]"))
        for slot, text in zip(slots, texts):
            parts[slot] = template % text
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


def _split_leaves(
    leaves: Sequence[Any], depth: int, opening: str, closing: str
) -> tuple[str, list[str]]:
    """The items of each of ``leaves``, non-empty leaves of one bracket at
    ``depth``, and the ``%s`` template that frames such items as a leaf.

    Encoded as one list, the leaves are separated as their items are. But
    an item separator inside a leaf follows a scalar, and no scalar ends in
    a bracket, so only the separators between leaves follow one."""
    inner = _INDENT * (depth + 1)
    text = "".join(_leaf_encoder(depth + 1)(leaves, 0))
    template = f"{opening}\n{inner}%s\n{_INDENT * depth}{closing}"
    return template, text[2:-2].split(f"{closing},\n{inner}{opening}")


def _flat(types: set[type]) -> bool:
    """Whether values of ``types`` are all written as scalars: none is a
    dict, list or tuple."""
    return types <= _SCALARS or not any(issubclass(t, _CONTAINERS) for t in types)


def _leaves(values: Sequence[Any], depth: int) -> tuple[str, list[str]] | None:
    """``_split_leaves`` of ``values`` if each is a non-empty leaf and all
    share one bracket, else None."""
    types = set(map(type, values))
    if all(issubclass(t, dict) for t in types):
        brackets = "{}"
        items = chain.from_iterable(map(dict.values, values))
    elif all(issubclass(t, (list, tuple)) for t in types):
        brackets = "[]"
        items = chain.from_iterable(values)
    else:
        return None
    if not (all(values) and _flat(set(map(type, items)))):
        return None
    return _split_leaves(values, depth, *brackets)


def _column(values: list[Any], depth: int) -> tuple[str, list[str]] | None:
    """The values of one key across sibling records whose members sit at
    ``depth``, as a slot template and one text per value: all scalars, or
    all leaves as ``_leaves`` takes them; else None."""
    if _flat(set(map(type, values))):
        # No scalar's JSON holds a raw newline.
        return "%s", "".join(_leaf_encoder(0)(values, 0))[1:-1].split(",\n")
    return _leaves(values, depth)


def _records(children: Sequence[Any], depth: int) -> tuple[str, list[list[str]]] | None:
    """Dicts at ``depth`` that share one set of string keys, each holding
    only scalars or leaves, as one ``%s`` template per record and a column
    of texts per key; None for any other children."""
    first = children[0]
    if not (
        isinstance(first, dict)
        and first
        and all(type(key) is str for key in first)
        and all(issubclass(t, dict) for t in set(map(type, children)))
        and all(map(first.keys().__eq__, map(dict.keys, children)))
    ):
        return None
    slots, columns = [], []
    for key in sorted(first):
        column = _column(list(map(itemgetter(key), children)), depth + 1)
        if column is None:
            return None
        slot, texts = column
        slots.append(encode_basestring_ascii(key).replace("%", "%%") + ": " + slot)
        columns.append(texts)
    inner = _INDENT * (depth + 1)
    return "{\n" + inner + (",\n" + inner).join(slots) + "\n" + _INDENT * depth + "}", columns


def _batch(value: Any, keys: list[Any] | None, depth: int) -> str | None:
    """The container ``value`` at ``depth``, with ``keys`` its sorted keys
    if it is a dict, written in one pass when its children are all
    non-empty leaves of one bracket or all records of one shape; else None.

    Each child is one row of texts, formatted through one template."""
    children = value if keys is None else list(map(value.__getitem__, keys))
    rows = _leaves(children, depth + 1)
    if rows is not None:
        template, texts = rows
        columns = [texts]
    else:
        rows = _records(children, depth + 1)
        if rows is None:
            return None
        template, columns = rows
    opening, closing = "[]"
    if keys is not None:
        opening, closing = "{}"
        template = "%s: " + template
        encode = encode_basestring_ascii if all(type(k) is str for k in keys) else _key
        columns.insert(0, list(map(encode, keys)))
    inner = _INDENT * (depth + 1)
    body = (",\n" + inner).join(map(template.__mod__, zip(*columns)))
    return f"{opening}\n{inner}{body}\n{_INDENT * depth}{closing}"


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
    if _flat(set(map(type, value.values() if is_dict else value))):
        leaves, slots = pending[depth, is_dict]
        leaves.append(value)
        slots.append(len(parts))
        parts.append("")
        return
    keys = sorted(value) if is_dict else None
    text = _batch(value, keys, depth)
    if text is not None:
        parts.append(text)
        return
    outer = _INDENT * depth
    separator = ",\n" + outer + _INDENT
    lead = ("{" if is_dict else "[") + separator[1:]
    depth += 1
    append = parts.append
    # Children of mixed shapes: each is written inline; only a container
    # costs another step.
    if is_dict:
        for k in keys:
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
