"""Logical size estimation for records.

The engines account memory, disk and network usage in *logical bytes*: the
number of bytes a record would occupy in a compact serialized form (roughly
what Hadoop's writables or a binary wire format would use), not Python's
in-memory object size. Using a logical measure keeps the cost model
independent of CPython's boxing overheads and makes scaled runs meaningful.

Sizing sits on every engine hot path (the dataplane's batch accounting is
one amortized pass per batch), so dispatch goes through a per-exact-type
table populated lazily from the type rules below instead of an
``isinstance`` chain per call. The table is a pure cache: a type's
handler is chosen by the same rule order once, then reused.

Collections are sized by :func:`sizeof_many`, the one sizing pass every
layer above shares. It is *defined* as ``sum(map(logical_sizeof, items))``
and returns that integer bit for bit; what it saves is the Python call
per element when the elements all have one exact builtin type, which is
what record batches, shuffle partitions and vector accumulators are.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import numpy as np

# Fixed-width encodings used for the logical measure.
_INT_SIZE = 8
_FLOAT_SIZE = 8
_BOOL_SIZE = 1
_NONE_SIZE = 1
# Per-container element overhead (length prefixes / tags in a wire format).
_CONTAINER_OVERHEAD = 4
# Exact types whose every instance has one size: a column of them is n × width.
_FIXED_WIDTHS = {
    type(None): _NONE_SIZE,
    bool: _BOOL_SIZE,
    int: _INT_SIZE,
    float: _FLOAT_SIZE,
}
# Shortest collection sizeof_many inspects for a common element type: the
# length from which no bulk shape loses to the per-element walk (measured by
# benchmarks/bench_sizeof_threshold.py, table in DESIGN.md §6.1).
_BULK_MIN = 6


def logical_sizeof(obj: Any) -> int:
    """Estimated serialized size of ``obj`` in bytes.

    Deterministic, recursive over tuples/lists/dicts, exact for strings,
    bytes and numpy arrays.

    >>> logical_sizeof("word")
    4
    >>> logical_sizeof(("word", 1))
    16
    """
    sizer = _SIZERS.get(obj.__class__)
    if sizer is None:
        sizer = _resolve_sizer(obj.__class__)
    return sizer(obj)


def pair_size(key: Any, value: Any) -> int:
    """Logical size of one key-value pair (key + value + pair framing).

    Identical to ``logical_sizeof((key, value))`` — a pair is framed like
    any other two-element container.
    """
    sizers = _SIZERS
    ks = sizers.get(key.__class__) or _resolve_sizer(key.__class__)
    vs = sizers.get(value.__class__) or _resolve_sizer(value.__class__)
    return ks(key) + vs(value) + _CONTAINER_OVERHEAD


def group_size(key: Any, values: Sequence[Any]) -> int:
    """Logical size of ``key`` paired with each of ``values``.

    Exactly ``sum(pair_size(key, v) for v in values)``: the key and the
    pair framing repeat per value, the values are sized as one column.
    """
    return len(values) * (logical_sizeof(key) + _CONTAINER_OVERHEAD) + sizeof_many(values)


def sizeof_many(items: Iterable[Any]) -> int:
    """Logical size of a collection's elements, without framing.

    Exactly ``sum(map(logical_sizeof, items))``. When every element has
    the same exact builtin type the sum needs no Python call per element:
    fixed-width scalars are ``n × width``, ``str``/``bytes`` are their
    summed lengths, and same-arity plain tuples (key-value pairs, rows)
    are sized column by column. Everything else — mixed types, subclasses,
    namedtuples, numpy values, ragged tuples, iterables without ``len``,
    and collections shorter than ``_BULK_MIN`` — takes the per-element
    walk, so the choice only ever depends on what is in ``items``.

    >>> sizeof_many([("word", 1)] * 8) == 8 * logical_sizeof(("word", 1))
    True
    """
    try:
        n = len(items)  # type: ignore[arg-type]
    except TypeError:  # a one-shot iterable: nothing to inspect twice
        return sum(map(logical_sizeof, items))
    if n >= _BULK_MIN:
        kinds = set(map(type, items))
        if len(kinds) == 1:
            (kind,) = kinds
            width = _FIXED_WIDTHS.get(kind)
            if width is not None:
                return n * width
            if kind is str or kind is bytes:
                return sum(map(len, items))
            if kind is tuple and len(set(map(len, items))) == 1:
                return n * _CONTAINER_OVERHEAD + sum(map(sizeof_many, zip(*items)))
    return sum(map(logical_sizeof, items))


# -- per-type handlers ----------------------------------------------------------


def _size_fixed(size: int) -> Callable[[Any], int]:
    return lambda obj: size


def _size_numpy(obj: Any) -> int:
    return int(obj.nbytes)


def _size_container(obj: Any) -> int:
    # records are mostly pairs and triples: skip the call that would only
    # find them too short to inspect
    if len(obj) < _BULK_MIN:
        return _CONTAINER_OVERHEAD + sum(map(logical_sizeof, obj))
    return _CONTAINER_OVERHEAD + sizeof_many(obj)


def _size_dict(obj: Any) -> int:
    # keys column + values column; a dict entry carries no pair framing
    return _CONTAINER_OVERHEAD + sizeof_many(obj.keys()) + sizeof_many(obj.values())


def _size_declared(obj: Any) -> int:
    # Objects may advertise their own logical size (e.g. location references).
    size = getattr(obj, "logical_size", None)
    if size is not None:
        return int(size() if callable(size) else size)
    raise TypeError(f"logical_sizeof: unsupported type {type(obj).__name__}")


_SIZERS: dict[type, Callable[[Any], int]] = {
    **{kind: _size_fixed(width) for kind, width in _FIXED_WIDTHS.items()},
    # strings and byte buffers are their length: builtin ``len`` sizes them
    # in one C call
    str: len,
    bytes: len,
    bytearray: len,
    memoryview: len,
    np.ndarray: _size_numpy,
    tuple: _size_container,
    list: _size_container,
    set: _size_container,
    frozenset: _size_container,
    dict: _size_dict,
}

#: the original rule order, applied once per previously unseen type
_RULES: tuple[tuple[type | tuple[type, ...], Callable[[Any], int]], ...] = (
    (bool, _size_fixed(_BOOL_SIZE)),  # before int: bool subclasses int
    (int, _size_fixed(_INT_SIZE)),
    (float, _size_fixed(_FLOAT_SIZE)),
    (str, len),
    ((bytes, bytearray, memoryview), len),
    (np.ndarray, _size_numpy),
    (np.generic, _size_numpy),
    ((tuple, list, set, frozenset), _size_container),
    (dict, _size_dict),
)


def _resolve_sizer(cls: type) -> Callable[[Any], int]:
    """Pick (and cache) the handler for a type by the documented rules.

    A type that declares ``logical_size`` is sized by that declaration
    before any structural rule, whatever builtin it subclasses (a
    self-sizing accumulator is a ``dict`` that carries its own count).
    """
    if getattr(cls, "logical_size", None) is not None:
        handler = _size_declared
    else:
        for rule_type, handler in _RULES:
            if issubclass(cls, rule_type):
                break
        else:
            # Unknown types fall through to the declared-size protocol; the
            # handler re-checks per instance, so a type whose instances only
            # sometimes declare ``logical_size`` still raises correctly.
            handler = _size_declared
    _SIZERS[cls] = handler
    return handler
