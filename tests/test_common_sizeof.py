"""Unit and property tests for logical size estimation."""

import collections

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import sizeof
from repro.common.sizeof import group_size, logical_sizeof, pair_size, sizeof_many
from repro.core import SumMap
from repro.storage.localfs import LocationRef


class TestScalars:
    def test_string_is_length(self):
        assert logical_sizeof("hello") == 5
        assert logical_sizeof("") == 0

    def test_bytes_is_length(self):
        assert logical_sizeof(b"abc") == 3

    def test_numbers_fixed_width(self):
        assert logical_sizeof(7) == 8
        assert logical_sizeof(3.14) == 8

    def test_bool_and_none_small(self):
        assert logical_sizeof(True) == 1
        assert logical_sizeof(None) == 1

    def test_numpy_array_nbytes(self):
        arr = np.zeros(100, dtype=np.float64)
        assert logical_sizeof(arr) == 800

    def test_numpy_scalar(self):
        assert logical_sizeof(np.float64(1.0)) == 8

    def test_numpy_scalar_widths(self):
        assert logical_sizeof(np.int32(7)) == 4
        assert logical_sizeof(np.int64(7)) == 8
        assert logical_sizeof(np.float32(1.5)) == 4
        assert logical_sizeof(np.uint8(3)) == 1

    def test_unicode_counts_code_points(self):
        # Size is code points, not encoded bytes — multi-byte characters
        # and astral-plane symbols each count once.
        assert logical_sizeof("héllo") == 5
        assert logical_sizeof("日本語") == 3
        assert logical_sizeof("🎉🎉") == 2

    def test_surrogate_keys_sized_not_encoded(self):
        # Lone surrogates can't be UTF-8 encoded; sizing must not try.
        lone = "\ud800" + "x"
        assert logical_sizeof(lone) == 2
        assert pair_size(lone, 1) == 4 + 2 + 8

    def test_bool_not_sized_as_int(self):
        # bool is an int subclass; the bool rule must win the dispatch.
        assert logical_sizeof(False) == 1
        assert logical_sizeof((True, 0)) == 4 + 1 + 8


class TestContainers:
    def test_tuple_sums_with_overhead(self):
        assert logical_sizeof(("word", 1)) == 4 + 8 + 4

    def test_dict(self):
        assert logical_sizeof({"a": 1}) == 4 + 1 + 8

    def test_nested(self):
        nested = [("a", 1), ("bb", 2)]
        assert logical_sizeof(nested) == 4 + (4 + 1 + 8) + (4 + 2 + 8)

    def test_deeply_nested_tuples(self):
        inner = ("k", (1, (2.0, None)))
        # innermost: 4 + 8 + 1; middle: 4 + 8 + innermost; outer: 4 + 1 + middle
        assert logical_sizeof(inner) == 4 + 1 + (4 + 8 + (4 + 8 + 1))
        assert pair_size("k", (1, (2.0, None))) == logical_sizeof(inner)

    def test_empty_containers_cost_overhead_only(self):
        assert logical_sizeof(()) == 4
        assert logical_sizeof([]) == 4
        assert logical_sizeof({}) == 4
        assert logical_sizeof(set()) == 4
        assert logical_sizeof(frozenset()) == 4

    def test_sets_sum_members(self):
        assert logical_sizeof({1, 2}) == 4 + 8 + 8
        assert logical_sizeof(frozenset({"ab"})) == 4 + 2

    def test_unsupported_raises(self):
        class Opaque:
            pass

        with pytest.raises(TypeError):
            logical_sizeof(Opaque())

    def test_logical_size_protocol(self):
        class LocationRef:
            logical_size = 24

        assert logical_sizeof(LocationRef()) == 24

        class Dynamic:
            def logical_size(self):
                return 12

        assert logical_sizeof(Dynamic()) == 12


class TestDeclaredSize:
    """A type that declares ``logical_size`` is sized by it before any
    structural rule, whatever builtin it subclasses."""

    @pytest.mark.parametrize(
        "base, value, structural",
        [(dict, {"a": 1}, 4 + 1 + 8), (list, [1, 2], 4 + 8 + 8), (str, "abc", 3)],
    )
    def test_declaration_beats_the_builtin_rule(self, base, value, structural):
        declared = type("Declared" + base.__name__.title(), (base,), {"logical_size": 99})(value)
        assert logical_sizeof(declared) == 99
        assert pair_size("k", declared) == 1 + 99 + 4
        assert sizeof_many([declared] * (2 * sizeof._BULK_MIN)) == 2 * sizeof._BULK_MIN * 99
        assert logical_sizeof(value) == structural  # the plain builtin is unchanged

    def test_location_ref_is_still_24(self):
        assert logical_sizeof(LocationRef(3, "part-00000", 128, 4096)) == 24


_sum_keys = st.one_of(
    st.text(max_size=8),  # unrestricted alphabet: non-ASCII and surrogates
    st.integers(),
    st.tuples(st.text(max_size=4), st.integers()),
    st.tuples(st.integers(), st.tuples(st.text(max_size=3), st.integers())),
)
_sum_values = st.one_of(
    st.integers(),
    st.sampled_from([2**70, -(2**70), -0.0, float("nan"), float("inf")]),
    st.floats(),
)


class TestSumMapExactness:
    """``SumMap`` carries its size; it must equal the structural size of
    the same entries in a plain ``dict`` after every fold."""

    @given(st.lists(st.dictionaries(_sum_keys, _sum_values, max_size=8), max_size=8))
    def test_carried_size_equals_plain_dict(self, vectors):
        acc = SumMap()
        for vector in vectors:
            assert acc.add(vector) is acc
            plain = dict(acc)
            assert logical_sizeof(acc) == logical_sizeof(plain)
            assert pair_size("label", acc) == pair_size("label", plain)
            assert pair_size(("label", 7), acc) == pair_size(("label", 7), plain)


json_like = st.recursive(
    st.one_of(
        st.text(max_size=20),
        st.integers(),
        st.floats(allow_nan=False),
        st.booleans(),
        st.none(),
    ),
    lambda children: st.lists(children, max_size=4) | st.tuples(children, children),
    max_leaves=10,
)


class TestProperties:
    @given(json_like)
    def test_non_negative_and_deterministic(self, obj):
        size = logical_sizeof(obj)
        assert size >= 0
        assert logical_sizeof(obj) == size

    @given(st.lists(st.integers(), max_size=8))
    def test_monotone_in_elements(self, items):
        assert logical_sizeof(items + [0]) > logical_sizeof(items)

    @given(st.text(max_size=30), st.integers())
    def test_pair_size_exceeds_parts(self, key, value):
        assert pair_size(key, value) >= logical_sizeof(key) + logical_sizeof(value)

    @given(json_like, json_like)
    def test_pair_size_is_tuple_size(self, key, value):
        # The structural identity the dataplane builds on: one batch type
        # covers record streams and key-value streams alike.
        assert pair_size(key, value) == logical_sizeof((key, value))


# -- the bulk kernel ----------------------------------------------------------------


def reference_sizeof(obj):
    """The measure, written as the naive ``isinstance`` chain: one Python
    call per element, no dispatch table, no bulk path. ``sizeof_many`` is
    defined as the sum of this over its input."""
    if obj is None or isinstance(obj, (bool, np.bool_)):
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, (str, bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list, set, frozenset)):
        return 4 + sum(reference_sizeof(x) for x in obj)
    if isinstance(obj, dict):
        return 4 + sum(reference_sizeof(k) + reference_sizeof(v) for k, v in obj.items())
    raise TypeError(type(obj).__name__)


def reference_many(items):
    return sum(reference_sizeof(x) for x in items)


_scalar = st.one_of(
    st.text(max_size=12),
    st.binary(max_size=8),
    st.integers(),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
)
_hashable = st.one_of(st.text(max_size=8), st.integers(), st.booleans(), st.none())
# columns that take the bulk path once they are long enough, next to ones
# that never do; lengths straddle the threshold on both sides
_column = st.one_of(
    st.lists(st.integers(), max_size=16),
    st.lists(st.floats(allow_nan=False), max_size=16),
    st.lists(st.text(max_size=8), max_size=16),
    st.lists(st.tuples(st.text(max_size=8), st.integers()), max_size=16),
    st.lists(st.tuples(_hashable, _scalar, _scalar), max_size=16),
    st.lists(_scalar, max_size=16),
    st.sets(_hashable, max_size=12),
    st.frozensets(st.integers(), max_size=12),
)
_nested = st.recursive(
    st.one_of(_scalar, _column),
    lambda children: st.one_of(
        st.lists(children, max_size=10),
        st.lists(children, max_size=10).map(tuple),
        st.tuples(children, children),
        st.dictionaries(_hashable, children, max_size=10),
        # same-arity rows whose columns are themselves containers
        st.lists(st.tuples(st.text(max_size=4), children), min_size=6, max_size=10),
    ),
    max_leaves=24,
)


class TestSizeofMany:
    @given(st.lists(_nested, max_size=12))
    def test_equals_reference_sum(self, items):
        assert sizeof_many(items) == reference_many(items)
        assert sizeof_many(tuple(items)) == reference_many(items)

    @given(_nested)
    def test_logical_sizeof_equals_reference(self, obj):
        assert logical_sizeof(obj) == reference_sizeof(obj)

    @given(_column)
    def test_columns_equal_reference(self, column):
        assert sizeof_many(column) == reference_many(column)

    @pytest.mark.parametrize("n", range(0, 2 * sizeof._BULK_MIN + 2))
    def test_every_length_around_the_threshold(self, n):
        for column in (
            list(range(n)),
            [0.5] * n,
            [None] * n,
            [True] * n,
            ["w" * i for i in range(n)],
            [b"ab"] * n,
            [("w" * i, i) for i in range(n)],
            [()] * n,
        ):
            assert sizeof_many(column) == reference_many(column), column

    def test_bool_among_ints_is_not_an_int_column(self):
        column = [1, 2, 3, 4, 5, 6, True, 8]
        assert sizeof_many(column) == 7 * 8 + 1
        assert sizeof_many([("k", v) for v in column]) == 8 * (4 + 1) + 7 * 8 + 1

    def test_subclasses_take_the_per_element_walk(self):
        class Word(str):
            pass

        class Count(int):
            pass

        class Point(tuple):
            pass

        Row = collections.namedtuple("Row", "key value")
        n = 2 * sizeof._BULK_MIN
        for column in (
            [Word("abc")] * n,
            [Count(7)] * n,
            [Point((1, 2.0))] * n,
            [Row("k", 1)] * n,
            [Row("k", 1)] * n + [("k", 1)],
            [Word("abc")] * n + ["abc"],
        ):
            assert sizeof_many(column) == reference_many(column)

    def test_ragged_and_mixed_arity_tuples(self):
        n = sizeof._BULK_MIN
        ragged = [("a", 1)] * n + [("a", 1, 2.0)]
        assert sizeof_many(ragged) == reference_many(ragged)
        mixed_columns = [("a", 1), (2, "b")] * n  # same arity, columns mix types
        assert sizeof_many(mixed_columns) == reference_many(mixed_columns)
        nested = [("k", (i, float(i)), ["x"] * i) for i in range(2 * n)]
        assert sizeof_many(nested) == reference_many(nested)

    def test_numpy_values_inside_lists(self):
        n = 2 * sizeof._BULK_MIN
        for column in (
            [np.float64(1.5)] * n,
            [np.int32(3)] * n,
            [np.bool_(True)] * n,
            [np.zeros(5)] * n,
            [np.zeros(5), np.zeros(3, dtype=np.int8)] * n,
            [1.5] * n + [np.float64(1.5)],
            [("k", np.zeros(4))] * n,
        ):
            assert sizeof_many(column) == reference_many(column)

    def test_dict_views_and_sets(self):
        acc = {"feature%d" % i: i for i in range(50)}
        assert sizeof_many(acc.keys()) == reference_many(list(acc))
        assert sizeof_many(acc.values()) == 50 * 8
        assert sizeof_many(acc.items()) == reference_many(list(acc.items()))
        assert logical_sizeof(acc) == reference_sizeof(acc)
        assert sizeof_many(set(acc)) == reference_many(list(acc))
        mixed = {1: "a", "b": 2.0, None: (1, 2), 4: None, 5: b"x", "c": [1]}
        assert logical_sizeof(mixed) == reference_sizeof(mixed)

    def test_iterables_without_len(self):
        column = list(range(20))
        assert sizeof_many(iter(column)) == 20 * 8
        assert sizeof_many(x for x in column) == 20 * 8
        assert sizeof_many(map(str, column)) == reference_many(map(str, column))
        assert sizeof_many(range(20)) == 20 * 8

    def test_unsupported_element_still_raises(self):
        class Opaque:
            pass

        with pytest.raises(TypeError):
            sizeof_many([Opaque()] * (2 * sizeof._BULK_MIN))
        with pytest.raises(TypeError):
            sizeof_many([("k", Opaque())] * (2 * sizeof._BULK_MIN))

    def test_bulk_path_makes_no_call_per_element(self, monkeypatch):
        """What the kernel is for: a vector accumulator or a batch of
        same-shaped pairs is sized without one ``logical_sizeof`` call per
        element, and a mixed one still is."""
        calls = []
        real = sizeof.logical_sizeof

        def counting(obj):
            calls.append(obj)
            return real(obj)

        acc = {"feature%d" % i: i for i in range(1000)}
        pairs = [("word%d" % i, i) for i in range(1000)]
        expected = reference_sizeof(acc), reference_many(pairs)
        monkeypatch.setattr(sizeof, "logical_sizeof", counting)
        assert (sizeof._size_dict(acc), sizeof_many(pairs)) == expected
        assert calls == []
        assert sizeof_many(pairs + [("word", None)]) == expected[1] + 4 + 4 + 1
        assert len(calls) > 1000

    @given(_scalar, st.lists(_nested, max_size=10))
    def test_group_size_is_the_per_pair_sum(self, key, values):
        assert group_size(key, values) == sum(pair_size(key, v) for v in values)
