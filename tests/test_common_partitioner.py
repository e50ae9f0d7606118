"""Unit and property tests for repro.common.partitioner."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.partitioner import (
    HashPartitioner,
    ModPartitioner,
    RangePartitioner,
    partition_counts,
    stable_hash,
)

keys = st.one_of(
    st.text(max_size=40),
    st.integers(),
    st.binary(max_size=40),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    st.tuples(st.text(max_size=10), st.integers(min_value=0, max_value=1000)),
)


class TestStableHash:
    @given(keys)
    def test_deterministic(self, key):
        assert stable_hash(key) == stable_hash(key)

    @given(keys)
    def test_64_bit_range(self, key):
        assert 0 <= stable_hash(key) < 2**64

    def test_type_tagged(self):
        # the same bit pattern through different types must not collide trivially
        assert stable_hash("1") != stable_hash(1)
        assert stable_hash(b"x") != stable_hash("x")
        assert stable_hash(True) != stable_hash(1)

    def test_known_distinct_words(self):
        words = ["the", "quick", "brown", "fox", "jumps"]
        assert len({stable_hash(w) for w in words}) == len(words)

    def test_rejects_unhashable(self):
        with pytest.raises(TypeError):
            stable_hash(["list"])

    def test_pinned_values(self):
        # The committed virtual results rest on these encodings: a drifted
        # value reshuffles every workload.
        assert stable_hash("the") == 12616109885787641377
        assert stable_hash(0) == 5820242641327481636
        assert stable_hash(-1) == 869225371789770004
        assert stable_hash(2**40) == 9331187744175695151
        assert stable_hash(1.5) == 3289171655170387708
        assert stable_hash(("a", 1)) == 1240359459253859747

    def test_ints_at_the_16_byte_edge_keep_their_values(self):
        assert stable_hash(2**127 - 1) == 869084634301358996
        assert stable_hash(-(2**127)) == 5820383378815892644

    @pytest.mark.parametrize(
        "key", [2**127, -(2**127) - 1, 2**200, -(2**200)],
        ids=["2**127", "-2**127-1", "2**200", "-2**200"],
    )
    def test_wide_ints_hash(self, key):
        # used to raise OverflowError("int too big to convert")
        assert 0 <= stable_hash(key) < 2**64
        assert HashPartitioner(7).partition(key) == stable_hash(key) % 7

    def test_wide_ints_are_distinct(self):
        wide = [2**127, 2**127 + 1, -(2**127) - 1, 2**135, -(2**135), 2**200, -(2**200)]
        narrow = [2**127 - 1, -(2**127), 0, -1]
        assert len({stable_hash(k) for k in wide + narrow}) == len(wide + narrow)


class TestHashPartitioner:
    @given(keys, st.integers(min_value=1, max_value=64))
    def test_in_range(self, key, n):
        p = HashPartitioner(n)
        assert 0 <= p.partition(key) < n

    @given(keys)
    def test_single_partition_collapses(self, key):
        assert HashPartitioner(1).partition(key) == 0

    def test_spread_over_many_words(self):
        p = HashPartitioner(16)
        counts = partition_counts(p, (f"word{i}" for i in range(4000)))
        # Even key space → roughly balanced partitions (each within 2x of fair share)
        assert min(counts) > 4000 / 16 / 2
        assert max(counts) < 4000 / 16 * 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)


class _Word(str):
    """A ``str`` subclass: equal to its base value, outside the memo's types."""


#: keys that compare equal (or never equal) across types yet hash differently
memo_traps = st.sampled_from([
    0, 0.0, -0.0, False, 1, 1.0, True, float("nan"), 2**127, "a", _Word("a"), b"a",
    (1, "a"), (1.0, "a"), (True, "a"), (0.0,), (-0.0,), ((1, "a"), 1), ((1.0, "a"), 1),
])


class TestHashPartitionerMemo:
    """Each distinct key is hashed once per instance — and the memo is exact."""

    @given(st.lists(st.one_of(keys, memo_traps), max_size=30),
           st.integers(min_value=1, max_value=64))
    def test_whole_list_matches_stable_hash_in_either_order(self, key_list, n):
        expected = [stable_hash(k) % n for k in key_list]
        forward = HashPartitioner(n)
        assert [forward.partition(k) for k in key_list] == expected
        backward = HashPartitioner(n)
        assert [backward.partition(k) for k in reversed(key_list)] == expected[::-1]

    def test_instances_share_nothing(self):
        words = [f"w{i}" for i in range(50)]
        small, large = HashPartitioner(3), HashPartitioner(64)
        assert [small.partition(w) for w in words] == [stable_hash(w) % 3 for w in words]
        assert [large.partition(w) for w in words] == [stable_hash(w) % 64 for w in words]
        assert [small.partition(w) for w in words] == [stable_hash(w) % 3 for w in words]

    @pytest.mark.parametrize("engine", ["hamr", "hadoop"])
    def test_one_hash_per_distinct_word_per_run(self, engine, monkeypatch):
        from repro.common import partitioner as module
        from repro.evaluation.runner import run_workload
        from repro.evaluation.workloads import workload_by_name

        calls = []
        real = module.stable_hash

        def counting(key):
            calls.append(key)
            return real(key)

        monkeypatch.setattr(module, "stable_hash", counting)
        workload = workload_by_name("wordcount", "tiny")
        distinct = {w for _off, line in workload.records for w in line.split()}
        for _run in range(2):
            # a second run in the same process pays for its own misses: the
            # memo lives on the run's partitioner, not in the module
            calls.clear()
            run_workload(workload, engines=engine)
            assert len(calls) == len(distinct)
            assert set(calls) == distinct


class TestModPartitioner:
    def test_direct_placement(self):
        p = ModPartitioner(5)
        assert [p.partition(i) for i in range(7)] == [0, 1, 2, 3, 4, 0, 1]


class TestPartitionOwnership:
    """Partitioner x cluster ownership: the shuffle's delivery invariant."""

    @given(
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=1, max_value=8),
    )
    def test_every_partition_owned_exactly_once(self, num_partitions, num_workers):
        from repro.cluster import Cluster, small_cluster_spec

        cluster = Cluster(small_cluster_spec(num_workers=num_workers))
        owners = [
            cluster.owner_of_partition(p, num_partitions).node_id
            for p in range(num_partitions)
        ]
        # Each partition resolves to exactly one worker, so across workers
        # the partition space is covered exactly once — nothing dropped,
        # nothing double-delivered.
        assert len(owners) == num_partitions
        assert set(owners) <= {w.node_id for w in cluster.workers}
        per_worker = {w.node_id: 0 for w in cluster.workers}
        for owner in owners:
            per_worker[owner] += 1
        assert sum(per_worker.values()) == num_partitions
        # Round-robin layout: worker loads differ by at most one.
        assert max(per_worker.values()) - min(per_worker.values()) <= 1

    @given(keys, st.integers(min_value=1, max_value=6))
    def test_keys_route_to_their_partitions_owner(self, key, num_workers):
        from repro.cluster import Cluster, small_cluster_spec

        cluster = Cluster(small_cluster_spec(num_workers=num_workers))
        partitioner = cluster.default_partitioner()
        p = partitioner.partition(key)
        owner = cluster.owner_of_partition(p, partitioner.num_partitions)
        assert owner.node_id == cluster.owner_of_partition(
            p, partitioner.num_partitions
        ).node_id  # deterministic


class TestRangePartitioner:
    def test_boundaries(self):
        p = RangePartitioner([10, 20, 30])
        assert p.num_partitions == 4
        assert p.partition(5) == 0
        assert p.partition(10) == 0
        assert p.partition(11) == 1
        assert p.partition(25) == 2
        assert p.partition(99) == 3

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            RangePartitioner([3, 1, 2])

    @given(st.lists(st.integers(), min_size=1, max_size=20).map(sorted), st.integers())
    def test_partition_respects_boundaries(self, boundaries, key):
        p = RangePartitioner(boundaries)
        idx = p.partition(key)
        assert 0 <= idx <= len(boundaries)
        if idx > 0:
            assert boundaries[idx - 1] < key
        if idx < len(boundaries):
            assert key <= boundaries[idx]
