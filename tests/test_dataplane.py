"""Tests for the shared record-batch data plane.

The load-bearing invariant: a batch's cached size equals the sum of its
records' per-record charges, so batching changes how often sizes are
computed but never what they sum to — virtual-clock results stay
byte-identical to per-record accounting.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.partitioner import HashPartitioner, stable_hash
from repro.common.sizeof import logical_sizeof, pair_size
from repro.cluster import Cluster, small_cluster_spec
from repro.dataplane import (
    BROADCAST,
    BROADCAST_PARTITION,
    LOCAL,
    SHUFFLE,
    BatchBuilder,
    RecordBatch,
    SpillPool,
    batch_nbytes,
    chunk_records,
    exchange_targets,
    partition_batch,
)

records_strategy = st.lists(
    st.one_of(
        st.text(max_size=20),
        st.integers(),
        st.tuples(st.text(max_size=10), st.integers()),
    ),
    max_size=30,
)

pairs_strategy = st.lists(
    st.tuples(st.text(max_size=12), st.integers()), max_size=40
)

# keys and values of several types, often enough of one kind in a row that
# a partition's batch is long and uniform in one column but not the other
_mixed_value = st.one_of(
    st.integers(),
    st.text(max_size=8),
    st.floats(allow_nan=False),
    st.none(),
    st.booleans(),
    st.tuples(st.integers(), st.text(max_size=4)),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=8),
)
mixed_pairs_strategy = st.lists(
    st.tuples(st.one_of(st.text(max_size=6), st.integers()), _mixed_value),
    max_size=60,
)


class TestRecordBatch:
    @given(records_strategy)
    def test_batch_charge_equals_per_record_sum(self, records):
        # The accounting rule the whole refactor rests on.
        assert RecordBatch(list(records)).nbytes == sum(
            logical_sizeof(r) for r in records
        )

    @given(records_strategy)
    def test_cached_size_trusted(self, records):
        # A producer-supplied size is never recomputed.
        batch = RecordBatch(list(records), nbytes=123456)
        assert batch.nbytes == 123456

    def test_append_keeps_cache_valid(self):
        batch = RecordBatch(["ab"], nbytes=2)
        batch.append(("k", 1))
        assert batch.nbytes == 2 + pair_size("k", 1)
        assert batch.nbytes == batch_nbytes(batch.records)

    def test_extend_keeps_cache_valid(self):
        batch = RecordBatch([], nbytes=0)
        batch.extend(["ab", "cde"])
        assert batch.nbytes == 5 == batch_nbytes(batch.records)

    @given(records_strategy, records_strategy)
    def test_extend_charge_equals_per_record_sum(self, first, more):
        batch = RecordBatch(list(first))
        assert batch.nbytes == sum(logical_sizeof(r) for r in first)
        batch.extend(more)
        assert batch.nbytes == sum(logical_sizeof(r) for r in first + more)

    def test_sort_preserves_size(self):
        batch = RecordBatch([("b", 2), ("a", 1)])
        before = batch.nbytes
        batch.sort(key=lambda kv: repr(kv[0]))
        assert batch.records == [("a", 1), ("b", 2)]
        assert batch.nbytes == before

    def test_compares_to_plain_list(self):
        assert RecordBatch(["x", "y"]) == ["x", "y"]
        assert RecordBatch(["x"]) == RecordBatch(["x"])
        assert RecordBatch(["x"]) != ["y"]

    def test_len_bool_iter(self):
        batch = RecordBatch(["a", "b"])
        assert len(batch) == 2 and batch.nrecords == 2
        assert list(batch) == ["a", "b"]
        assert bool(batch) and not bool(RecordBatch())


class TestBatchBuilder:
    @given(records_strategy, st.integers(min_value=1, max_value=200))
    def test_chunking_equals_inline_accumulation(self, records, limit):
        # The builder must seal exactly where the engines' old inline
        # loops did: after the record that pushes the size to >= limit.
        chunks = chunk_records(list(records), limit)
        expected, open_chunk, open_bytes = [], [], 0
        for r in records:
            open_chunk.append(r)
            open_bytes += logical_sizeof(r)
            if open_bytes >= limit:
                expected.append(open_chunk)
                open_chunk, open_bytes = [], 0
        if open_chunk:
            expected.append(open_chunk)
        assert [c.records for c in chunks] == expected
        for chunk in chunks:
            assert chunk.nbytes == batch_nbytes(chunk.records)

    def test_presized_batch_passes_through_unsplit(self):
        batch = RecordBatch(["abc"] * 4, nbytes=12)
        assert chunk_records(batch, 100) == [batch]
        assert chunk_records(RecordBatch([], nbytes=0), 100) == []

    def test_scale_fn_moves_boundaries(self):
        # With a 10x scale, a 10-byte limit seals after every ~1 real byte.
        builder = BatchBuilder(10, scale_fn=lambda b: b * 10)
        assert builder.add("a") is not None
        assert builder.batches_sealed == 1

    def test_drain_returns_remainder_once(self):
        builder = BatchBuilder(1000)
        builder.add("tail")
        assert builder.drain().records == ["tail"]
        assert builder.drain() is None

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            BatchBuilder(0)


class TestPartitionBatch:
    @given(pairs_strategy, st.integers(min_value=1, max_value=8))
    def test_matches_per_pair_partitioning(self, pairs, n):
        partitioner = HashPartitioner(n)
        batches = partition_batch(pairs, partitioner)
        expected: dict[int, list] = {}
        for key, value in pairs:
            expected.setdefault(partitioner.partition(key), []).append((key, value))
        assert {p: b.records for p, b in batches.items()} == expected
        for batch in batches.values():
            assert batch.nbytes == sum(pair_size(k, v) for k, v in batch.records)

    @given(mixed_pairs_strategy, st.integers(min_value=1, max_value=4))
    def test_bulk_sizing_equals_per_pair_sum_on_mixed_pairs(self, pairs, n):
        # Partitions are sized as whole batches; whatever mix of key and
        # value types lands in one, the charge is the per-pair sum.
        batches = partition_batch(pairs, HashPartitioner(n))
        assert sum(len(b.records) for b in batches.values()) == len(pairs)
        for batch in batches.values():
            assert batch.nbytes == sum(pair_size(k, v) for k, v in batch.records)
            assert batch.nbytes == sum(logical_sizeof(r) for r in batch.records)

    def test_equal_keys_of_different_types_keep_their_own_partitions(self):
        # 1 == 1.0 == True share a dict slot but not a stable_hash, so one
        # must never answer for another out of the partitioner's memo.
        pairs = [(key, i) for i, key in enumerate([1, 1.0, True, 1.0, True, 1] * 3)]
        for n in range(2, 10):
            expected: dict[int, list] = {}
            for key, value in pairs:
                expected.setdefault(stable_hash(key) % n, []).append((key, value))
            batches = partition_batch(pairs, HashPartitioner(n))
            # repr, because (1, 0) == (1.0, 0) == (True, 0)
            assert repr({p: b.records for p, b in batches.items()}) == repr(expected)

    def test_empty_partitions_absent(self):
        assert partition_batch([], HashPartitioner(4)) == {}

    def test_aggregated_flag_propagates(self):
        batches = partition_batch([("k", 1)], HashPartitioner(2), aggregated=True)
        assert all(b.aggregated for b in batches.values())


class TestExchangeTargets:
    def test_broadcast_reaches_every_worker(self):
        assert exchange_targets(
            BROADCAST, 0, worker_index=1, num_workers=4
        ) == [0, 1, 2, 3]

    def test_broadcast_partition_overrides_mode(self):
        assert exchange_targets(
            SHUFFLE, BROADCAST_PARTITION, worker_index=0, num_workers=3
        ) == [0, 1, 2]

    def test_local_stays_home(self):
        assert exchange_targets(LOCAL, 5, worker_index=2, num_workers=4) == [2]

    def test_shuffle_resolves_owner(self):
        targets = exchange_targets(
            SHUFFLE, 7, worker_index=0, num_workers=4, owner_of=lambda p: p % 4
        )
        assert targets == [3]

    def test_shuffle_requires_resolver(self):
        with pytest.raises(ValueError):
            exchange_targets(SHUFFLE, 0, worker_index=0, num_workers=2)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            exchange_targets("teleport", 0, worker_index=0, num_workers=2)

    def test_partition_ownership_covers_each_partition_once(self):
        # Round-robin ownership: across all workers, every partition is
        # owned exactly once — no pair is dropped or double-delivered.
        cluster = Cluster(small_cluster_spec(num_workers=4))
        for num_partitions in (1, 3, 4, 7, 16):
            owners = [
                cluster.owner_of_partition(p, num_partitions).node_id
                for p in range(num_partitions)
            ]
            worker_ids = {w.node_id for w in cluster.workers}
            assert set(owners) <= worker_ids
            # each partition resolved exactly once and deterministically
            assert owners == [
                cluster.owner_of_partition(p, num_partitions).node_id
                for p in range(num_partitions)
            ]
            seen = [
                sum(1 for q in range(num_partitions)
                    if cluster.owner_of_partition(q, num_partitions).node_id == w)
                for w in sorted(worker_ids)
            ]
            assert sum(seen) == num_partitions


class TestSpillPool:
    def _run(self, cluster, gen):
        box = {}

        def wrapper(sim):
            box["result"] = yield from gen

        cluster.sim.spawn(wrapper(cluster.sim))
        cluster.sim.run()
        return box["result"]

    def test_one_manager_per_node(self):
        cluster = Cluster(small_cluster_spec(num_workers=3))
        pool = SpillPool(job="j")
        node0, node1 = cluster.worker(0), cluster.worker(1)
        assert pool.for_node(node0) is pool.for_node(node0)
        assert pool.for_node(node0) is not pool.for_node(node1)
        assert len(pool.managers) == 2

    def test_spill_batch_uses_cached_size(self):
        cluster = Cluster(small_cluster_spec(num_workers=2))
        pool = SpillPool(job="j")
        node = cluster.worker(0)
        pairs = [("k", i) for i in range(10)]
        batch = RecordBatch(pairs, nbytes=sum(pair_size(k, v) for k, v in pairs))
        run = self._run(cluster, pool.for_node(node).spill(batch, sorted_by_key=True))
        # The run's size is the batch's cached size — exactly the
        # per-record sum the spill layer would otherwise recompute.
        assert run.nbytes == batch.nbytes == batch_nbytes(pairs)
        assert run.sorted_by_key
        assert pool.runs_created == 1
        assert pool.bytes_spilled > 0

    def test_shared_id_space_per_node(self):
        cluster = Cluster(small_cluster_spec(num_workers=2))
        pool = SpillPool(job="j")
        manager = pool.for_node(cluster.worker(0))
        first = self._run(cluster, manager.spill(RecordBatch(["a"])))
        second = self._run(cluster, manager.spill(RecordBatch(["b"])))
        assert (first.run_id, second.run_id) == (0, 1)
        read = self._run(cluster, manager.read_back(first))
        assert read == ["a"]
        assert pool.bytes_read_back > 0
