"""Tests for the storage layer: DFS, LocalFS, spill runs, KV store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import MemoryBudgetExceeded, StorageError
from repro.common.partitioner import HashPartitioner
from repro.cluster import Cluster, small_cluster_spec
from repro.dataplane import RecordBatch
from repro.storage import DFS, KVStore, LocalFS, LocationRef, SpillManager


def make_cluster(**kw):
    return Cluster(small_cluster_spec(**kw))


def run_process(cluster, gen):
    """Spawn a process, run the sim, return (result, elapsed)."""
    box = {}

    def wrapper(sim):
        box["result"] = yield from gen
        return box["result"]

    cluster.sim.spawn(wrapper(cluster.sim))
    elapsed = cluster.sim.run()
    return box["result"], elapsed


class TestDFSIngest:
    def test_ingest_preserves_records(self):
        cluster = make_cluster(num_workers=3)
        dfs = DFS(cluster)
        records = [f"line-{i}" for i in range(100)]
        file = dfs.ingest("input.txt", records)
        assert list(file.records()) == records
        assert file.nrecords == 100
        assert dfs.exists("input.txt")

    def test_ingest_charges_no_time(self):
        cluster = make_cluster(num_workers=3)
        DFS(cluster).ingest("f", ["x"] * 1000)
        assert cluster.sim.run() == 0.0
        assert cluster.total_disk_bytes() == 0

    def test_block_splitting_respects_scale(self):
        # 100 records x ~100B = 10KB real; at scale 1e4 that's 100MB modeled,
        # so with 128MB blocks everything fits one block; at scale 1e5 → 1GB → 8 blocks.
        records = ["x" * 100 for _ in range(100)]
        one = DFS(make_cluster(num_workers=3, scale=1e4)).ingest("f", records)
        many = DFS(make_cluster(num_workers=3, scale=1e5)).ingest("f", records)
        assert len(one.blocks) == 1
        assert len(many.blocks) == 8

    def test_replicas_distinct_and_on_workers(self):
        cluster = make_cluster(num_workers=5)
        dfs = DFS(cluster)
        file = dfs.ingest("f", ["data"] * 10)
        worker_ids = {n.node_id for n in cluster.workers}
        for block in file.blocks:
            assert len(block.replica_nodes) == 3  # default replication
            assert len(set(block.replica_nodes)) == 3
            assert set(block.replica_nodes) <= worker_ids

    def test_replication_capped_by_workers(self):
        cluster = make_cluster(num_workers=2)
        file = DFS(cluster).ingest("f", ["x"])
        assert len(file.blocks[0].replica_nodes) == 2

    def test_duplicate_name_rejected(self):
        dfs = DFS(make_cluster())
        dfs.ingest("f", [])
        with pytest.raises(StorageError):
            dfs.ingest("f", [])

    def test_missing_file(self):
        with pytest.raises(StorageError):
            DFS(make_cluster()).get_file("nope")

    def test_empty_file_has_one_empty_block(self):
        file = DFS(make_cluster()).ingest("empty", [])
        assert len(file.blocks) == 1
        assert file.nrecords == 0


class TestDFSReadWrite:
    def test_local_read_charges_disk_only(self):
        cluster = make_cluster(num_workers=3)
        dfs = DFS(cluster)
        file = dfs.ingest("f", ["r"] * 50)
        block = file.blocks[0]
        reader = cluster.nodes[block.replica_nodes[0]]
        records, elapsed = run_process(cluster, dfs.read_block(block, reader))
        assert records == ["r"] * 50
        assert elapsed > 0
        assert cluster.network.total_bytes == 0

    def test_remote_read_charges_network(self):
        cluster = make_cluster(num_workers=5)
        dfs = DFS(cluster)
        file = dfs.ingest("f", ["r"] * 50)
        block = file.blocks[0]
        non_replicas = [
            w for w in cluster.workers if w.node_id not in block.replica_nodes
        ]
        records, _ = run_process(cluster, dfs.read_block(block, non_replicas[0]))
        assert records == ["r"] * 50
        assert cluster.network.total_bytes > 0

    def test_write_replicates(self):
        cluster = make_cluster(num_workers=4)
        dfs = DFS(cluster)
        writer = cluster.worker(0)
        file, elapsed = run_process(cluster, dfs.write("out", ["a", "b"], writer))
        assert elapsed > 0
        assert list(file.records()) == ["a", "b"]
        # writer-local first replica
        assert file.blocks[0].replica_nodes[0] == writer.node_id
        assert cluster.network.total_bytes > 0  # pipeline to other replicas

    def test_write_existing_rejected(self):
        cluster = make_cluster()
        dfs = DFS(cluster)
        dfs.ingest("out", [])
        with pytest.raises(StorageError):
            # write() raises before yielding anything
            next(iter(dfs.write("out", ["x"], cluster.worker(0))), None)

    def test_splits_expose_locality(self):
        cluster = make_cluster(num_workers=3)
        dfs = DFS(cluster)
        dfs.ingest("f", ["x"] * 10)
        splits = dfs.splits("f")
        assert len(splits) == 1
        assert splits[0].preferred_nodes == dfs.get_file("f").blocks[0].replica_nodes
        assert splits[0].nrecords == 10


class TestLocalFS:
    def test_ingest_and_read(self):
        cluster = make_cluster()
        fs = LocalFS(cluster)
        node = cluster.worker(1)
        fs.ingest(node, "data", [1, 2, 3])
        records, elapsed = run_process(cluster, fs.read(node, "data"))
        assert records == [1, 2, 3]
        assert elapsed > 0

    def test_write_returns_location_ref(self):
        cluster = make_cluster()
        fs = LocalFS(cluster)
        node = cluster.worker(0)
        ref, _ = run_process(cluster, fs.write(node, "out", ["a", "b"]))
        assert ref == LocationRef(node.node_id, "out", offset=0, length=2)

    def test_append_offsets(self):
        cluster = make_cluster()
        fs = LocalFS(cluster)
        node = cluster.worker(0)
        run_process(cluster, fs.write(node, "out", ["a"]))
        ref2, _ = run_process(cluster, fs.write(node, "out", ["b", "c"]))
        assert ref2.offset == 1
        assert ref2.length == 2

    def test_read_ref_resolves_slice(self):
        cluster = make_cluster()
        fs = LocalFS(cluster)
        node = cluster.worker(0)
        fs.ingest(node, "f", list("abcdef"))
        ref = LocationRef(node.node_id, "f", offset=2, length=3)
        records, _ = run_process(cluster, fs.read_ref(node, ref))
        assert records == ["c", "d", "e"]

    def test_read_ref_on_wrong_node_rejected(self):
        cluster = make_cluster()
        fs = LocalFS(cluster)
        owner, other = cluster.worker(0), cluster.worker(1)
        fs.ingest(owner, "f", ["x"])
        ref = LocationRef(owner.node_id, "f")
        with pytest.raises(StorageError):
            next(iter(fs.read_ref(other, ref)), None)

    def test_location_ref_is_small(self):
        from repro.common.sizeof import logical_sizeof

        ref = LocationRef(3, "clusters-0", offset=100, length=5000)
        assert logical_sizeof(ref) == 24

    def test_namespaces_are_per_node(self):
        cluster = make_cluster()
        fs = LocalFS(cluster)
        fs.ingest(cluster.worker(0), "same", [1])
        fs.ingest(cluster.worker(1), "same", [2])
        assert fs.get_file(cluster.worker(0).node_id, "same").records == [1]
        assert fs.get_file(cluster.worker(1).node_id, "same").records == [2]


class TestSpill:
    def test_spill_and_read_back(self):
        cluster = make_cluster()
        node = cluster.worker(0)
        node.alloc(13)  # logical size of ("k", 1): 4 + 1 + 8
        spill = SpillManager(node)
        run, _ = run_process(
            cluster, spill.spill(RecordBatch([("k", 1)]), sorted_by_key=True, free_memory=True)
        )
        assert run.sorted_by_key
        assert node.memory.used == 0  # freed by spilling
        records, _ = run_process(cluster, spill.read_back(run))
        assert records == [("k", 1)]
        assert spill.bytes_spilled > 0
        assert spill.bytes_read_back > 0

    def test_read_freed_run_rejected(self):
        cluster = make_cluster()
        node = cluster.worker(0)
        spill = SpillManager(node)
        run, _ = run_process(cluster, spill.spill(RecordBatch([])))
        spill.free(run)
        with pytest.raises(StorageError):
            next(iter(spill.read_back(run)), None)
        assert spill.live_runs == 0

    def test_wrong_node_rejected(self):
        cluster = make_cluster()
        spill0 = SpillManager(cluster.worker(0))
        spill1 = SpillManager(cluster.worker(1))
        run, _ = run_process(cluster, spill0.spill(RecordBatch([1])))
        with pytest.raises(StorageError):
            next(iter(spill1.read_back(run)), None)


class TestKVStore:
    def test_put_get_per_node(self):
        cluster = make_cluster(num_workers=2)
        store = KVStore(cluster)
        a, b = cluster.worker(0), cluster.worker(1)
        store.put(a, "k", "va")
        store.put(b, "k", "vb")
        assert store.get(a, "k") == "va"
        assert store.get(b, "k") == "vb"
        assert store.total_entries() == 2

    def test_memory_accounted_and_released(self):
        cluster = make_cluster(num_workers=2)
        store = KVStore(cluster)
        node = cluster.worker(0)
        store.put(node, "key", "x" * 100)
        assert node.memory.used > 0
        store.delete(node, "key")
        assert node.memory.used == 0

    def test_replace_releases_old(self):
        cluster = make_cluster(num_workers=2)
        store = KVStore(cluster)
        node = cluster.worker(0)
        store.put(node, "k", "x" * 1000)
        big = node.memory.used
        store.put(node, "k", "y")
        assert node.memory.used < big

    def test_oom_on_budget(self):
        cluster = make_cluster(num_workers=2, memory=1000, scale=1.0)
        store = KVStore(cluster)
        node = cluster.worker(0)
        with pytest.raises(MemoryBudgetExceeded):
            store.put(node, "k", "x" * 2000)

    def test_owner_routing(self):
        cluster = make_cluster(num_workers=4)
        store = KVStore(cluster)
        partitioner = HashPartitioner(4)
        owner = store.owner("some-key", partitioner)
        assert owner.node_id == cluster.owner_of_partition(
            partitioner.partition("some-key"), 4
        ).node_id

    def test_clear_releases_everything(self):
        cluster = make_cluster(num_workers=2)
        store = KVStore(cluster)
        for i, node in enumerate(cluster.workers):
            store.put(node, f"k{i}", "v" * 50)
        store.clear()
        assert store.total_entries() == 0
        assert all(n.memory.used == 0 for n in cluster.workers)

    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(st.text(max_size=8), st.integers(), max_size=30))
    def test_roundtrip_property(self, mapping):
        cluster = make_cluster(num_workers=3)
        store = KVStore(cluster)
        node = cluster.worker(0)
        for k, v in mapping.items():
            store.put(node, k, v)
        assert dict(store.items(node)) == mapping
