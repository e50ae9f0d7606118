"""Tests for data sources: split shapes, locality hints, striping, errors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, small_cluster_spec
from repro.common.errors import StorageError
from repro.core import (
    CollectionSource,
    DFSSource,
    KVStoreSource,
    LocalFSSource,
    PerNodeSource,
)
from repro.storage import DFS, KVStore, LocalFS


def make_cluster(num_workers=3, **kw):
    return Cluster(small_cluster_spec(num_workers=num_workers, **kw))


def run_read(cluster, split, node):
    box = {}

    def proc():
        box["records"] = yield from split.read(node)

    cluster.run_job(proc(), name="read", label="split read")
    return box["records"]


class TestCollectionSource:
    def test_chunks_cover_everything(self):
        cluster = make_cluster(num_workers=3)
        source = CollectionSource(list(range(20)), splits_per_worker=2)
        splits = source.splits(cluster)
        assert len(splits) == 6
        gathered = []
        for split in splits:
            node = cluster.nodes[split.preferred_nodes[0]]
            gathered.extend(run_read(cluster, split, node))
        assert sorted(gathered) == list(range(20))

    def test_rejects_bad_splits_per_worker(self):
        with pytest.raises(ValueError):
            CollectionSource([], splits_per_worker=0)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(), max_size=50), st.integers(1, 4))
    def test_partition_property(self, items, spw):
        cluster = make_cluster(num_workers=2)
        splits = CollectionSource(items, splits_per_worker=spw).splits(cluster)
        total = sum(split.nrecords for split in splits)
        assert total == len(items)


class TestLocalFSSource:
    def test_splits_per_node(self):
        cluster = make_cluster(num_workers=2)
        fs = LocalFS(cluster)
        fs.ingest(cluster.worker(0), "data", list(range(10)))
        fs.ingest(cluster.worker(1), "data", list(range(10, 14)))
        splits = LocalFSSource(fs, "data", splits_per_node=4).splits(cluster)
        by_node = {}
        for split in splits:
            by_node.setdefault(split.preferred_nodes[0], []).append(split)
        assert len(by_node[cluster.worker(0).node_id]) == 4
        assert len(by_node[cluster.worker(1).node_id]) == 4
        gathered = []
        for split in splits:
            node = cluster.nodes[split.preferred_nodes[0]]
            gathered.extend(run_read(cluster, split, node))
        assert sorted(gathered) == list(range(14))

    def test_wrong_node_read_rejected(self):
        cluster = make_cluster(num_workers=2)
        fs = LocalFS(cluster)
        fs.ingest(cluster.worker(0), "data", [1, 2, 3])
        split = LocalFSSource(fs, "data").splits(cluster)[0]
        with pytest.raises(StorageError):
            run_read(cluster, split, cluster.worker(1))

    def test_missing_file_everywhere_rejected(self):
        cluster = make_cluster()
        fs = LocalFS(cluster)
        with pytest.raises(StorageError):
            LocalFSSource(fs, "ghost").splits(cluster)

    def test_rejects_bad_splits_per_node(self):
        with pytest.raises(ValueError):
            LocalFSSource(None, "x", splits_per_node=0)


class TestKVStoreSource:
    def test_stripes_cover_shard(self):
        cluster = make_cluster(num_workers=2)
        store = KVStore(cluster)
        node = cluster.worker(0)
        for i in range(17):
            store.put(node, f"k{i:02d}", i)
        splits = [
            s
            for s in KVStoreSource(store, splits_per_node=4).splits(cluster)
            if s.preferred_nodes == [node.node_id]
        ]
        assert len(splits) == 4
        gathered = []
        for split in splits:
            gathered.extend(run_read(cluster, split, node))
        assert sorted(gathered) == sorted((f"k{i:02d}", i) for i in range(17))

    def test_empty_shard_single_split(self):
        cluster = make_cluster(num_workers=2)
        store = KVStore(cluster)
        splits = KVStoreSource(store, splits_per_node=4).splits(cluster)
        # one (empty) split per worker with an empty shard
        assert len(splits) == 2
        for split in splits:
            node = cluster.nodes[split.preferred_nodes[0]]
            assert run_read(cluster, split, node) == []

    def test_wrong_node_rejected(self):
        cluster = make_cluster(num_workers=2)
        store = KVStore(cluster)
        store.put(cluster.worker(0), "k", 1)
        split = KVStoreSource(store).splits(cluster)[0]
        with pytest.raises(StorageError):
            run_read(cluster, split, cluster.worker(1))


class TestPerNodeSource:
    def test_rejects_unknown_nodes(self):
        cluster = make_cluster(num_workers=2)
        with pytest.raises(StorageError):
            PerNodeSource({99: [1]}).splits(cluster)

    def test_preserves_placement(self):
        cluster = make_cluster(num_workers=2)
        by_node = {
            cluster.worker(0).node_id: ["a"],
            cluster.worker(1).node_id: ["b", "c"],
        }
        splits = PerNodeSource(by_node).splits(cluster)
        assert {tuple(s.preferred_nodes): s.nrecords for s in splits} == {
            (cluster.worker(0).node_id,): 1,
            (cluster.worker(1).node_id,): 2,
        }


class TestDFSSource:
    def test_splits_match_blocks(self):
        cluster = make_cluster(num_workers=3, scale=1e6)
        dfs = DFS(cluster)
        dfs.ingest("f", [(i, "x" * 50) for i in range(100)])
        file = dfs.get_file("f")
        splits = DFSSource(dfs, "f").splits(cluster)
        assert len(splits) == len(file.blocks) > 1
        assert sum(s.nrecords for s in splits) == 100
