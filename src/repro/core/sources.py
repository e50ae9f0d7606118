"""Data sources for loader flowlets.

"The loader flowlet tasks work to pull directly from multiple data sources
simultaneously. The data sources include but are not limited to HDFS,
HBase, local disks, distributed file system, relational database, NoSQL
database, message broker, and other structured data sources" (§2).

A source exposes :class:`SourceSplit` objects — the unit of loader-task
parallelism — each with locality hints and a charged ``read`` process.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.common.errors import StorageError
from repro.common.sizeof import sizeof_many
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.storage.dfs import DFS
from repro.storage.kvstore import KVStore
from repro.storage.localfs import LocalFS


class SourceSplit:
    """One independently loadable chunk of input."""

    def __init__(
        self,
        split_id: int,
        preferred_nodes: Sequence[int],
        nrecords: int,
        nbytes: int,
    ):
        self.split_id = split_id
        self.preferred_nodes = list(preferred_nodes)
        self.nrecords = nrecords
        self.nbytes = nbytes

    def read(self, node: Node):
        """Simulation process yielding cost events; returns the records."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SourceSplit {self.split_id} pref={self.preferred_nodes}>"


class DataSource:
    """Produces the splits a loader flowlet will pull."""

    def splits(self, cluster: Cluster) -> list[SourceSplit]:
        raise NotImplementedError


# -- DFS ------------------------------------------------------------------------


class _DFSSplit(SourceSplit):
    def __init__(self, split_id: int, dfs: DFS, block) -> None:
        super().__init__(split_id, block.replica_nodes, block.nrecords, block.nbytes)
        self._dfs = dfs
        self._block = block

    def read(self, node: Node):
        records = yield from self._dfs.read_block(self._block, node)
        return records


class DFSSource(DataSource):
    """Reads a DFS file block-by-block with replica locality."""

    def __init__(self, dfs: DFS, file_name: str):
        self.dfs = dfs
        self.file_name = file_name

    def splits(self, cluster: Cluster) -> list[SourceSplit]:
        file = self.dfs.get_file(self.file_name)
        return [_DFSSplit(i, self.dfs, block) for i, block in enumerate(file.blocks)]


# -- local disks -------------------------------------------------------------------


class _LocalSplit(SourceSplit):
    def __init__(
        self,
        split_id: int,
        fs: LocalFS,
        node_id: int,
        name: str,
        offset: int,
        length: int,
    ):
        file = fs.get_file(node_id, name)
        records = file.records[offset : offset + length]
        nbytes = sizeof_many(records)
        super().__init__(split_id, [node_id], len(records), nbytes)
        self._fs = fs
        self._name = name
        self._node_id = node_id
        self._offset = offset
        self._length = length

    def read(self, node: Node):
        if node.node_id != self._node_id:
            raise StorageError(
                f"local split for node {self._node_id} read on node {node.node_id}"
            )
        from repro.storage.localfs import LocationRef

        ref = LocationRef(self._node_id, self._name, self._offset, self._length)
        records = yield from self._fs.read_ref(node, ref)
        return records


class LocalFSSource(DataSource):
    """Splits per worker over a node-local file of the given name (§5.1:
    HAMR's input "is distributed between the local disks of each node").

    ``splits_per_node`` slices each node's file into several splits so
    loader parallelism can use the per-node loader slots.
    """

    def __init__(self, fs: LocalFS, file_name: str, splits_per_node: int = 8):
        if splits_per_node <= 0:
            raise ValueError("splits_per_node must be positive")
        self.fs = fs
        self.file_name = file_name
        self.splits_per_node = splits_per_node

    def splits(self, cluster: Cluster) -> list[SourceSplit]:
        out: list[SourceSplit] = []
        for worker in cluster.workers:
            if not self.fs.exists(worker, self.file_name):
                continue
            file = self.fs.get_file(worker.node_id, self.file_name)
            n = file.nrecords
            k = min(self.splits_per_node, max(1, n))
            base, extra = divmod(n, k)
            offset = 0
            for i in range(k):
                length = base + (1 if i < extra else 0)
                if length == 0 and offset > 0:
                    continue
                out.append(
                    _LocalSplit(len(out), self.fs, worker.node_id, self.file_name, offset, length)
                )
                offset += length
        if not out:
            raise StorageError(f"no node holds local file {self.file_name!r}")
        return out


# -- key-value store ------------------------------------------------------------------


class _KVSplit(SourceSplit):
    def __init__(
        self,
        split_id: int,
        store: KVStore,
        node_id: int,
        stripe: int,
        stripes: int,
        nrecords: int,
        nbytes: int,
    ):
        super().__init__(split_id, [node_id], nrecords, nbytes)
        self._store = store
        self._node_id = node_id
        self._stripe = stripe
        self._stripes = stripes

    def read(self, node: Node):
        if node.node_id != self._node_id:
            raise StorageError("KV store shards must be read on their own node")
        # In-memory: no disk or network charge; CPU is charged by the loader task.
        if False:  # pragma: no cover - makes this function a generator
            yield None
        items = list(self._store.items(node))
        return items[self._stripe :: self._stripes]


class KVStoreSource(DataSource):
    """Reads each worker's shard in place — PageRank's EdgeLoader (Alg. 2
    step 7) loads adjacency lists "from memory" instead of from disk.

    Each shard is striped into ``splits_per_node`` loader splits so the
    in-memory scan parallelizes over the node's loader slots.
    """

    def __init__(self, store: KVStore, splits_per_node: int = 8):
        if splits_per_node <= 0:
            raise ValueError("splits_per_node must be positive")
        self.store = store
        self.splits_per_node = splits_per_node

    def splits(self, cluster: Cluster) -> list[SourceSplit]:
        out = []
        for worker in cluster.workers:
            n = self.store.local_size(worker)
            stripes = min(self.splits_per_node, max(1, n))
            nbytes = int(self.store.local_bytes(worker))
            for stripe in range(stripes):
                stripe_records = len(range(stripe, n, stripes))
                out.append(
                    _KVSplit(
                        len(out),
                        self.store,
                        worker.node_id,
                        stripe,
                        stripes,
                        stripe_records,
                        nbytes // stripes if stripes else nbytes,
                    )
                )
        return out


# -- in-memory collections (tests, drivers, streaming feeds) -----------------------------


class _CollectionSplit(SourceSplit):
    def __init__(self, split_id: int, preferred: Sequence[int], records: list[Any]):
        nbytes = sizeof_many(records)
        super().__init__(split_id, preferred, len(records), nbytes)
        self._records = records

    def read(self, node: Node):
        if False:  # pragma: no cover - makes this function a generator
            yield None
        return list(self._records)


class CollectionSource(DataSource):
    """An in-memory collection chunked round-robin across workers.

    No disk charge on read (the data is wherever the driver put it);
    useful for unit tests and driver-fed iterations.
    """

    def __init__(self, records: Iterable[Any], splits_per_worker: int = 1):
        self.records = list(records)
        if splits_per_worker <= 0:
            raise ValueError("splits_per_worker must be positive")
        self.splits_per_worker = splits_per_worker

    def splits(self, cluster: Cluster) -> list[SourceSplit]:
        nsplits = max(1, cluster.num_workers * self.splits_per_worker)
        chunks: list[list[Any]] = [[] for _ in range(nsplits)]
        for i, record in enumerate(self.records):
            chunks[i % nsplits].append(record)
        out = []
        for i, chunk in enumerate(chunks):
            preferred = [cluster.workers[i % cluster.num_workers].node_id]
            out.append(_CollectionSplit(i, preferred, chunk))
        return out


class PerNodeSource(DataSource):
    """Explicit per-worker record lists (driver-placed data)."""

    def __init__(self, by_node: dict[int, list[Any]]):
        self.by_node = by_node

    def splits(self, cluster: Cluster) -> list[SourceSplit]:
        worker_ids = {w.node_id for w in cluster.workers}
        unknown = set(self.by_node) - worker_ids
        if unknown:
            raise StorageError(f"PerNodeSource names non-worker nodes: {sorted(unknown)}")
        return [
            _CollectionSplit(i, [node_id], records)
            for i, (node_id, records) in enumerate(sorted(self.by_node.items()))
        ]
