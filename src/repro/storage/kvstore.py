"""A per-node in-memory key-value store.

§5.2/§7 of the paper: HAMR builds graphs "into memory distributedly (one
JVM per node ... all tasks can share memory)" and plans a *key-value
store* component. This module is that component: each node hosts a shard;
keys are routed to shards by the cluster's partitioner; values survive
across flowlets and across iterations (PageRank's adjacency lists,
KCliques' relationship structures live here).

Memory is accounted against the owning node; a put that cannot fit raises
:class:`MemoryBudgetExceeded` — which is exactly how the paper describes
Hadoop dying on large KCliques graphs while HAMR, sharing one store per
node, survives.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.common.errors import StorageError
from repro.common.partitioner import Partitioner
from repro.common.sizeof import pair_size
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node


class KVStore:
    """A distributed in-memory store sharded over the cluster's workers."""

    def __init__(self, cluster: Cluster, name: str = "kvstore"):
        self.cluster = cluster
        self.name = name
        self._shards: dict[int, dict[Any, Any]] = {
            node.node_id: {} for node in cluster.workers
        }
        # Pre-scale bytes charged per key (entries may use different size
        # divisors, so the exact charge must be remembered for release).
        self._charged: dict[int, dict[Any, float]] = {
            node.node_id: {} for node in cluster.workers
        }

    # -- shard access (engine code runs these on the owning node) -------------

    def shard(self, node: Node) -> dict[Any, Any]:
        try:
            return self._shards[node.node_id]
        except KeyError:
            raise StorageError(f"{self.name}: node {node.node_id} hosts no shard") from None

    def put(self, node: Node, key: Any, value: Any, size_divisor: float = 1.0) -> None:
        """Store ``key -> value`` in ``node``'s shard, accounting memory.

        Replacing an existing key first releases the old entry's bytes.
        ``size_divisor`` discounts key-space-bounded entries under the
        scale model (a centroid is one object no matter the data size).
        Raises :class:`MemoryBudgetExceeded` when the node is out of budget.
        """
        shard = self.shard(node)
        charged = self._charged[node.node_id]
        if key in shard:
            node.free(charged.pop(key))
        nbytes = pair_size(key, value) / size_divisor
        node.memory.force_allocate(node.cost.scaled_bytes(nbytes))
        charged[key] = nbytes
        shard[key] = value

    def get(self, node: Node, key: Any, default: Any = None) -> Any:
        return self.shard(node).get(key, default)

    def delete(self, node: Node, key: Any) -> None:
        shard = self.shard(node)
        if key in shard:
            shard.pop(key)
            node.free(self._charged[node.node_id].pop(key))

    def items(self, node: Node) -> Iterator[tuple[Any, Any]]:
        # Sorted iteration keeps downstream processing deterministic.
        shard = self.shard(node)
        return iter(sorted(shard.items(), key=lambda kv: repr(kv[0])))

    def local_size(self, node: Node) -> int:
        return len(self.shard(node))

    def local_bytes(self, node: Node) -> float:
        """Pre-scale logical bytes charged for ``node``'s shard."""
        return sum(self._charged[node.node_id].values())

    # -- cluster-wide views ------------------------------------------------------

    def owner(self, key: Any, partitioner: Partitioner) -> Node:
        """The worker whose shard owns ``key`` under ``partitioner``."""
        partition = partitioner.partition(key)
        return self.cluster.owner_of_partition(partition, partitioner.num_partitions)

    def total_entries(self) -> int:
        return sum(len(shard) for shard in self._shards.values())

    def all_items(self) -> Iterator[tuple[Any, Any]]:
        """Every (key, value) across shards — verification/reporting only."""
        for node_id in sorted(self._shards):
            yield from sorted(self._shards[node_id].items(), key=lambda kv: repr(kv[0]))

    def clear(self) -> None:
        """Drop everything, releasing all accounted memory."""
        for node in self.cluster.workers:
            shard = self._shards[node.node_id]
            if shard:
                node.free(sum(self._charged[node.node_id].values()))
                self._charged[node.node_id].clear()
                shard.clear()

    # -- checkpointing (§7's "performance optimization" on the store) -----------

    def checkpoint(self, localfs, name: str):
        """Process: persist every shard to its node's local disk.

        Charges one serialized disk write per node; the store stays
        resident. Lets iterative drivers (PageRank) snapshot state between
        iterations and recover without replaying the build phase.
        """
        for node in self.cluster.workers:
            items = list(self.items(node))
            if localfs.exists(node, name):
                localfs.delete(node, name)
            ref, nbytes = localfs.place(node, name, items)
            yield node.compute(node.cost.serde_cost(nbytes))
            yield node.disk_write(nbytes)

    def restore(self, localfs, name: str):
        """Process: reload shards from a checkpoint (inverse of
        :meth:`checkpoint`), replacing current contents."""
        self.clear()
        for node in self.cluster.workers:
            if not localfs.exists(node, name):
                continue
            items = yield from localfs.read(node, name)
            for key, value in items:
                self.put(node, key, value)
