"""Batch-aware data-motion helpers: partition, exchange, spill.

These are the operations the two engines used to re-implement
independently — hash-partitioning map output, resolving a shuffle
partition to its destination workers, and staging over-budget payloads
through the node-local spill store. Factoring them here is what makes
the cross-engine comparison trustworthy: one partitioning pass, one
target-resolution rule, one spill-id space per node.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, TYPE_CHECKING

from repro.common.sizeof import sizeof_many
from repro.dataplane.batch import RecordBatch
from repro.obs import hostprof as _hostprof

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.storage.spill import SpillManager, SpillRun

__all__ = [
    "partition_batch",
    "exchange_targets",
    "spill_batch",
    "SpillPool",
    "SHUFFLE",
    "LOCAL",
    "BROADCAST",
]

#: exchange modes (string values match ``repro.core.graph.EdgeMode`` —
#: the dataplane sits below the engines and cannot import them)
SHUFFLE = "shuffle"
LOCAL = "local"
BROADCAST = "broadcast"

#: partition id meaning "every worker" (the partition of bins on BROADCAST edges)
BROADCAST_PARTITION = -1


def partition_batch(
    pairs: Iterable[tuple[Any, Any]],
    partitioner,
    *,
    aggregated: bool = False,
) -> dict[int, RecordBatch]:
    """Split key-value pairs into per-partition batches, each sized in bulk.

    One pass assigns partitions; each partition's batch is then sized
    once as a whole (a pair's record size is its ``pair_size``, and a
    batch of same-shaped pairs is sized column-wise), replacing the
    separate partition-then-re-size loops both engines carried. Only
    non-empty partitions appear in the result; pair order within a
    partition is input order.
    """
    with _hostprof.scope(_hostprof.DATAPLANE, "partition_batch") as frame:
        part = partitioner.partition
        batches: dict[int, RecordBatch] = {}
        for pair in pairs:
            p = part(pair[0])
            batch = batches.get(p)
            if batch is None:
                batch = batches[p] = RecordBatch(aggregated=aggregated)
            batch.records.append(pair)
        nrecords = 0
        nbytes = 0
        for batch in batches.values():
            batch._nbytes = sizeof_many(batch.records)
            nrecords += len(batch.records)
            nbytes += batch._nbytes
        frame.units(nrecords, nbytes)
    return batches


def exchange_targets(
    mode: str,
    partition: int,
    *,
    worker_index: int,
    num_workers: int,
    owner_of: Optional[Callable[[int], int]] = None,
    traffic=None,
    src_node: Optional[int] = None,
    node_of: Optional[Callable[[int], int]] = None,
    nbytes: float = 0.0,
    nrecords: int = 0,
) -> list[int]:
    """Destination worker indices for one sealed payload.

    ``mode`` is one of :data:`SHUFFLE` / :data:`LOCAL` / :data:`BROADCAST`;
    a :data:`BROADCAST_PARTITION` partition broadcasts regardless of mode
    (control data emitted onto shuffle edges). ``owner_of`` maps a
    partition id to the worker index owning it (required for shuffles).

    This is the single choke point every sealed payload passes through,
    so it is also where the telemetry traffic matrix is charged: pass a
    :class:`~repro.obs.telemetry.TrafficMatrix` as ``traffic`` together
    with ``src_node``, a ``node_of`` worker-index → node-id resolver, and
    the payload's modeled wire ``nbytes``/``nrecords``, and every resolved
    edge is charged under its *effective* mode (broadcast-partition
    payloads count as broadcast traffic whatever edge they rode in on).
    """
    if mode == BROADCAST or partition == BROADCAST_PARTITION:
        targets = list(range(num_workers))
        effective_mode = BROADCAST
    elif mode == LOCAL:
        targets = [worker_index]
        effective_mode = LOCAL
    elif mode == SHUFFLE:
        if owner_of is None:
            raise ValueError("shuffle exchange requires an owner_of resolver")
        targets = [owner_of(partition)]
        effective_mode = SHUFFLE
    else:
        raise ValueError(f"unknown exchange mode {mode!r}")
    if traffic is not None:
        if src_node is None or node_of is None:
            raise ValueError("traffic charging requires src_node and node_of")
        for target in targets:
            traffic.charge(
                src_node,
                node_of(target),
                nbytes,
                records=nrecords,
                mode=effective_mode,
                partition=partition if effective_mode == SHUFFLE else None,
            )
    return targets


def spill_batch(
    manager: "SpillManager",
    batch: RecordBatch,
    *,
    sorted_by_key: bool = False,
    free_memory: bool = False,
    parent=None,
):
    """Process: stage one batch through the node-local spill store.

    Passes the batch's cached size through so the spill layer never
    re-sizes records the producer already accounted. Returns the
    manager's :class:`~repro.storage.spill.SpillRun`.
    """
    return manager.spill(
        batch.records,
        sorted_by_key=sorted_by_key,
        free_memory=free_memory,
        nbytes=batch.nbytes,
        parent=parent,
    )


class SpillPool:
    """Per-node spill managers for one job, shared by everything on the node.

    The flowlet runtime always ran one :class:`SpillManager` per node;
    the MapReduce baseline used to construct one per reduce *task*,
    giving the two engines different spill-file id spaces and blame
    attribution. Both now draw managers from a pool like this one:
    every task on a node sees the same manager, so run ids count up
    per node and charges land on one ledger entry per node.
    """

    def __init__(self, job: Optional[str] = None):
        self.job = job
        self._managers: dict[int, "SpillManager"] = {}

    def for_node(self, node: "Node") -> "SpillManager":
        manager = self._managers.get(node.node_id)
        if manager is None:
            from repro.storage.spill import SpillManager

            manager = SpillManager(node, job=self.job)
            self._managers[node.node_id] = manager
        return manager

    @property
    def managers(self) -> list["SpillManager"]:
        return [self._managers[k] for k in sorted(self._managers)]

    @property
    def bytes_spilled(self) -> int:
        return sum(m.bytes_spilled for m in self._managers.values())

    @property
    def bytes_read_back(self) -> int:
        return sum(m.bytes_read_back for m in self._managers.values())

    @property
    def runs_created(self) -> int:
        return sum(m.runs_created for m in self._managers.values())
