"""The task context — what user flowlet code sees.

One context exists per (flowlet, node) instance; every fine-grain task of
that instance on that node shares it. User functions are plain callables
(not simulation processes), so the context *buffers* effects: emitted
pairs go into bin packers, disk traffic accumulates as deferred charges —
and the surrounding engine task process pays the accumulated costs and
ships sealed bins at its next yield point. Determinism is preserved
because processes only interleave at yields.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, TYPE_CHECKING

from repro.common.errors import GraphError
from repro.core.bins import Bin, BinPacker
from repro.core.graph import Edge

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.core.runtime import FlowletInstance
    from repro.storage.kvstore import KVStore
    from repro.storage.localfs import LocalFS, LocationRef


class TaskContext:
    """API surface for user code inside flowlet tasks."""

    def __init__(
        self,
        instance: "FlowletInstance",
        node: "Node",
        worker_index: int,
        num_workers: int,
        packer: BinPacker,
        out_edges: list[Edge],
        localfs: Optional["LocalFS"],
        kvstore: Optional["KVStore"],
    ):
        self._instance = instance
        self.node = node
        self.worker_index = worker_index
        self.num_workers = num_workers
        self._packer = packer
        self._out_edges = out_edges
        self._by_name = {e.dst.name: e for e in out_edges}
        self._localfs = localfs
        self._kvstore = kvstore
        # Buffers drained by the engine task process.
        self.sealed_bins: list[Bin] = []
        self.output_pairs: list[tuple[Any, Any]] = []  # sink output (no out-edges)
        self.deferred_disk_bytes: int = 0
        self.counters: dict[str, float] = {}

    # -- emission ---------------------------------------------------------------

    def _edge_to(self, name: str) -> Edge:
        try:
            return self._by_name[name]
        except KeyError:
            raise GraphError(
                f"{self._instance.flowlet.name!r} has no edge to {name!r}"
            ) from None

    def emit(self, key: Any, value: Any, to: Optional[str] = None) -> None:
        """Send one pair downstream: ``emit_many([(key, value)], to)``."""
        self.emit_many(((key, value),), to)

    def emit_many(self, pairs: Iterable[Any], to: Optional[str] = None) -> None:
        """Send ``(key, value)`` pairs downstream, in order.

        With ``to=None`` each pair goes to *every* outbound edge; name a
        downstream flowlet to target one edge. A flowlet with no outbound
        edges is a sink: its pairs become job output (and are charged as a
        local disk write, "finally to disk as output", §3.1). ``pairs`` is
        iterated once; the bins it fills are those the same pairs emitted
        one by one would fill (see :meth:`BinPacker.add_many`).
        """
        if to is not None:
            edges: Sequence[Edge] = (self._edge_to(to),)
        elif self._out_edges:
            edges = self._out_edges
        else:
            self.output_pairs += [(key, value) for key, value in pairs]
            return
        sealed = self._packer.add_many(edges, pairs, self.worker_index)
        if sealed:
            self.sealed_bins += sealed

    # -- locality-aware local disk I/O (§3.3) --------------------------------------

    def write_local(self, file_name: str, records: Iterable[Any]) -> "LocationRef":
        """Write records to this node's local disk; returns a small
        :class:`LocationRef` to pass downstream instead of the bulk data."""
        if self._localfs is None:
            raise GraphError("engine was built without a LocalFS")
        ref, nbytes = self._localfs.place(self.node, file_name, records)
        self.deferred_disk_bytes += nbytes
        return ref

    def read_local(self, ref: "LocationRef") -> list[Any]:
        """Resolve a :class:`LocationRef` on its owning node (charged read)."""
        if self._localfs is None:
            raise GraphError("engine was built without a LocalFS")
        records, nbytes = self._localfs.resolve(self.node, ref)
        self.deferred_disk_bytes += nbytes
        return records

    # -- key-value store (§5.2 / §7) --------------------------------------------------

    @property
    def kv(self) -> "KVStore":
        if self._kvstore is None:
            raise GraphError("engine was built without a KVStore")
        return self._kvstore

    def kv_put(self, key: Any, value: Any) -> None:
        """Store in *this node's* shard (shared by all tasks on the node).

        Entries written by an ``aggregated_output`` flowlet are key-space
        bounded and charged unscaled (DESIGN.md §7.1).
        """
        divisor = (
            self.node.cost.scale
            if self._instance.flowlet.aggregated_output
            else 1.0
        )
        self.kv.put(self.node, key, value, size_divisor=divisor)

    def kv_get(self, key: Any, default: Any = None) -> Any:
        return self.kv.get(self.node, key, default)

    # -- misc ------------------------------------------------------------------------------

    def counter(self, name: str, delta: float = 1.0) -> None:
        """Accumulate an application counter (aggregated into JobResult)."""
        self.counters[name] = self.counters.get(name, 0.0) + delta

    # -- engine-side draining ---------------------------------------------------------------

    def take_sealed(self) -> list[Bin]:
        sealed, self.sealed_bins = self.sealed_bins, []
        return sealed

    def take_deferred_disk(self) -> int:
        nbytes, self.deferred_disk_bytes = self.deferred_disk_bytes, 0
        return nbytes
