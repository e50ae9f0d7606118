"""Spill-run management.

Both engines spill in-memory collections to local disk when they outgrow
the memory budget: HAMR's reduce flowlet "will be spilled to local disks"
(§2), Hadoop's map output always stages through sorted on-disk runs. A
:class:`SpillRun` is one such on-disk run; the manager charges disk plus
serialization time and adjusts the node's memory account.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.common.errors import StorageError
from repro.cluster.node import Node
from repro.dataplane.batch import batch_nbytes
from repro.obs import COMPUTE, DISK, EDGE_PRODUCE, EDGE_SPILL, Span
from repro.obs import hostprof as _hostprof


@dataclass
class SpillRun:
    """One on-disk run of records belonging to a node."""

    run_id: int
    node_id: int
    records: list[Any]
    nbytes: int  # pre-scale logical bytes
    sorted_by_key: bool = False
    freed: bool = False
    #: id of the span that wrote this run (0 when untraced); read-backs
    #: emit a write -> read-back causal edge from it
    trace_span: int = 0

    @property
    def nrecords(self) -> int:
        return len(self.records)


class SpillManager:
    """Creates, reads back and frees spill runs on one node's disks."""

    def __init__(self, node: Node, job: str | None = None):
        self.node = node
        self.cost = node.cost
        self._next_id = 0
        self._live: dict[int, SpillRun] = {}
        #: blame/span attribution for charges this manager makes
        self.job = job
        #: span id of the last spill/read-back this manager performed
        #: (0 when untraced) — callers use it to emit barrier edges
        self.last_span_id = 0
        # Metrics (scaled bytes)
        self.bytes_spilled = 0
        self.bytes_read_back = 0
        self.runs_created = 0

    def spill(
        self,
        records: Sequence[Any],
        sorted_by_key: bool = False,
        free_memory: bool = True,
        parent: Optional[Span] = None,
        nbytes: Optional[int] = None,
    ):
        """Process: write ``records`` to a new run, charging serde + disk.

        If ``free_memory`` is set, releases the records' logical size from
        the node's memory account (they were resident before the spill).
        ``parent`` is the task span whose data is being spilled (emits a
        produce edge). ``nbytes`` is the records' logical size when the
        producer already accounted it (the dataplane's batch-spill path —
        must equal the per-record sum, which is re-derived otherwise).
        Returns the new :class:`SpillRun`.
        """
        # host-clock frame around the synchronous staging part only
        # (the charged disk/serde below are virtual-clock yields)
        with _hostprof.scope(_hostprof.STORAGE, "spill") as frame:
            recs = list(records)
            if nbytes is None:
                nbytes = batch_nbytes(recs)
            frame.units(len(recs), nbytes)
        run = SpillRun(self._next_id, self.node.node_id, recs, nbytes, sorted_by_key)
        self._next_id += 1
        self._live[run.run_id] = run
        self.runs_created += 1
        self.bytes_spilled += int(self.cost.scaled_bytes(nbytes))
        obs, sim, node_id = self.node.obs, self.node.sim, self.node.node_id
        with obs.span(
            "spill", "spill", node=node_id, job=self.job, parent=parent, nbytes=nbytes
        ) as span:
            t0 = sim.now
            yield self.node.compute(self.cost.serde_cost(nbytes))
            t1 = sim.now
            yield self.node.disk_write(nbytes)
            if obs.enabled and self.job is not None:
                obs.charge(self.job, COMPUTE, t1 - t0, node=node_id, span=span)
                obs.charge(self.job, DISK, sim.now - t1, node=node_id, span=span)
        run.trace_span = span.span_id
        self.last_span_id = span.span_id
        obs.edge(parent, span, EDGE_PRODUCE)
        obs.count("spill.runs", node=node_id)
        obs.count("spill.bytes", nbytes, node=node_id)
        if free_memory:
            self.node.free(nbytes)
        self.node.record_trace("spill", nbytes=nbytes, run_id=run.run_id)
        return run

    def read_back(self, run: SpillRun, reacquire_memory: bool = False):
        """Process: read a run back, charging disk + serde.

        Returns its records. With ``reacquire_memory`` the logical size is
        re-charged to the memory account (caller must have headroom).
        """
        if run.freed:
            raise StorageError(f"spill run {run.run_id} already freed")
        if run.node_id != self.node.node_id:
            raise StorageError(
                f"run {run.run_id} lives on node {run.node_id}, not {self.node.node_id}"
            )
        self.bytes_read_back += int(self.cost.scaled_bytes(run.nbytes))
        obs, sim, node_id = self.node.obs, self.node.sim, self.node.node_id
        with obs.span(
            "spill.read_back", "spill", node=node_id, job=self.job, nbytes=run.nbytes
        ) as span:
            t0 = sim.now
            yield self.node.disk_read(run.nbytes)
            t1 = sim.now
            yield self.node.compute(self.cost.serde_cost(run.nbytes))
            if obs.enabled and self.job is not None:
                obs.charge(self.job, DISK, t1 - t0, node=node_id, span=span)
                obs.charge(self.job, COMPUTE, sim.now - t1, node=node_id, span=span)
        self.last_span_id = span.span_id
        obs.edge(run.trace_span, span, EDGE_SPILL)
        obs.count("spill.bytes_read_back", run.nbytes, node=node_id)
        if reacquire_memory:
            self.node.alloc(run.nbytes)
        with _hostprof.scope(
            _hostprof.STORAGE, "spill.read_back", records=run.nrecords, nbytes=run.nbytes
        ):
            return list(run.records)

    def free(self, run: SpillRun) -> None:
        if run.freed:
            return
        run.freed = True
        self._live.pop(run.run_id, None)

    @property
    def live_runs(self) -> int:
        return len(self._live)
