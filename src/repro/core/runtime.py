"""The per-node flowlet runtime (§2, Fig. 2).

Each worker node runs a :class:`NodeRuntime` holding an instance of the
*whole* flowlet graph ("the run-time on each node includes the whole
flowlet graph instead of subgraph", §2). Per flowlet instance, a
*dispatcher* process implements the paper's data-driven scheduling rules:

* **Loader** — initially READY; fires one task per assigned input split,
  throttled by the per-node loader-slot resource (the flow-control knob:
  "the number of concurrent loader tasks can be decreased", §2).
* **Map / PartialReduce** — a bin in the inbox makes the flowlet READY;
  each bin enables one fine-grain task, fired "once there is a free thread
  in the thread pool".
* **Reduce** — waits for completion of *all* upstream instances (the
  internal barrier), collecting bins into a grouped store meanwhile and
  spilling to local disk when the memory budget overflows.

Flow control: a sealed bin is shipped to the destination node's bounded
inbox; when the inbox is full, the shipping task *releases its thread* and
reschedules once space frees — the paper's "the flowlet stops the current
execution immediately and will be scheduled in a later time".

Completion messages propagate from loaders downstream node-by-node; an
instance completes when every upstream instance on every node has
completed and its own inbox has drained.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from repro.common.errors import JobError
from repro.common.sizeof import group_size
from repro.common.units import KB
from repro.core.bins import Bin, BinPacker
from repro.core.context import TaskContext
from repro.dataplane import RecordBatch, chunk_records, pair_nbytes
from repro.core.flowlet import Flowlet, FlowletKind, FlowletStatus, Loader, Map, PartialReduce, Reduce
from repro.core.sources import SourceSplit
from repro.obs import (
    ATOMIC,
    COMPUTE,
    DISK,
    EDGE_BARRIER,
    EDGE_PRODUCE,
    EDGE_SHUFFLE,
    EDGE_STALL,
    NETWORK,
    STALL,
    telemetry,
)
from repro.obs import hostprof as _hostprof
from repro.sim import QueueClosed, Resource, SerializedCell, SimQueue, UpdateChain
from repro.sim.core import SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import HamrJob

#: logical size of a completion control message
_COMPLETION_MSG_BYTES = 32
#: pipelining grain for loader user code (real logical bytes)
LOADER_CHUNK_BYTES = 16 * KB
#: grouped bytes one fine-grain reduce task processes (real logical bytes)
REDUCE_TASK_BYTES = 16 * KB


class ThreadLease:
    """A task's hold on one worker-thread slot, releasable mid-task.

    Flow-control stalls release the slot so other READY flowlet tasks can
    run, then reacquire before resuming — the fine-grain rescheduling the
    paper describes.
    """

    def __init__(self, pool: Resource):
        self.pool = pool
        self.held = False

    def acquire(self):
        event = self.pool.acquire()
        event.add_callback(lambda _e: self._mark(True))
        return event

    def release(self) -> None:
        if not self.held:
            raise JobError("releasing a thread lease that is not held")
        self.pool.release()
        self.held = False

    def _mark(self, held: bool) -> None:
        self.held = held


class FlowletInstance:
    """All per-(flowlet, node) state."""

    def __init__(
        self,
        runtime: "NodeRuntime",
        flowlet: Flowlet,
        inbox_capacity: float,
    ):
        self.runtime = runtime
        self.flowlet = flowlet
        self.node = runtime.node
        sim = runtime.sim
        self.status = (
            FlowletStatus.READY
            if flowlet.kind is FlowletKind.LOADER
            else FlowletStatus.DORMANT
        )
        self.inbox = SimQueue(
            sim,
            capacity=inbox_capacity if flowlet.kind is not FlowletKind.LOADER else None,
            name=f"{flowlet.name}@n{self.node.node_id}.inbox",
        )
        self.completion_event = SimEvent(sim, name=f"{flowlet.name}@n{self.node.node_id}.done")
        # Completion bookkeeping: edge_id -> set of sender worker indices seen.
        self.completions_seen: dict[int, set[int]] = {
            e.edge_id: set() for e in runtime.graph.in_edges(flowlet)
        }
        # Reduce state
        self.groups: dict[Any, list[Any]] = {}
        self.group_bytes = 0  # real logical bytes resident in `groups`
        # Raw (pre-division) logical bytes in `groups` since the last
        # spill: the sum of the collected bins' cached sizes, so spilling
        # the grouped store never re-sizes its pairs.
        self.group_raw_bytes = 0
        self.spill_runs: list = []
        # Partial-reduce state
        self.accs: dict[Any, Any] = {}
        self.acc_bytes: dict[Any, int] = {}
        self.acc_spill_runs: list = []
        self.cells: dict[Any, SerializedCell] = {}
        # Shared emission state
        self.packer = BinPacker(
            runtime.cost.bin_size, aggregated=flowlet.aggregated_output
        )
        # Scale-model bookkeeping: True once every inbound bin so far was
        # aggregated (key-space-bounded) data.
        self.input_aggregated: bool | None = None
        self.ctx: Optional[TaskContext] = None
        # Metrics
        self.tasks_run = 0
        self.bins_in = 0
        self.pairs_in = 0
        self.stalls = 0
        self.stall_streak = 0  # consecutive stalls feeding the adaptive throttle
        # Trace bookkeeping (span ids; 0 = none/untraced): the last task
        # span that finished on this instance, and the last reduce-collect
        # span — barrier edges for finalize/reduce hang off these.
        self.last_task_span_id = 0
        self.last_collect_span_id = 0

    # -- completion bookkeeping --------------------------------------------------

    def all_upstream_complete(self) -> bool:
        expected = self.runtime.job.num_workers
        return all(
            len(seen) >= expected for seen in self.completions_seen.values()
        )

    def note_completion(self, edge_id: int, sender_worker: int) -> None:
        self.completions_seen[edge_id].add(sender_worker)
        if self.all_upstream_complete() and not self.inbox.closed:
            self.inbox.close()

    def cell_for(self, key: Any) -> SerializedCell:
        cell = self.cells.get(key)
        if cell is None:
            cost = self.runtime.cost
            cell = SerializedCell(
                self.runtime.sim,
                update_cost=cost.atomic_update_cost * cost.scale,
                base_cost=cost.atomic_base_cost * cost.scale,
                name=f"{self.flowlet.name}@n{self.node.node_id}.cell",
            )
            self.cells[key] = cell
        return cell


class NodeRuntime:
    """One worker's share of a running HAMR job."""

    def __init__(self, job: "HamrJob", worker_index: int):
        self.job = job
        self.graph = job.graph
        self.worker_index = worker_index
        self.node = job.cluster.worker(worker_index)
        self.sim = job.cluster.sim
        self.cost = job.cluster.cost
        self.loader_slots = Resource(
            self.sim, self.cost.hamr_loader_slots,
            name=f"n{self.node.node_id}.loader_slots",
        )
        self.obs = self.node.obs
        self.job_name = job.graph.name
        # Per-node spill manager from the job's shared dataplane pool
        # (the MapReduce baseline draws from the same kind of pool, so
        # spill-file ids and blame attribution line up across engines).
        self.spill = job.spill_pool.for_node(self.node)
        self.stalls_total = 0  # flow-control stalls by this node's tasks
        # Last task span finished on this node (0 = none): stalled
        # producers blame their wait on the consumer node's most recent
        # task — the one whose completion freed inbox space.
        self.last_task_span_id = 0
        self.instances: dict[str, FlowletInstance] = {}
        # One shared depth observer aggregates every inbox on this node
        # into the telemetry queue-depth track (logical bytes resident).
        inbox_depth = (
            self.obs.timeline.depth_observer(telemetry.QUEUE, self.node.node_id)
            if self.obs.enabled
            else None
        )
        for flowlet in self.graph.flowlets:
            capacity = self._inbox_capacity(flowlet)
            instance = FlowletInstance(self, flowlet, capacity)
            self.instances[flowlet.name] = instance
            if inbox_depth is not None:
                instance.inbox.observer = inbox_depth
        for instance in self.instances.values():
            instance.ctx = TaskContext(
                instance,
                self.node,
                worker_index,
                job.num_workers,
                instance.packer,
                self.graph.out_edges(instance.flowlet),
                job.localfs,
                job.kvstore,
            )

    def _divisor(self, aggregated: bool) -> float:
        """Cost divisor for aggregated (key-space-bounded) data.

        Such records are charged unscaled: dividing the real quantity by
        the scale factor cancels the multiplier the cost model applies.
        """
        return self.cost.scale if aggregated else 1.0

    def _inbox_capacity(self, flowlet: Flowlet) -> float:
        in_edges = self.graph.in_edges(flowlet)
        caps = [e.capacity for e in in_edges if e.capacity is not None]
        return min(caps) if caps else self.cost.flow_capacity

    def instance(self, name: str) -> FlowletInstance:
        return self.instances[name]

    # -- start -----------------------------------------------------------------------

    def start(self) -> list[SimEvent]:
        """Run setup hooks, spawn one dispatcher per instance; returns
        the instances' completion events."""
        events = []
        for flowlet in self.graph.topological_order():
            instance = self.instances[flowlet.name]
            flowlet.setup(instance.ctx)
            # one unit of stage work per flowlet instance on this node
            self.obs.progress_total(self.job_name, flowlet.name)
            if flowlet.kind is FlowletKind.LOADER:
                dispatcher = self._loader_dispatcher(instance)
            elif flowlet.kind is FlowletKind.REDUCE:
                dispatcher = self._reduce_dispatcher(instance)
            else:
                dispatcher = self._bin_dispatcher(instance)
            self.sim.spawn(
                dispatcher, name=f"{flowlet.name}@n{self.node.node_id}.dispatch"
            )
            events.append(instance.completion_event)
        return events

    # -- loader ------------------------------------------------------------------------

    def _loader_dispatcher(self, instance: FlowletInstance):
        splits = self.job.splits_for(instance.flowlet, self.worker_index)
        tasks = []
        for split in splits:
            yield self.loader_slots.acquire()
            lease = ThreadLease(self.node.threads)
            yield lease.acquire()
            task = self.sim.spawn(
                self._loader_task(instance, split, lease),
                name=f"{instance.flowlet.name}@n{self.node.node_id}.load{split.split_id}",
            )
            tasks.append(task)
        for task in tasks:
            yield task
        yield from self._complete_instance(instance)

    def _loader_task(self, instance: FlowletInstance, split: SourceSplit, lease: ThreadLease):
        flowlet = instance.flowlet
        assert isinstance(flowlet, Loader)
        obs, sim, node_id = self.obs, self.sim, self.node.node_id
        try:
            with obs.span(
                f"load:{flowlet.name}", "task", node=node_id, job=self.job_name,
                flowlet=flowlet.name, split=split.split_id,
            ) as lspan:
                reader = split.reader() if hasattr(split, "reader") else None
                while True:
                    t0 = sim.now
                    if reader is not None:
                        records = yield from reader.next_chunk(self.node)
                        if records is None:
                            break
                    else:
                        records = yield from split.read(self.node)
                    if obs.enabled:
                        obs.charge(self.job_name, DISK, sim.now - t0, node=node_id, span=lspan)
                    yield from self._process_loaded(instance, records, lease, lspan)
                    if reader is None:
                        break
            self._note_task_done(instance, lspan)
        finally:
            lease.release()
            self.loader_slots.release()

    def _process_loaded(self, instance: FlowletInstance, records, lease: ThreadLease, span=None):
        """Run loader user code chunk-by-chunk so output pipelines finely.

        ``records`` may be a plain list or a pre-sized
        :class:`~repro.dataplane.RecordBatch` (a DFS block read) — a batch
        that fits in one loader chunk passes through without re-sizing.
        """
        flowlet = instance.flowlet
        chunks = chunk_records(records, LOADER_CHUNK_BYTES)
        obs, sim = self.obs, self.sim
        for batch in chunks:
            instance.tasks_run += 1
            t0 = sim.now
            yield self.node.record_compute(
                batch.nrecords, batch.nbytes, flowlet.compute_factor
            )
            if obs.enabled:
                obs.charge(self.job_name, COMPUTE, sim.now - t0, node=self.node.node_id, span=span)
            with _hostprof.scope(
                _hostprof.ENGINE, "load", flowlet.name, batch.nrecords, batch.nbytes
            ):
                flowlet.load(instance.ctx, batch.records)
            yield from self._drain_ctx(instance, lease, span)

    # -- map / partial reduce -----------------------------------------------------------

    def _bin_dispatcher(self, instance: FlowletInstance):
        tasks = []
        held_bins = []  # barrier-mode ablation: buffer until upstream completes
        barrier = self.job.config.barrier_mode
        while True:
            try:
                bin_ = yield instance.inbox.get()
            except QueueClosed:
                break
            instance.status = FlowletStatus.READY
            if barrier:
                held_bins.append(bin_)
                continue
            lease = ThreadLease(self.node.threads)
            yield lease.acquire()
            task = self.sim.spawn(
                self._bin_task(instance, bin_, lease),
                name=f"{instance.flowlet.name}@n{self.node.node_id}.task",
            )
            tasks.append(task)
        for bin_ in held_bins:
            lease = ThreadLease(self.node.threads)
            yield lease.acquire()
            task = self.sim.spawn(
                self._bin_task(instance, bin_, lease),
                name=f"{instance.flowlet.name}@n{self.node.node_id}.task",
            )
            tasks.append(task)
        for task in tasks:
            yield task
        if instance.flowlet.kind is FlowletKind.PARTIAL_REDUCE:
            yield from self._finalize_partial_reduce(instance)
        yield from self._complete_instance(instance)

    def _bin_task(self, instance: FlowletInstance, bin_: Bin, lease: ThreadLease):
        flowlet = instance.flowlet
        instance.tasks_run += 1
        instance.bins_in += 1
        instance.pairs_in += bin_.nrecords
        obs, sim, node_id = self.obs, self.sim, self.node.node_id
        kind = "map" if flowlet.kind is FlowletKind.MAP else "partial_reduce"
        try:
            with obs.span(
                f"{kind}:{flowlet.name}", "task", node=node_id, job=self.job_name,
                flowlet=flowlet.name, nrecords=bin_.nrecords,
            ) as tspan:
                obs.edge(bin_.trace_src, tspan, EDGE_SHUFFLE)
                # Thread wait-for: the task whose completion freed the
                # worker thread this task queued on. The walk only follows
                # it when it is the binding constraint (latest cut).
                obs.edge(self.last_task_span_id, tspan, EDGE_STALL)
                div = self._divisor(bin_.aggregated)
                t0 = sim.now
                yield self.node.compute(self.cost.bin_overhead)
                yield self.node.record_compute(
                    bin_.nrecords / div, bin_.nbytes / div, flowlet.compute_factor
                )
                if obs.enabled:
                    obs.charge(self.job_name, COMPUTE, sim.now - t0, node=node_id, span=tspan)
                if flowlet.kind is FlowletKind.MAP:
                    assert isinstance(flowlet, Map)
                    # host-clock frame around the synchronous user-map
                    # loop only (a scope must never contain a yield)
                    with _hostprof.scope(
                        _hostprof.ENGINE, "map", flowlet.name, bin_.nrecords, bin_.nbytes
                    ):
                        for key, value in bin_:
                            flowlet.map(instance.ctx, key, value)
                else:
                    assert isinstance(flowlet, PartialReduce)
                    yield from self._fold_bin(instance, flowlet, bin_, tspan)
                yield from self._drain_ctx(instance, lease, tspan)
            self._note_task_done(instance, tspan)
        finally:
            lease.release()

    def _fold_bin(self, instance: FlowletInstance, flowlet: PartialReduce, bin_: Bin, span=None):
        """Fold one bin into the per-key accumulators, modeling atomic
        contention per touched key and accounting accumulator memory."""
        # the frame ends before the first possible yield
        with _hostprof.scope(
            _hostprof.ENGINE, "partial_reduce", flowlet.name, bin_.nrecords, bin_.nbytes
        ):
            touched: dict[Any, int] = {}
            for key, value in bin_:
                if key in instance.accs:
                    instance.accs[key] = flowlet.combine(instance.accs[key], value)
                else:
                    instance.accs[key] = flowlet.combine(flowlet.initial(key), value)
                touched[key] = touched.get(key, 0) + 1
            # Memory delta for touched accumulators; spill everything if over
            # budget. Accumulator stores of aggregated-output flowlets are
            # key-space-bounded, hence charged unscaled.
            acc_div = self._divisor(flowlet.aggregated_output)
            delta = 0
            for key in touched:
                new_size = pair_nbytes(key, instance.accs[key])
                delta += new_size - instance.acc_bytes.get(key, 0)
                instance.acc_bytes[key] = new_size
        if delta > 0 and not self.node.alloc(delta / acc_div):
            yield from self._spill_accumulators(instance, flowlet, extra=delta, span=span)
        # Contended atomic updates serialize per key cell (§5.2); vector
        # accumulators touch `update_weight` cells per folded value. A
        # combined pair carries the update pressure of every record it
        # represents (the paper's Table 3: combining barely relieves the
        # serialized accumulator path).
        in_div = self._divisor(bin_.aggregated)
        pressure = bin_.effective_records / max(1, bin_.nrecords)
        if pressure > 1.0:  # combined input: apply the calibrated relief
            pressure = max(1.0, pressure * (1.0 - self.cost.combiner_update_relief))
        # One event carries the task's updates key after key, each issued
        # when the previous one completes (see UpdateChain).
        steps = [
            (
                instance.cell_for(key),
                max(1, round(touched[key] * pressure * flowlet.update_weight / in_div)),
            )
            for key in sorted(touched, key=repr)
        ]
        obs, sim = self.obs, self.sim
        t0 = sim.now
        if steps:
            yield UpdateChain(sim, steps)
        if obs.enabled:
            obs.charge(self.job_name, ATOMIC, sim.now - t0, node=self.node.node_id, span=span)

    def _spill_accumulators(
        self, instance: FlowletInstance, flowlet: PartialReduce, extra: int, span=None
    ):
        # Snapshot and clear synchronously (no yields) so concurrent fold
        # tasks never double-spill or double-free. The per-key size ledger
        # already holds every pair's size, so the spilled batch carries
        # its byte count instead of being re-sized.
        acc_div = self._divisor(flowlet.aggregated_output)
        raw_bytes = sum(instance.acc_bytes.values())
        resident = (raw_bytes - extra) / acc_div
        batch = RecordBatch(
            sorted(instance.accs.items(), key=lambda kv: repr(kv[0])),
            nbytes=raw_bytes,
        )
        instance.accs = {}
        instance.acc_bytes = {}
        if resident > 0:
            self.node.free(resident)
        run = yield from self.spill.spill(batch, sorted_by_key=True, parent=span)
        instance.acc_spill_runs.append(run)
        self.job.metrics["acc_spills"] += 1

    def _finalize_partial_reduce(self, instance: FlowletInstance):
        """At upstream completion, emit every accumulator ("the partial
        reduce flowlet does not output until the completion of its
        upstream flowlets", §2)."""
        flowlet = instance.flowlet
        assert isinstance(flowlet, PartialReduce)
        # Merge back any spilled accumulator runs.
        lease = ThreadLease(self.node.threads)
        yield lease.acquire()
        obs, node_id = self.obs, self.node.node_id
        try:
            with obs.span(
                f"finalize:{flowlet.name}", "task", node=node_id, job=self.job_name,
                flowlet=flowlet.name,
            ) as fspan:
                # Barrier: finalize is gated on upstream completion — the
                # last fold task on this instance is what released it.
                obs.edge(instance.last_task_span_id, fspan, EDGE_BARRIER)
                for run in instance.acc_spill_runs:
                    pairs = yield from self.spill.read_back(run)
                    self.spill.free(run)
                    obs.edge(self.spill.last_span_id, fspan, EDGE_BARRIER)
                    for key, acc in pairs:
                        if key in instance.accs:
                            instance.accs[key] = flowlet.combine(instance.accs[key], acc)
                        else:
                            instance.accs[key] = acc
                acc_div = self._divisor(flowlet.aggregated_output)
                batch = RecordBatch(
                    sorted(instance.accs.items(), key=lambda kv: repr(kv[0]))
                )
                t0 = self.sim.now
                yield self.node.record_compute(
                    batch.nrecords / acc_div, batch.nbytes / acc_div, flowlet.compute_factor
                )
                if obs.enabled:
                    obs.charge(
                        self.job_name, COMPUTE, self.sim.now - t0, node=node_id, span=fspan
                    )
                with _hostprof.scope(
                    _hostprof.ENGINE, "finalize", flowlet.name, batch.nrecords, batch.nbytes
                ):
                    for key, acc in batch:
                        flowlet.finalize(instance.ctx, key, acc)
                resident = sum(instance.acc_bytes.values()) / acc_div
                if resident > 0:
                    self.node.free(resident)
                instance.accs.clear()
                instance.acc_bytes.clear()
                yield from self._drain_ctx(instance, lease, fspan)
            self._note_task_done(instance, fspan)
        finally:
            lease.release()

    # -- reduce ---------------------------------------------------------------------------

    def _reduce_dispatcher(self, instance: FlowletInstance):
        # Collection is concurrent: each arriving bin enables one fine-grain
        # collect task on a free thread (the node's tasks share the grouped
        # store, "one JVM per node ... all tasks can share memory", §5.2).
        tasks = []
        while True:
            try:
                bin_ = yield instance.inbox.get()
            except QueueClosed:
                break
            lease = ThreadLease(self.node.threads)
            yield lease.acquire()
            task = self.sim.spawn(
                self._collect_task(instance, bin_, lease),
                name=f"{instance.flowlet.name}@n{self.node.node_id}.collect",
            )
            tasks.append(task)
        for task in tasks:
            yield task
        # Barrier satisfied: all upstream complete, inbox drained.
        instance.status = FlowletStatus.READY
        yield from self._execute_reduce(instance)
        yield from self._complete_instance(instance)

    def _collect_task(self, instance: FlowletInstance, bin_: Bin, lease: ThreadLease):
        obs, node_id = self.obs, self.node.node_id
        try:
            with obs.span(
                f"collect:{instance.flowlet.name}", "task", node=node_id,
                job=self.job_name, flowlet=instance.flowlet.name, nrecords=bin_.nrecords,
            ) as cspan:
                obs.edge(bin_.trace_src, cspan, EDGE_SHUFFLE)
                obs.edge(self.last_task_span_id, cspan, EDGE_STALL)
                yield from self._collect_bin(instance, bin_, cspan)
            self._note_task_done(instance, cspan)
            if cspan.span_id:
                instance.last_collect_span_id = cspan.span_id
        finally:
            lease.release()

    def _collect_bin(self, instance: FlowletInstance, bin_: Bin, span=None):
        """Group one bin's pairs by key in memory, spilling when over budget."""
        instance.bins_in += 1
        instance.pairs_in += bin_.nrecords
        instance.tasks_run += 1
        if instance.input_aggregated is None:
            instance.input_aggregated = bin_.aggregated
        else:
            instance.input_aggregated = instance.input_aggregated and bin_.aggregated
        div = self._divisor(bin_.aggregated)
        adj_bytes = bin_.nbytes / div
        t0 = self.sim.now
        yield self.node.compute(self.cost.bin_overhead)
        yield self.node.record_compute(
            bin_.nrecords / div, adj_bytes, self.cost.reduce_collect_factor
        )
        if self.obs.enabled:
            self.obs.charge(self.job_name, COMPUTE, self.sim.now - t0, node=self.node.node_id, span=span)
        if not self.node.alloc(adj_bytes):
            yield from self._spill_groups(instance, span)
            if not self.node.alloc(adj_bytes):
                # Even an empty store cannot hold this bin (scaled size over
                # budget): stream it straight to disk as its own run; the
                # bin's cached size rides along (sorting doesn't change it).
                batch = RecordBatch(
                    sorted(bin_.pairs, key=lambda kv: repr(kv[0])),
                    nbytes=bin_.nbytes,
                )
                run = yield from self.spill.spill(batch, sorted_by_key=True, parent=span)
                instance.spill_runs.append(run)
                self.job.metrics["reduce_spills"] += 1
                return
        instance.group_bytes += adj_bytes
        instance.group_raw_bytes += bin_.nbytes
        with _hostprof.scope(
            _hostprof.ENGINE, "collect", instance.flowlet.name, bin_.nrecords, bin_.nbytes
        ):
            for key, value in bin_:
                instance.groups.setdefault(key, []).append(value)

    def _spill_groups(self, instance: FlowletInstance, span=None):
        # Snapshot and clear synchronously (no yields) so concurrent
        # collect tasks never double-spill or double-free. The grouped
        # store's raw byte count was accumulated bin-by-bin at collect
        # time, so the spilled batch is never re-sized.
        pairs = []
        for key in sorted(instance.groups, key=repr):
            for value in instance.groups[key]:
                pairs.append((key, value))
        if not pairs:
            return
        freed = instance.group_bytes
        raw_bytes = instance.group_raw_bytes
        instance.group_bytes = 0
        instance.group_raw_bytes = 0
        instance.groups = {}
        self.node.free(freed)
        run = yield from self.spill.spill(
            RecordBatch(pairs, nbytes=raw_bytes), sorted_by_key=True, parent=span
        )
        instance.spill_runs.append(run)
        self.job.metrics["reduce_spills"] += 1

    def _execute_reduce(self, instance: FlowletInstance):
        flowlet = instance.flowlet
        assert isinstance(flowlet, Reduce)
        # Barrier dependencies for the reduce tasks: the last collect on
        # this instance (which drained the inbox) plus every spill
        # read-back the merge performs below.
        deps = [instance.last_collect_span_id]
        # External merge: stream spilled runs back into the grouped store.
        for run in instance.spill_runs:
            pairs = yield from self.spill.read_back(run)
            self.spill.free(run)
            deps.append(self.spill.last_span_id)
            for key, value in pairs:
                instance.groups.setdefault(key, []).append(value)
        instance.spill_runs = []
        # Fine-grain execution: chunk the key space into tasks. Each
        # key's group is sized exactly once here; the chunk carries its
        # record/byte totals so reduce tasks never re-size their input.
        keys = sorted(instance.groups, key=repr)
        chunk_limit = REDUCE_TASK_BYTES
        chunks: list[tuple[list[Any], int, int]] = []  # (keys, nrecords, nbytes)
        chunk: list[Any] = []
        nrecords = 0
        size = 0
        for key in keys:
            values = instance.groups[key]
            kv_bytes = group_size(key, values)
            chunk.append(key)
            nrecords += len(values)
            size += kv_bytes
            if size >= chunk_limit:
                chunks.append((chunk, nrecords, size))
                chunk, nrecords, size = [], 0, 0
        if chunk:
            chunks.append((chunk, nrecords, size))
        tasks = []
        for chunk_info in chunks:
            lease = ThreadLease(self.node.threads)
            yield lease.acquire()
            task = self.sim.spawn(
                self._reduce_task(instance, chunk_info, lease, deps),
                name=f"{flowlet.name}@n{self.node.node_id}.reduce",
            )
            tasks.append(task)
        for task in tasks:
            yield task
        # Release the grouped store.
        if instance.group_bytes > 0:
            self.node.free(instance.group_bytes)
            instance.group_bytes = 0
        instance.groups = {}

    def _reduce_task(
        self,
        instance: FlowletInstance,
        chunk_info: tuple[list, int, int],
        lease: ThreadLease,
        deps=(),
    ):
        flowlet = instance.flowlet
        assert isinstance(flowlet, Reduce)
        instance.tasks_run += 1
        keys, nrecords, nbytes = chunk_info
        obs, sim, node_id = self.obs, self.sim, self.node.node_id
        try:
            with obs.span(
                f"reduce:{flowlet.name}", "task", node=node_id, job=self.job_name,
                flowlet=flowlet.name, nkeys=len(keys),
            ) as rspan:
                for dep in deps:
                    obs.edge(dep, rspan, EDGE_BARRIER)
                div = self._divisor(bool(instance.input_aggregated))
                t0 = sim.now
                yield self.node.record_compute(
                    nrecords / div, nbytes / div, flowlet.compute_factor
                )
                if obs.enabled:
                    obs.charge(self.job_name, COMPUTE, sim.now - t0, node=node_id, span=rspan)
                with _hostprof.scope(
                    _hostprof.ENGINE, "reduce", flowlet.name, nrecords, nbytes
                ):
                    for key in keys:
                        flowlet.reduce(instance.ctx, key, instance.groups[key])
                yield from self._drain_ctx(instance, lease, rspan)
            self._note_task_done(instance, rspan)
        finally:
            lease.release()

    # -- shipping & context draining --------------------------------------------------------

    def _note_task_done(self, instance: FlowletInstance, span) -> None:
        """Record the last finished task span (instance- and node-level)."""
        span_id = getattr(span, "span_id", 0)
        if span_id:
            instance.last_task_span_id = span_id
            self.last_task_span_id = span_id

    def _drain_ctx(
        self, instance: FlowletInstance, lease: Optional[ThreadLease] = None, span=None
    ):
        """Pay deferred charges and ship sealed bins out of the context."""
        ctx = instance.ctx
        obs, sim = self.obs, self.sim
        disk_bytes = ctx.take_deferred_disk()
        if disk_bytes:
            t0 = sim.now
            yield self.node.disk_write(disk_bytes)
            if obs.enabled:
                obs.charge(self.job_name, DISK, sim.now - t0, node=self.node.node_id, span=span)
        for bin_ in ctx.take_sealed():
            yield from self._ship(instance, bin_, lease, span)
        yield from self._flush_sink_output(instance, span)

    def _flush_sink_output(self, instance: FlowletInstance, span=None):
        ctx = instance.ctx
        if not ctx.output_pairs:
            return
        pairs, ctx.output_pairs = ctx.output_pairs, []
        div = self._divisor(instance.flowlet.aggregated_output)
        nbytes = RecordBatch(pairs).nbytes / div
        # Sink output goes "finally to disk" (§3.1): serialize, then write.
        obs, sim = self.obs, self.sim
        t0 = sim.now
        yield self.node.compute(self.cost.serde_cost(nbytes))
        t1 = sim.now
        yield self.node.disk_write(nbytes)
        if obs.enabled:
            obs.charge(self.job_name, COMPUTE, t1 - t0, node=self.node.node_id, span=span)
            obs.charge(self.job_name, DISK, sim.now - t1, node=self.node.node_id, span=span)
        self.job.collect_output(instance.flowlet.name, pairs)

    def _ship(
        self,
        instance: FlowletInstance,
        bin_: Bin,
        lease: Optional[ThreadLease],
        span=None,
    ):
        """Send one sealed bin to its destination inbox(es), with flow control."""
        edge = self.graph.edges[bin_.edge_id]
        obs, sim, node_id = self.obs, self.sim, self.node.node_id
        if edge.combiner is not None:
            with _hostprof.scope(
                _hostprof.ENGINE, "combine", instance.flowlet.name, bin_.nrecords, bin_.nbytes
            ):
                combined = edge.combiner.apply(bin_.pairs)
            in_div = self._divisor(bin_.aggregated)
            t0 = sim.now
            yield self.node.record_compute(
                bin_.nrecords / in_div, bin_.nbytes / in_div, 0.5
            )
            if obs.enabled:
                obs.charge(self.job_name, COMPUTE, sim.now - t0, node=node_id, span=span)
            new_bin = Bin(
                bin_.edge_id,
                bin_.partition,
                aggregated=bin_.aggregated,  # combining does not change scaling
                represents=bin_.effective_records,
            )
            for key, value in combined:
                new_bin.append(key, value)
            bin_ = new_bin
        ship_div = self._divisor(bin_.aggregated)
        job = self.job
        fabric = job.fabric_for(edge)
        plan = fabric.plan(
            edge.mode.value,
            bin_.partition,
            worker_index=self.worker_index,
            num_workers=job.num_workers,
            owner_of=lambda p: job.worker_index_of(
                job.cluster.owner_of_partition(
                    p, edge.partitioner.num_partitions
                )
            ),
            nbytes=bin_.nbytes / ship_div,
            nrecords=bin_.nrecords,
            records=bin_.pairs,
            aggregated=bin_.aggregated,
            stream=bin_.edge_id,
        )
        if obs.enabled:
            # HAMR charges the exchange at plan time (the historical
            # exchange_targets charge site), before serde.
            fabric.charge(
                plan,
                obs.traffic(self.job_name),
                node_of=lambda w: job.runtimes[w].node.node_id,
                scale=self.cost.scaled_bytes,
            )
        # Serialization cost once (broadcast reuses the wire image).
        if fabric.serde_factor:
            t0 = sim.now
            yield self.node.compute(
                self.cost.serde_cost(bin_.nbytes / ship_div) * fabric.serde_factor
            )
            if obs.enabled:
                obs.charge(self.job_name, COMPUTE, sim.now - t0, node=node_id, span=span)
        if job.config.stage_edges_on_disk:
            t0 = sim.now
            yield self.node.disk_write(bin_.nbytes / ship_div)
            if obs.enabled:
                obs.charge(self.job_name, DISK, sim.now - t0, node=node_id, span=span)
        for delivery in plan.deliveries:
            dst_runtime = job.runtimes[delivery.target]
            dst_instance = dst_runtime.instance(edge.dst.name)
            if job.config.stage_edges_on_disk:
                t0 = sim.now
                yield self.node.disk_read(bin_.nbytes / ship_div)
                if obs.enabled:
                    obs.charge(self.job_name, DISK, sim.now - t0, node=node_id, span=span)
            with obs.span(
                "ship", "shuffle", node=node_id, job=self.job_name,
                flowlet=instance.flowlet.name, dst_node=dst_runtime.node.node_id,
                nbytes=bin_.nbytes,
            ) as ship_span:
                # Bins drained at instance completion carry no enclosing task
                # span; the instance's last task is what produced their data.
                obs.edge(
                    span if span is not None else instance.last_task_span_id,
                    ship_span, EDGE_PRODUCE,
                )
                t0 = sim.now
                for hop in delivery.hops:
                    yield job.cluster.network.send(
                        job.runtimes[hop.src].node,
                        job.runtimes[hop.dst].node,
                        hop.nbytes,
                    )
                if obs.enabled:
                    obs.charge(self.job_name, NETWORK, sim.now - t0, node=node_id, span=ship_span)
            if ship_span.span_id:
                bin_.trace_src = ship_span.span_id
            job.metrics["bins_shipped"] += 1
            if not dst_instance.inbox.try_put(bin_, weight=bin_.nbytes):
                # Flow control: stop immediately, free the thread, resume later.
                instance.stalls += 1
                self.stalls_total += 1
                job.metrics["flow_stalls"] += 1
                obs.count("flow.stalls", node=node_id)
                with obs.span(
                    "stall", "stall", node=node_id, job=self.job_name,
                    flowlet=instance.flowlet.name, dst=edge.dst.name,
                ):
                    t0 = sim.now
                    if lease is not None and lease.held:
                        lease.release()
                        yield dst_instance.inbox.put(bin_, weight=bin_.nbytes)
                        yield from self._maybe_throttle_loader(instance)
                        yield lease.acquire()
                    else:
                        yield dst_instance.inbox.put(bin_, weight=bin_.nbytes)
                        yield from self._maybe_throttle_loader(instance)
                    if obs.enabled:
                        obs.charge(self.job_name, STALL, sim.now - t0, node=node_id, span=span)
                # Wait-for: the stalled producer resumed because the consumer
                # node freed inbox space — its most recent finished task is
                # the cause.
                obs.edge(dst_runtime.last_task_span_id, span, EDGE_STALL)
            else:
                instance.stall_streak = 0

    def _maybe_throttle_loader(self, instance: FlowletInstance):
        """Adaptive flow control (§2): once a loader's ships have stalled
        ``throttle_stall_threshold`` times in a row, slow the intake by
        backing off before resuming (thread already released by caller)."""
        config = self.job.config
        if not config.adaptive_loader_throttle:
            return
        if instance.flowlet.kind is not FlowletKind.LOADER:
            return
        instance.stall_streak += 1
        if instance.stall_streak < config.throttle_stall_threshold:
            return
        instance.stall_streak = 0
        self.job.metrics["loader_throttles"] += 1
        yield self.sim.timeout(config.throttle_backoff)

    # -- completion ---------------------------------------------------------------------------

    def _complete_instance(self, instance: FlowletInstance):
        """Flush open bins, notify downstream on every node, finish."""
        for bin_ in instance.packer.drain():
            yield from self._ship(instance, bin_, None)
        yield from self._drain_ctx(instance)
        instance.flowlet.teardown(instance.ctx)
        job = self.job
        job.collect_counters(instance.ctx)
        instance.status = FlowletStatus.COMPLETE
        out_edges = self.graph.out_edges(instance.flowlet)
        notifications = []
        for edge in out_edges:
            for target in range(job.num_workers):
                dst_runtime = job.runtimes[target]
                notifications.append(
                    job.cluster.network.send(
                        self.node, dst_runtime.node, _COMPLETION_MSG_BYTES
                    )
                )
        if notifications:
            yield self.sim.all_of(notifications)
        for edge in out_edges:
            for target in range(job.num_workers):
                job.runtimes[target].instance(edge.dst.name).note_completion(
                    edge.edge_id, self.worker_index
                )
        self.obs.progress_done(self.job_name, instance.flowlet.name)
        instance.completion_event.trigger(instance.flowlet.name)
