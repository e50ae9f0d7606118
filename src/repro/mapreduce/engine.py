"""The Hadoop-style execution engine.

One :meth:`HadoopEngine.run` call executes one MapReduce job with the full
disk-staged, barrier-synchronized lifecycle described in §3 of the paper
(and criticized by it). All hardware and CPU costs come from the same
:class:`~repro.cluster.spec.CostModel` as the HAMR engine.

Timeline of a job::

    t0 ── job startup (YARN AM spin-up) ──────────────────────────┐
    map tasks: slot wait → JVM start → local block read → map()   │
               → sort + combine + spill(s) → merge → map output   │ overlap
    reduce tasks: slot wait → JVM start → fetch each map task's   │
               partition as it completes (disk read + network)    ┘
    ── BARRIER: reduce compute starts only when ALL fetches done ──
    merge (+ read back reducer-side spills) → reduce() → DFS write
    t1 ── all reducers done; output file sealed ── makespan = t1 - t0

Everything one job owns (task slots, map outputs, metrics, counters,
outputs, speculative backups) lives on an :class:`MRRun` that ``run``
builds and drops on return; the engine keeps only the cluster, the DFS,
its configuration and the reducer-count → partitioner memo its job
chains share.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.common.errors import JobError
from repro.common.partitioner import HashPartitioner
from repro.cluster.cluster import Cluster
from repro.cluster.memory import MemoryAccount
from repro.cluster.placement import assign_splits
from repro.dataplane import RecordBatch, SpillPool, partition_batch
from repro.dataplane.fabrics import make_fabric
from repro.mapreduce.api import MRContext, MRJob
from repro.obs import COMPUTE, DISK, EDGE_BARRIER, EDGE_SHUFFLE, NETWORK, STARTUP
from repro.obs import hostprof as _hostprof
from repro.sim import Resource
from repro.sim.core import SimEvent
from repro.storage.dfs import DFS

#: a running map task slower than this many times the median finished one
#: gets a speculative backup attempt
SPECULATION_SLOWDOWN = 1.5


@dataclass
class HadoopConfig:
    """Baseline engine knobs."""

    #: fault tolerance: per-attempt map-task failure probability (seeded,
    #: deterministic) and Hadoop's retry budget
    map_failure_rate: float = 0.0
    failure_seed: int = 0
    max_task_attempts: int = 4
    #: deterministically fail the first N attempts of every map task
    #: (controlled fault-tolerance experiments)
    map_fail_first_attempts: int = 0
    #: straggler mitigation: once 60% of map tasks finish, launch backup
    #: attempts (on other nodes) for tasks running longer than
    #: ``SPECULATION_SLOWDOWN`` x the median duration; first finisher wins
    speculative_execution: bool = False
    #: exchange fabric for the shuffle (reduce-fetch) leg: direct | tree |
    #: twolevel | rdma — see ``repro.dataplane.fabrics``
    fabric: str = "direct"
    #: shuffle-ownership strategy: "hash" (reducers round-robin over all
    #: workers) or "shard" (locality-first: reducers placed only on
    #: workers holding input shards)
    partitioner: str = "hash"


@dataclass
class MRJobResult:
    job_name: str
    start_time: float
    end_time: float
    output_file: str
    outputs: list[tuple[Any, Any]] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return self.end_time - self.start_time


class _MapOutput:
    """One finished map task's partitioned, sorted, disk-resident output.

    ``aggregated`` marks key-space-bounded (combined) output charged
    unscaled downstream. With speculative execution, a primary and a
    backup attempt may both write here; whichever triggers ``done`` first
    wins (contents are deterministic, so the loser's write is identical).
    """

    __slots__ = ("node", "partitions", "done", "aggregated", "started_at", "trace_span")

    def __init__(self, node, num_partitions: int, done: SimEvent, aggregated: bool = False):
        self.node = node
        self.partitions: dict[int, RecordBatch] = {
            p: RecordBatch(nbytes=0, aggregated=aggregated)
            for p in range(num_partitions)
        }
        self.done = done
        self.aggregated = aggregated
        self.started_at = None  # virtual time the first attempt began
        # span id of the winning map attempt (0 when untraced): reducer
        # fetches emit a map -> fetch shuffle causal edge from it
        self.trace_span = 0


def _sort_and_combine(
    job: MRJob, ctx: MRContext, records, split, partitioner, *, aggregated: bool
) -> tuple[dict[int, RecordBatch], int, int, int]:
    """A map attempt's synchronous half: the user map loop, then partition,
    sort and combine — the work of the modeled sort buffer.

    Returns ``(partitions, npairs, raw_bytes, nbytes)``: the sorted (and
    combined, with a combiner) batch of every non-empty partition, the
    raw pair count, and the pre- and post-combine byte counts. The raw
    pair list and the pre-combine batches live only in this frame, so
    they are freed when it returns, before the attempt's next ``yield``:
    on the modeled cluster only the spill outlives the sort buffer. The
    dataplane partitions and sizes in one pass; the pre-combine volume
    is the partition sizes' sum, so map output is never re-sized pair by
    pair. Nothing here yields, so the host-clock frames are legal.
    """
    with _hostprof.scope(
        _hostprof.ENGINE, "map", records=split.nrecords, nbytes=split.nbytes
    ):
        for key, value in records:
            job.mapper.map(ctx, key, value)
    pairs = ctx.take()
    by_partition = partition_batch(pairs, partitioner, aggregated=aggregated)
    raw_bytes = sum(b.nbytes for b in by_partition.values())
    partitions: dict[int, RecordBatch] = {}
    nbytes = 0
    with _hostprof.scope(
        _hostprof.ENGINE, "map.sort", records=len(pairs), nbytes=raw_bytes
    ):
        for p, batch in by_partition.items():
            batch.sort(key=lambda kv: repr(kv[0]))
            if job.combiner is not None:
                batch = RecordBatch(
                    job.combiner.apply(batch.records), aggregated=batch.aggregated
                )
            partitions[p] = batch
            nbytes += batch.nbytes
    return partitions, len(pairs), raw_bytes, nbytes


class HadoopEngine:
    """Executes MapReduce jobs against a DFS on the simulated cluster."""

    def __init__(self, cluster: Cluster, dfs: DFS, config: Optional[HadoopConfig] = None):
        self.cluster = cluster
        self.dfs = dfs
        self.config = config or HadoopConfig()
        # reducer count -> partitioner, shared by this engine's jobs so an
        # iterative chain hashes each distinct key once, not once per job
        self._partitioners: dict[int, HashPartitioner] = {}

    def run(self, job: MRJob) -> MRJobResult:
        """Execute one job to completion (drives the shared simulator)."""
        run = MRRun(self, job)
        start_time = self.cluster.sim.now
        end_time = self.cluster.run_job(
            run.process(), name=f"mr-driver:{job.name}",
            label=f"MapReduce job {job.name!r}",
        )
        return MRJobResult(
            job_name=job.name,
            start_time=start_time,
            end_time=end_time,
            output_file=job.output_file,
            outputs=run.outputs,
            counters=dict(run.counters),
            metrics=dict(run.metrics),
        )

    def partitioner_for(self, num_reducers: int) -> HashPartitioner:
        partitioner = self._partitioners.get(num_reducers)
        if partitioner is None:
            partitioner = self._partitioners[num_reducers] = HashPartitioner(num_reducers)
        return partitioner


class MRRun:
    """One run of a MapReduce job: everything that dies with the job."""

    def __init__(self, engine: HadoopEngine, job: MRJob):
        self.engine = engine
        self.job = job
        self.cluster = engine.cluster
        self.dfs = engine.dfs
        self.config = engine.config
        self.cost = engine.cluster.cost
        self.obs = engine.cluster.obs
        self.num_workers = engine.cluster.num_workers
        self._worker_index = {
            worker.node_id: index for index, worker in enumerate(engine.cluster.workers)
        }
        self.metrics: Counter = Counter()
        self.counters: Counter = Counter()
        self.outputs: list[tuple[Any, Any]] = []
        #: speculative backup attempts, joined before the job ends
        self.backups: list = []
        # set when the job starts (after the modeled startup delay)
        self.slots: list[Resource] = []
        self.partitioner: Optional[HashPartitioner] = None

    # -- job lifecycle ----------------------------------------------------------------

    def process(self):
        """The job's driver process."""
        job = self.job
        with self.obs.span(f"job:{job.name}", "job", job=job.name, engine="hadoop") as jspan:
            yield from self._run_job_body(jspan)

    def _run_job_body(self, jspan=None):
        job = self.job
        sim = self.cluster.sim
        cost = self.cost
        obs = self.obs
        t0 = sim.now
        yield sim.timeout(cost.hadoop_job_startup)
        if obs.enabled:
            obs.charge(job.name, STARTUP, sim.now - t0, span=jspan)

        splits = self.dfs.splits(job.input_file)
        num_reducers = job.num_reducers or self.num_workers
        self.partitioner = self.engine.partitioner_for(num_reducers)
        self.slots = [
            Resource(sim, cost.hadoop_slots_per_node, name=f"n{w.node_id}.slots")
            for w in self.cluster.workers
        ]
        for worker, slot in zip(self.cluster.workers, self.slots):
            self.cluster.wire_task_slots(
                slot, worker.node_id, float(cost.hadoop_slots_per_node)
            )
        self.metrics["map_tasks"] = len(splits)
        self.metrics["reduce_tasks"] = num_reducers if job.reducer else 0
        obs.progress_total(job.name, "map", float(len(splits)))
        if job.reducer is not None:
            obs.progress_total(job.name, "reduce", float(num_reducers))

        # -- map wave ---------------------------------------------------------------
        assignment = assign_splits(self.cluster, splits)
        # Shard-aware partitioning: reducers go only to workers holding
        # input shards (the flowlet engine installs the same rule).
        self.cluster.own_partitions(
            [index for index, worker_splits in enumerate(assignment) if worker_splits]
            if self.config.partitioner == "shard"
            else None
        )
        map_outputs: list[_MapOutput] = []
        map_records: list[dict] = []  # for the speculation driver
        map_processes = []
        for worker_index, worker_splits in enumerate(assignment):
            node = self.cluster.worker(worker_index)
            for split in worker_splits:
                out = _MapOutput(
                    node,
                    num_reducers,
                    SimEvent(sim, name="map.done"),
                    aggregated=job.combiner is not None or job.aggregated_input,
                )
                map_outputs.append(out)
                map_records.append(
                    {"split": split, "out": out, "worker_index": worker_index}
                )
                map_processes.append(
                    sim.spawn(
                        self._map_task(split, worker_index, out),
                        name=f"{job.name}.map{len(map_outputs) - 1}",
                    )
                )
        if self.config.speculative_execution and len(map_records) > 1:
            sim.spawn(
                self._speculation_driver(map_records),
                name=f"{job.name}.speculator",
            )

        if job.reducer is None:
            for process in map_processes:
                yield process
            for backup in self.backups:
                yield backup
            yield from self._finalize_map_only(map_outputs)
            return

        # -- reduce wave (fetch overlaps the map wave; compute barriers) ------------
        # One spill pool per job: reducers co-located on a node share one
        # SpillManager (matching the flowlet runtime), so spill-run ids
        # and blame attribution line up across the two engines.
        spill_pool = SpillPool(job=job.name)
        fabric = make_fabric(self.config.fabric, topology=self.cluster.topology())
        reduce_processes = []
        for r in range(num_reducers):
            # Place reducer r with the cluster's partition-ownership
            # resolver (the same one HAMR shuffles against), so a
            # shard-aware partitioner reroutes the reducer — and its
            # spill_pool.for_node manager — to the owning node.
            node = self.cluster.owner_of_partition(r, num_reducers)
            reduce_processes.append(
                sim.spawn(
                    self._reduce_task(r, node, map_outputs, spill_pool, fabric),
                    name=f"{job.name}.reduce{r}",
                )
            )
        for process in map_processes:
            yield process
        part_names = []
        for r, process in enumerate(reduce_processes):
            part_names.append((yield process))
        for backup in self.backups:
            yield backup
        self.dfs.concat(job.output_file, part_names)

    # -- map task -------------------------------------------------------------------------

    def _should_fail(self, task_key: str, attempt: int) -> bool:
        """Deterministic seeded failure injection for fault-tolerance tests."""
        if attempt <= self.config.map_fail_first_attempts:
            return True
        if self.config.map_failure_rate <= 0.0:
            return False
        from repro.common.rng import derive_seed

        seed = derive_seed(self.config.failure_seed, self.job.name, task_key, attempt)
        return (seed % 10_000) / 10_000.0 < self.config.map_failure_rate

    def _map_task(self, split, worker_index: int, out: _MapOutput, backup: bool = False):
        """Run one map task on a worker, with Hadoop-style retry on
        injected failures.

        A failed attempt charges everything up to the failure point (JVM
        start, input read, map compute) before the task is rescheduled —
        the work is genuinely lost, as on a real cluster.
        """
        for attempt in range(1, self.config.max_task_attempts + 1):
            failed = (not backup) and self._should_fail(
                f"map-{split.block.block_id}", attempt
            )
            done = yield from self._map_attempt(
                split, worker_index, out, fail=failed, backup=backup
            )
            if done:
                return
            self.metrics["map_task_failures"] += 1
        raise JobError(
            f"{self.job.name}: map task for block {split.block.block_id} failed "
            f"{self.config.max_task_attempts} attempts"
        )

    def _speculation_driver(self, map_records: list):
        """Hadoop-style speculation: watch the map wave, compute the median
        duration once 60% finished, and launch one backup per straggler."""
        sim = self.cluster.sim
        total = len(map_records)
        durations: dict[int, float] = {}
        speculated: set[int] = set()
        while True:
            done = 0
            for i, record in enumerate(map_records):
                out = record["out"]
                if out.done.triggered:
                    done += 1
                    if i not in durations and out.started_at is not None:
                        durations[i] = sim.now - out.started_at
            if done == total:
                return
            if done >= 0.6 * total and durations:
                ordered = sorted(durations.values())
                median = ordered[len(ordered) // 2]
                threshold = SPECULATION_SLOWDOWN * median
                for i, record in enumerate(map_records):
                    out = record["out"]
                    if i in speculated or out.done.triggered or out.started_at is None:
                        continue
                    if sim.now - out.started_at < threshold:
                        continue
                    # Back the straggler up on the next worker over.
                    speculated.add(i)
                    backup_index = (record["worker_index"] + 1) % self.num_workers
                    self.metrics["speculative_launched"] += 1
                    self.backups.append(
                        sim.spawn(
                            self._map_task(record["split"], backup_index, out, backup=True),
                            name=f"{self.job.name}.backup{i}",
                        )
                    )
            yield sim.timeout(1.0)

    def _map_attempt(
        self,
        split,
        worker_index: int,
        out: _MapOutput,
        fail: bool = False,
        backup: bool = False,
    ):
        job = self.job
        node = self.cluster.worker(worker_index)
        slot = self.slots[worker_index]
        sim = self.cluster.sim
        cost = self.cost
        obs = self.obs
        in_div = cost.scale if job.aggregated_input else 1.0
        out_div = cost.scale if out.aggregated else 1.0
        yield slot.acquire()
        try:
            if out.done.triggered:  # the other attempt already won
                return True
            if out.started_at is None:
                out.started_at = sim.now
            with obs.span(
                "map", "task", node=node.node_id, job=job.name,
                block=split.block.block_id, backup=backup,
            ) as mspan:
                t0 = sim.now
                yield sim.timeout(cost.hadoop_task_startup)  # container/JVM launch
                if obs.enabled:
                    obs.charge(job.name, STARTUP, sim.now - t0, node=node.node_id, span=mspan)
                records = yield from self.dfs.read_block(
                    split.block, node, cost_divisor=in_div, job=job.name, span=mspan
                )
                ctx = MRContext()
                t0 = sim.now
                yield node.record_compute(
                    split.nrecords / in_div, split.nbytes / in_div, job.mapper.compute_factor
                )
                if obs.enabled:
                    obs.charge(job.name, COMPUTE, sim.now - t0, node=node.node_id, span=mspan)
                if fail:
                    # the attempt dies after burning its input read and compute
                    return False
                partitions, npairs, raw_bytes, total_bytes = _sort_and_combine(
                    job, ctx, records, split, self.partitioner, aggregated=out.aggregated
                )
                self.counters.update(ctx.counters)
                out.partitions.update(partitions)
                # Sort CPU over the pre-combine volume, spill count from buffer size.
                t0 = sim.now
                yield node.record_compute(
                    npairs / in_div, raw_bytes / in_div, cost.hadoop_sort_factor
                )
                num_spills = max(
                    1, int(cost.scaled_bytes(raw_bytes / in_div) // cost.hadoop_sort_buffer) + 1
                ) if raw_bytes else 1
                yield node.compute(cost.serde_cost(total_bytes / out_div))
                t1 = sim.now
                yield node.disk_write(total_bytes / out_div)
                if num_spills > 1:
                    # Extra merge pass: read the spills back, write merged output.
                    self.metrics["map_spill_merges"] += 1
                    yield node.disk_read(total_bytes / out_div)
                    yield node.disk_write(total_bytes / out_div)
                if obs.enabled:
                    obs.charge(job.name, COMPUTE, t1 - t0, node=node.node_id, span=mspan)
                    obs.charge(job.name, DISK, sim.now - t1, node=node.node_id, span=mspan)
                if out.done.triggered:
                    return True  # lost the race; the winner's output stands
                if backup:
                    self.metrics["speculative_wins"] += 1
                out.node = node  # reducers fetch from the winning attempt's disk
                out.trace_span = mspan.span_id
                out.done.trigger()
                # exactly once per split, even with speculative backups: the
                # losing attempt bailed out on out.done.triggered above
                obs.progress_done(job.name, "map")
                return True
        finally:
            slot.release()

    # -- reduce task -------------------------------------------------------------------------

    def _reduce_task(
        self,
        r: int,
        node,
        map_outputs: list,
        spill_pool: SpillPool,
        fabric,
    ):
        job = self.job
        sim = self.cluster.sim
        cost = self.cost
        obs = self.obs
        dst_index = self._worker_index[node.node_id]
        slot = self.slots[dst_index]
        yield slot.acquire()
        try:
            with obs.span("reduce", "task", node=node.node_id, job=job.name, reducer=r) as rspan:
                t0 = sim.now
                yield sim.timeout(cost.hadoop_task_startup)
                if obs.enabled:
                    obs.charge(job.name, STARTUP, sim.now - t0, node=node.node_id, span=rspan)
                # Fetched data lands in this reduce task's container heap (a
                # ~1 GB JVM, not the whole node) — overflowing it spills to
                # local disk and pays a read-back at merge time.
                heap = MemoryAccount(
                    cost.hadoop_reduce_memory,
                    name=f"{job.name}.r{r}.heap",
                    clock=lambda: sim.now,
                )
                spill = spill_pool.for_node(node)
                segments: list[RecordBatch] = []
                resident_bytes = 0  # bytes in `segments` (for merge accounting)
                accounted_bytes = 0  # bytes charged against the task heap
                spill_runs = []
                shuffled_bytes = 0
                for out in map_outputs:
                    yield out.done
                    segment = out.partitions[r]
                    if not segment:
                        continue
                    nbytes = segment.nbytes / (cost.scale if out.aggregated else 1.0)
                    plan = fabric.plan(
                        "shuffle",
                        r,
                        worker_index=self._worker_index[out.node.node_id],
                        num_workers=self.num_workers,
                        owner_of=lambda p: dst_index,
                        nbytes=nbytes,
                        nrecords=segment.nrecords,
                        records=segment.records,
                        aggregated=out.aggregated,
                        stream=f"{job.name}:shuffle",
                    )
                    with obs.span(
                        "fetch", "shuffle", node=node.node_id, job=job.name,
                        src_node=out.node.node_id, nbytes=int(nbytes), parent=rspan,
                    ) as fspan:
                        obs.edge(out.trace_span, fspan, EDGE_SHUFFLE)
                        t0 = sim.now
                        yield out.node.disk_read(nbytes)
                        t1 = sim.now
                        for delivery in plan.deliveries:
                            for hop in delivery.hops:
                                yield self.cluster.network.send(
                                    self.cluster.worker(hop.src),
                                    self.cluster.worker(hop.dst),
                                    hop.nbytes,
                                )
                        if obs.enabled:
                            obs.charge(job.name, DISK, t1 - t0, node=node.node_id, span=fspan)
                            obs.charge(job.name, NETWORK, sim.now - t1, node=node.node_id, span=fspan)
                            # The pull-based fetch is Hadoop's exchange
                            # site — charge the traffic matrix here,
                            # after the fetch lands, in the same modeled
                            # wire bytes as HAMR's ship.
                            fabric.charge(
                                plan,
                                obs.traffic(job.name),
                                node_of=lambda w: self.cluster.worker(w).node_id,
                                scale=cost.scaled_bytes,
                            )
                    # The reduce barrier waits on every fetch.
                    obs.edge(fspan, rspan, EDGE_BARRIER)
                    shuffled_bytes += nbytes
                    scaled = cost.scaled_bytes(nbytes)
                    if not heap.allocate(scaled):
                        if segments:
                            # Merge the resident segments into one sorted
                            # run; its size is the segments' cached sizes
                            # summed, never a re-sizing pass.
                            merged = RecordBatch(nbytes=0)
                            with _hostprof.scope(_hostprof.ENGINE, "reduce.merge"):
                                for seg in segments:
                                    merged.records.extend(seg.records)
                                    merged._nbytes += seg.nbytes
                                merged.sort(key=lambda kv: repr(kv[0]))
                            run = yield from spill.spill(
                                merged, sorted_by_key=True, parent=rspan
                            )
                            spill_runs.append(run)
                            heap.free(accounted_bytes)
                            segments, resident_bytes, accounted_bytes = [], 0, 0
                            self.metrics["reduce_spills"] += 1
                        if heap.allocate(scaled):
                            accounted_bytes += scaled
                        # else: a single segment over budget — held uncharged,
                        # modeling the JVM running right at its heap ceiling
                    else:
                        accounted_bytes += scaled
                    segments.append(segment)
                    resident_bytes += nbytes
                self.metrics["shuffled_bytes"] += shuffled_bytes

                # BARRIER passed: merge phase. Any aggregated segment means the
                # whole fetched volume is key-space-bounded.
                merge_div = cost.scale if any(o.aggregated for o in map_outputs) else 1.0
                groups: dict[Any, list] = {}
                merge_records = 0
                merge_bytes = 0
                for run in spill_runs:
                    pairs = yield from spill.read_back(run)
                    spill.free(run)
                    obs.edge(spill.last_span_id, rspan, EDGE_BARRIER)
                    with _hostprof.scope(_hostprof.ENGINE, "reduce.merge"):
                        for key, value in pairs:
                            groups.setdefault(key, []).append(value)
                            merge_records += 1
                    merge_bytes += run.nbytes
                with _hostprof.scope(_hostprof.ENGINE, "reduce.merge"):
                    for seg in segments:
                        for key, value in seg:
                            groups.setdefault(key, []).append(value)
                            merge_records += 1
                merge_bytes += resident_bytes
                t0 = sim.now
                yield node.record_compute(
                    merge_records / merge_div, merge_bytes / merge_div, cost.hadoop_sort_factor
                )

                ctx = MRContext()
                yield node.record_compute(
                    merge_records / merge_div, merge_bytes / merge_div, job.reducer.compute_factor
                )
                if obs.enabled:
                    obs.charge(job.name, COMPUTE, sim.now - t0, node=node.node_id, span=rspan)
                with _hostprof.scope(
                    _hostprof.ENGINE, "reduce", records=merge_records, nbytes=merge_bytes
                ):
                    for key in sorted(groups, key=repr):
                        job.reducer.reduce(ctx, key, groups[key])
                output_pairs = ctx.take()
                self.counters.update(ctx.counters)
                if accounted_bytes:
                    heap.free(accounted_bytes)

                part_name = f"{job.output_file}/part-{r:05d}"
                yield from self.dfs.write(
                    part_name, output_pairs, node,
                    cost_divisor=cost.scale if job.aggregated_output else 1.0,
                    job=job.name, span=rspan,
                )
                self.outputs.extend(output_pairs)
                obs.progress_done(job.name, "reduce")
                return part_name
        finally:
            slot.release()

    # -- map-only jobs ------------------------------------------------------------------------

    def _finalize_map_only(self, map_outputs: list):
        """Write each map task's raw output straight to the DFS."""
        job = self.job
        part_names = []
        writers = []
        sim = self.cluster.sim
        for i, out in enumerate(map_outputs):
            pairs = []
            for p in sorted(out.partitions):
                pairs.extend(out.partitions[p].records)
            part_name = f"{job.output_file}/part-m-{i:05d}"
            part_names.append(part_name)
            self.outputs.extend(pairs)

            def write_one(name=part_name, node=out.node, data=pairs):
                yield from self.dfs.write(name, data, node)

            writers.append(sim.spawn(write_one(), name=f"{job.name}.write{i}"))
        for writer in writers:
            yield writer
        self.dfs.concat(job.output_file, part_names)
