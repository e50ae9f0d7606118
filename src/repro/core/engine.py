"""The HAMR engine: job admission, split assignment, execution, results.

``HamrEngine.run(graph)`` executes one flowlet DAG on the simulated
cluster: it validates the graph, fills in default partitioners, builds a
:class:`~repro.core.runtime.NodeRuntime` per worker (each holding the
whole graph, §2), charges the (small) job-startup cost, and drives the
simulation until every flowlet instance on every node has completed.

The engine is reusable: drivers call ``run`` repeatedly for iterative
algorithms (PageRank, K-Means); the virtual clock and the KV store
persist across runs, so iteration ``i+1`` starts where ``i`` left off —
with its state already in memory, exactly the paper's §3.1 story.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.common.errors import ConfigError, JobError, ReproError, SimulationError
from repro.common.partitioner import HashPartitioner
from repro.cluster.cluster import Cluster
from repro.core.flowlet import Flowlet
from repro.core.graph import FlowletGraph
from repro.core.runtime import NodeRuntime
from repro.core.sources import SourceSplit
from repro.dataplane import SpillPool
from repro.dataplane.fabrics import ExchangeFabric, make_fabric
from repro.obs import STARTUP
from repro.storage.kvstore import KVStore
from repro.storage.localfs import LocalFS

#: shuffle-ownership strategies both engine configs accept, in
#: documentation order (see ``HamrConfig.partitioner``)
PARTITIONERS = ("hash", "shard")


@dataclass
class HamrConfig:
    """Engine knobs (defaults reproduce the paper's configuration)."""

    #: apply per-edge combiners when present (Table 3 studies this)
    use_combiners: bool = True
    #: gather sink pairs into JobResult.outputs (disable for huge outputs)
    collect_outputs: bool = True
    #: ablation A1: stage every shuffled bin through disk (Hadoop-style),
    #: forfeiting §3.1's in-memory data movement
    stage_edges_on_disk: bool = False
    #: ablation A2: hold every flowlet's bins until all upstreams complete
    #: (a full barrier before each phase), forfeiting §3.2's asynchrony
    barrier_mode: bool = False
    #: adaptive flow control (§2: "the number of concurrent loader tasks
    #: can be decreased to control the amount of input data"): when a
    #: node's tasks have hit this many flow-control stalls since its
    #: loader last launched a task, the loader backs off before the next
    #: split
    adaptive_loader_throttle: bool = False
    throttle_stall_threshold: int = 8
    throttle_backoff: float = 1.0
    #: default exchange fabric for every edge (overridable per edge via
    #: ``Edge.fabric``): direct | tree | twolevel | rdma — see
    #: ``repro.dataplane.fabrics``
    fabric: str = "direct"
    #: shuffle-ownership strategy: "hash" (round-robin over all workers)
    #: or "shard" (locality-first: partitions owned only by workers
    #: holding input shards)
    partitioner: str = "hash"


@dataclass
class JobResult:
    """Outcome of one engine run."""

    job_name: str
    start_time: float
    end_time: float
    outputs: dict[str, list[tuple[Any, Any]]] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    #: per-flowlet execution profile summed over nodes:
    #: name -> {tasks, bins_in, pairs_in, stalls}
    flowlet_metrics: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return self.end_time - self.start_time

    def output(self, flowlet_name: str) -> list[tuple[Any, Any]]:
        return self.outputs.get(flowlet_name, [])

    def sorted_output(self, flowlet_name: str) -> list[tuple[Any, Any]]:
        return sorted(self.output(flowlet_name), key=lambda kv: repr(kv[0]))


class HamrEngine:
    """A resident HAMR runtime on a simulated cluster."""

    def __init__(
        self,
        cluster: Cluster,
        localfs: Optional[LocalFS] = None,
        kvstore: Optional[KVStore] = None,
        config: Optional[HamrConfig] = None,
    ):
        self.cluster = cluster
        self.localfs = localfs if localfs is not None else LocalFS(cluster)
        self.kvstore = kvstore if kvstore is not None else KVStore(cluster)
        self.config = config or HamrConfig()
        self.num_workers = cluster.num_workers
        self._worker_index = {
            worker.node_id: index for index, worker in enumerate(cluster.workers)
        }
        # Per-run state
        self.graph: Optional[FlowletGraph] = None
        self._fabrics: dict[str, ExchangeFabric] = {}
        self.spill_pool: Optional[SpillPool] = None
        self.runtimes: list[NodeRuntime] = []
        self.metrics: dict[str, float] = {}
        self._outputs: dict[str, list[tuple[Any, Any]]] = {}
        self._counters: dict[str, float] = {}
        self._split_assignment: dict[tuple[str, int], list[SourceSplit]] = {}
        self._running = False

    # -- main entry point ----------------------------------------------------------

    def run(self, graph: FlowletGraph) -> JobResult:
        """Execute one job to completion; returns its result.

        May be called repeatedly; virtual time accumulates across calls.
        """
        if self._running:
            raise JobError("engine already running a job")
        graph.validate()
        self._prepare(graph)
        start_time = self.cluster.sim.now
        obs = self.cluster.obs
        done = {}

        def driver(sim):
            self._running = True
            with obs.span(f"job:{graph.name}", "job", job=graph.name, engine="hamr") as jspan:
                t0 = sim.now
                yield sim.timeout(self.cluster.cost.hamr_job_startup)
                if obs.enabled:
                    obs.charge(graph.name, STARTUP, sim.now - t0, span=jspan)
                events = []
                for runtime in self.runtimes:
                    events.extend(runtime.start())
                yield sim.all_of(events)
            done["t"] = sim.now

        self.cluster.sim.spawn(driver(self.cluster.sim), name=f"driver:{graph.name}")
        try:
            self.cluster.sim.run()
        except SimulationError as exc:
            if isinstance(exc.__cause__, ReproError):
                raise exc.__cause__ from exc
            raise
        finally:
            self._running = False
        if "t" not in done:
            raise JobError(f"job {graph.name!r} did not complete")
        return JobResult(
            job_name=graph.name,
            start_time=start_time,
            end_time=done["t"],
            outputs=dict(self._outputs),
            counters=dict(self._counters),
            metrics=dict(self.metrics),
            flowlet_metrics=self._gather_flowlet_metrics(),
        )

    def _gather_flowlet_metrics(self) -> dict[str, dict[str, int]]:
        profile: dict[str, dict[str, int]] = {}
        for runtime in self.runtimes:
            for name, instance in runtime.instances.items():
                row = profile.setdefault(
                    name, {"tasks": 0, "bins_in": 0, "pairs_in": 0, "stalls": 0}
                )
                row["tasks"] += instance.tasks_run
                row["bins_in"] += instance.bins_in
                row["pairs_in"] += instance.pairs_in
                row["stalls"] += instance.stalls
        return profile

    # -- preparation -----------------------------------------------------------------

    def _prepare(self, graph: FlowletGraph) -> None:
        self.graph = graph
        self.metrics = {}
        self._outputs = {}
        self._counters = {}
        for edge in graph.edges:
            if edge.partitioner is None:
                edge.partitioner = HashPartitioner(self.num_workers)
            elif edge.partitioner.num_partitions < 1:  # pragma: no cover - guarded upstream
                raise ConfigError("edge partitioner must have >= 1 partition")
        self._assign_splits(graph)
        self._install_partition_owners()
        # One fabric instance per (name, job run): combining fabrics
        # (twolevel) keep per-run gateway state that must not leak
        # across jobs.
        self._fabrics = {}
        # One spill pool per job: every node's runtime draws its
        # SpillManager from here, sharing an id space with the baseline.
        self.spill_pool = SpillPool(job=graph.name)
        self.runtimes = [NodeRuntime(self, index) for index in range(self.num_workers)]

    def _assign_splits(self, graph: FlowletGraph) -> None:
        """Locality-aware loader-split assignment (shared with the baseline)."""
        from repro.cluster.placement import assign_splits

        self._split_assignment = {}
        for flowlet in graph.loaders():
            assignment = assign_splits(self.cluster, flowlet.source.splits(self.cluster))
            for index, splits in enumerate(assignment):
                self._split_assignment[(flowlet.name, index)] = splits

    def _install_partition_owners(self) -> None:
        """Shard-aware partitioning: restrict shuffle ownership to the
        workers that actually hold input shards (locality-first), so
        grouped state lands where its inputs already are. The default
        "hash" strategy keeps the all-workers round-robin layout."""
        if self.config.partitioner != "shard":
            self.cluster.partition_owners = None
            return
        owners = sorted(
            {
                worker_index
                for (_name, worker_index), splits in self._split_assignment.items()
                if splits
            }
        )
        self.cluster.partition_owners = owners or None

    # -- runtime callbacks ---------------------------------------------------------------

    def fabric_for(self, edge) -> ExchangeFabric:
        """The (cached) exchange fabric serving one edge this run."""
        name = edge.fabric or self.config.fabric
        fabric = self._fabrics.get(name)
        if fabric is None:
            fabric = self._fabrics[name] = make_fabric(
                name, topology=self.cluster.topology()
            )
        return fabric

    def splits_for(self, flowlet: Flowlet, worker_index: int) -> list[SourceSplit]:
        return self._split_assignment.get((flowlet.name, worker_index), [])

    def worker_index_of(self, node) -> int:
        return self._worker_index[node.node_id]

    def collect_output(self, flowlet_name: str, pairs: list[tuple[Any, Any]]) -> None:
        if self.config.collect_outputs:
            self._outputs.setdefault(flowlet_name, []).extend(pairs)
        self.metrics["output_pairs"] = self.metrics.get("output_pairs", 0) + len(pairs)

    def collect_counters(self, ctx) -> None:
        for name, value in ctx.counters.items():
            self._counters[name] = self._counters.get(name, 0.0) + value
        ctx.counters.clear()

    # -- introspection ------------------------------------------------------------------------

    def instance_status(self, flowlet_name: str) -> list[str]:
        """Status of an instance on every worker (testing/debugging)."""
        return [
            runtime.instance(flowlet_name).status.value for runtime in self.runtimes
        ]
