"""The assembled cluster: nodes + network + resource manager + tracer."""

from __future__ import annotations

from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.spec import ClusterSpec
from repro.cluster.yarn import ResourceManager
from repro.common.errors import JobError, ReproError, SimulationError
from repro.common.partitioner import HashPartitioner, Partitioner
from repro.obs import Tracer, telemetry
from repro.sim import Simulator


class Cluster:
    """A simulated cluster built from a :class:`ClusterSpec`.

    Node 0 is the master (NameNode / ResourceManager host, per §5.1); nodes
    1..N-1 are the workers both engines execute on. Partitions map onto
    workers round-robin, so "each node works on a portion of the whole key
    space" exactly as in the paper.

    ``obs=True`` enables the unified observability layer (``self.obs``):
    task/stall/spill spans, the metrics registry, blame attribution, and
    per-node busy-thread time series. Disabled (the default), the tracer
    is a pure no-op and charges nothing to wall-clock.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        sim: Simulator | None = None,
        obs: bool = False,
        journal=None,
    ):
        self.spec = spec
        self.sim = sim if sim is not None else Simulator()
        # The journal attaches at tracer construction: _wire_telemetry
        # below captures metric handles in closures, and those creations
        # must already be journaled.
        self.obs = Tracer(self.sim, enabled=obs, journal=journal)
        self.nodes = [
            Node(self.sim, node_id, spec.spec_for(node_id), spec.cost, obs=self.obs)
            for node_id in range(spec.num_nodes)
        ]
        #: shard-aware ownership override: worker indices (in partition
        #: round-robin order) that own the shuffle key space; None keeps
        #: the all-workers round-robin layout (see :meth:`own_partitions`).
        self.partition_owners: list[int] | None = None
        self._job_running = False
        racks = self.rack_assignment()
        self.network = Network(
            self.sim, self.nodes, spec.cost, latency=spec.node.nic_latency,
            racks=racks,
        )
        self.resource_manager = ResourceManager(self.sim, self.nodes)
        # Rack-aware traffic accounting: matrices created by the tracer
        # split inter- vs intra-rack bytes when a topology is configured.
        self.obs.racks = racks
        if obs:
            self._wire_telemetry()

    def _wire_telemetry(self) -> None:
        """Attach timeline observers to every node's resources.

        CPU-slot occupancy, memory used/pressure and queue depth are step
        tracks fed by occupancy hooks; disk busy-time and NIC tx/rx bytes
        are rate tracks fed by transfer hooks. Engines additionally wire
        inbox-depth observers when they build their flowlet inboxes.
        """
        timeline = self.obs.timeline
        for node in self.nodes:
            nid = node.node_id
            node.threads.observer = self._thread_observer(nid)
            timeline.set_capacity(telemetry.CPU, nid, float(node.threads.capacity))
            for device in node.disk_devices:
                device.observer = timeline.busy_observer(telemetry.DISK, nid)
                timeline.add_capacity(telemetry.DISK, nid, 1.0)
            node.nic_out.observer = timeline.bytes_observer(telemetry.NIC_TX, nid)
            node.nic_in.observer = timeline.bytes_observer(telemetry.NIC_RX, nid)
            node.memory.observer = self._memory_observer(node)
            timeline.set_capacity(telemetry.MEM_USED, nid, node.memory.budget)
            timeline.set_capacity(telemetry.MEM_PRESSURE, nid, 1.0)

    def wire_task_slots(self, resource, node_id: int, capacity: float) -> None:
        """Attach CPU telemetry to an engine-owned task-slot Resource.

        The MapReduce baseline schedules on per-job slot pools rather than
        ``node.threads``; wiring them here gives both engines the same
        ``threads_busy`` series and CPU timeline track.
        """
        if not self.obs.enabled:
            return
        resource.observer = self._thread_observer(node_id)
        self.obs.timeline.set_capacity(telemetry.CPU, node_id, capacity)

    def _thread_observer(self, node_id: int):
        series = self.obs.metrics.series("threads_busy", node=node_id)
        cpu_step = self.obs.timeline.step_observer(telemetry.CPU, node_id)

        def observe(now: float, in_use: int) -> None:
            series.append(now, in_use)
            cpu_step(now, float(in_use))

        return observe

    def _memory_observer(self, node: Node):
        nid = node.node_id
        budget = node.memory.budget
        timeline = self.obs.timeline
        gauge_high = self.obs.metrics.gauge("memory.high_water", node=nid)
        gauge_when = self.obs.metrics.gauge("memory.high_water_time", node=nid)

        def observe(now: float, used: float) -> None:
            timeline.record_step(telemetry.MEM_USED, nid, now, used)
            timeline.record_step(telemetry.MEM_PRESSURE, nid, now, used / budget)
            gauge_high.set(node.memory.high_water)
            gauge_when.set(node.memory.high_water_time)

        return observe

    @property
    def master(self) -> Node:
        return self.nodes[0]

    @property
    def workers(self) -> list[Node]:
        return self.nodes[1:]

    @property
    def num_workers(self) -> int:
        return len(self.nodes) - 1

    @property
    def cost(self):
        return self.spec.cost

    def worker(self, index: int) -> Node:
        """The ``index``-th worker (0-based)."""
        return self.nodes[1 + index]

    def owner_of_partition(self, partition: int, num_partitions: int) -> Node:
        """The worker that owns a shuffle partition.

        Round-robin over all workers by default; with shard-aware
        ownership installed (``partition_owners``), round-robin over the
        owning workers only — partitions land on nodes that already hold
        input shards, which is what makes locality-first partitioning
        cut remote exchange bytes.
        """
        if not 0 <= partition < num_partitions:
            raise ValueError(f"partition {partition} out of range {num_partitions}")
        owners = self.partition_owners
        if owners:
            return self.workers[owners[partition % len(owners)]]
        return self.workers[partition % self.num_workers]

    # -- rack topology --------------------------------------------------------

    @property
    def rack_size(self) -> int:
        return self.spec.rack_size

    def topology(self):
        """The worker-index rack :class:`~repro.dataplane.fabrics.Topology`."""
        from repro.dataplane.fabrics import Topology

        return Topology(self.num_workers, self.rack_size)

    def rack_assignment(self) -> dict[int, int] | None:
        """node-id → rack map, or None without rack structure.

        The master is not in any worker rack (rack ``-1``): it holds no
        shuffle partitions, so its (rare) control traffic never counts
        as intra-rack locality.
        """
        if not 0 < self.rack_size < self.num_workers:
            return None
        topo = self.topology()
        racks = {self.master.node_id: -1}
        for index, worker in enumerate(self.workers):
            racks[worker.node_id] = topo.rack_of(index)
        return racks

    def default_partitioner(self, partitions_per_worker: int = 1) -> Partitioner:
        """A hash partitioner with one (or more) partitions per worker."""
        return HashPartitioner(self.num_workers * partitions_per_worker)

    def own_partitions(self, holders) -> None:
        """Install the shuffle ownership a job's partitioner asks for.

        ``holders`` are the worker indices that hold the job's input
        shards when the shard-aware ("locality-first") strategy is on, so
        grouped state lands where its inputs already are; ``None`` (or no
        holder at all) keeps the all-workers round-robin layout. Both
        engines install ownership through here, so they shuffle to, and
        place reducers on, the same nodes.
        """
        self.partition_owners = sorted(set(holders or ())) or None

    def run_job(self, body, name: str, label: str) -> float:
        """Drive one job's process ``body`` to completion on the simulator.

        The one job driver both engines use: spawns ``body`` as a process
        named ``name``, runs the simulation until it drains, and returns
        the virtual time ``body`` finished. A library error raised inside
        the run (task-retry exhaustion, a bad emit, ...) surfaces under its
        own type rather than the kernel's wrapper; a run that drains
        without finishing ``body`` raises :class:`JobError` naming
        ``label``. One job runs at a time: a job started from inside
        another one's run is rejected.
        """
        if self._job_running:
            raise JobError("engine already running a job")
        done = {}

        def driver(sim):
            yield from body
            done["t"] = sim.now

        self.sim.spawn(driver(self.sim), name=name)
        self._job_running = True
        try:
            self.sim.run()
        except SimulationError as exc:
            if isinstance(exc.__cause__, ReproError):
                raise exc.__cause__ from exc
            raise
        finally:
            self._job_running = False
        if "t" not in done:
            raise JobError(f"{label} did not complete")
        return done["t"]

    # -- aggregate metrics ----------------------------------------------------

    def total_disk_bytes(self) -> int:
        return sum(node.disk.total_bytes for node in self.nodes)

    def total_network_bytes(self) -> int:
        return self.network.total_bytes
