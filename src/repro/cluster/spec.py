"""Cluster and cost-model specifications.

:data:`PAPER_CLUSTER` encodes Table 1 of the paper: 16 nodes (one master +
15 workers), each with two Xeon E5-2620 processors at 2 GHz, 32 GB of
memory, five SATA-III local disks, and 4x FDR InfiniBand.

The :class:`CostModel` holds every software cost constant shared by both
engines. Hardware-derived values come from the table; framework overheads
(job/task startup, sort factors) are the standard Hadoop figures from the
literature. The **same** constants drive the HAMR engine and the baseline,
so the reproduced speedups are emergent from the architecture differences
(in-memory vs disk staging, asynchrony vs barriers), not tuned per engine.

The *scale model*: ``CostModel.scale = S`` makes every real record/byte
stand for ``S`` modeled records/bytes, while memory budgets stay at spec.
Running a 300 MB input with ``S = 1000`` therefore reproduces the paper's
300 GB run — including when spills and flow-control stalls kick in.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.common.errors import ConfigError
from repro.common.units import GB, KB, MB


@dataclass(frozen=True)
class NodeSpec:
    """Per-node hardware description (one row of Table 1)."""

    worker_threads: int = 32  # §5.2: "all threads (32 threads)" per node
    memory: int = 32 * GB
    num_disks: int = 5  # SATA-III local disks
    disk_bandwidth: float = 150.0 * MB  # sustained sequential, bytes/s per disk
    disk_latency: float = 0.004  # seek + controller overhead per op, seconds
    nic_bandwidth: float = 1.5 * GB  # effective FDR IB through the Java stack
    nic_latency: float = 50e-6  # one-way, seconds
    cpu_ghz: float = 2.0  # informational (E5-2620 @ 2 GHz)
    #: relative CPU speed (1.0 = nominal; 0.5 = a straggler node at half
    #: speed — used by heterogeneity/speculation experiments)
    speed_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.worker_threads <= 0:
            raise ConfigError("worker_threads must be positive")
        if self.memory <= 0:
            raise ConfigError("memory must be positive")
        if self.num_disks <= 0:
            raise ConfigError("num_disks must be positive")
        if self.speed_factor <= 0:
            raise ConfigError("speed_factor must be positive")

    @property
    def aggregate_disk_bandwidth(self) -> float:
        return self.num_disks * self.disk_bandwidth


@dataclass(frozen=True)
class CostModel:
    """Software cost constants shared by both engines (seconds / bytes).

    CPU costs model a JVM-style record pipeline: per-record dispatch plus
    per-byte touch cost; ``serde_per_byte`` covers
    serialization/deserialization on every shuffle or disk boundary.
    """

    # Per-record and per-byte processing cost of user code + framework dispatch.
    cpu_per_record: float = 0.5e-6
    cpu_per_byte: float = 0.5e-9
    # (De)serialization at shuffle/disk boundaries.
    serde_per_byte: float = 1.0e-9
    # Shared-cell atomic update: contended (cache-line ping-pong across two
    # sockets) vs uncontended (plain LOCK'd add on a warm line).
    atomic_update_cost: float = 0.15e-6
    atomic_base_cost: float = 50e-9
    # CPU factor for inserting a record into a reduce-side grouped store.
    reduce_collect_factor: float = 0.15
    # Fraction of a combined pair's accumulator-update pressure a combiner
    # relieves (Table 3: combining shrinks shuffle volume but only mildly
    # relieves the serialized accumulator path — ~15% on HistogramRatings).
    combiner_update_relief: float = 0.15
    # Hadoop framework overheads (standard literature figures).
    hadoop_job_startup: float = 10.0
    hadoop_task_startup: float = 1.0
    hadoop_sort_factor: float = 2.0  # extra CPU multiplier for sort passes
    hadoop_slots_per_node: int = 8  # YARN memory-sized task containers per node
    hadoop_sort_buffer: int = 100 * MB  # map-side sort buffer (modeled bytes)
    hadoop_reduce_memory: int = 1024 * MB  # per-reduce-task JVM heap (modeled bytes)
    hdfs_replication: int = 3
    hdfs_block_size: int = 128 * MB
    # HAMR runtime constants.
    hamr_job_startup: float = 1.0  # resident runtime; no per-job JVM army
    hamr_loader_slots: int = 8  # concurrent loader tasks per node (flow control knob)
    bin_overhead: float = 50e-6  # scheduling cost per bin
    # Bin sealing and flow-control capacities operate on *real* logical
    # bytes (they set simulation granularity); memory, disk and network
    # charge *scaled* bytes. See DESIGN.md §7.
    bin_size: int = 1 * KB
    flow_capacity: int = 256 * KB  # per-(flowlet, node) inbound bin-queue budget
    # Scale model: one real byte/record stands for `scale` modeled ones.
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigError("scale must be positive")
        if self.hdfs_replication < 1:
            raise ConfigError("hdfs_replication must be >= 1")

    # -- scaled cost helpers (both engines charge through these) -------------

    def scaled_bytes(self, nbytes: float) -> float:
        return nbytes * self.scale

    def cpu_cost(self, nrecords: float, nbytes: float, factor: float = 1.0) -> float:
        """CPU seconds to process ``nrecords`` totaling ``nbytes`` (pre-scale)."""
        return self.scale * factor * (
            nrecords * self.cpu_per_record + nbytes * self.cpu_per_byte
        )

    def serde_cost(self, nbytes: float) -> float:
        return self.scale * nbytes * self.serde_per_byte

    def with_scale(self, scale: float) -> "CostModel":
        return replace(self, scale=scale)


@dataclass(frozen=True)
class ClusterSpec:
    """A whole cluster: ``num_nodes`` total, one of which is the master.

    Matching §5.1: one node runs NameNode/ResourceManager, the other
    ``num_nodes - 1`` execute tasks; HAMR likewise uses the worker nodes
    only, for a fair comparison.
    """

    num_nodes: int = 16
    node: NodeSpec = field(default_factory=NodeSpec)
    cost: CostModel = field(default_factory=CostModel)
    #: per-node-id spec overrides (heterogeneous clusters), e.g.
    #: ``{3: replace(spec.node, speed_factor=0.25)}`` for one straggler
    node_overrides: tuple = ()
    #: rack topology metadata: workers ``[k*R, (k+1)*R)`` form rack ``k``.
    #: 0 (the default) means no rack structure — rack-aware exchange
    #: fabrics degrade to direct routing and nothing else changes.
    rack_size: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ConfigError("need at least a master and one worker")
        if self.rack_size < 0:
            raise ConfigError("rack_size must be >= 0")
        for node_id, _spec in self.node_overrides:
            if not 0 <= node_id < self.num_nodes:
                raise ConfigError(f"node override for unknown node {node_id}")

    def spec_for(self, node_id: int) -> NodeSpec:
        for override_id, spec in self.node_overrides:
            if override_id == node_id:
                return spec
        return self.node

    @property
    def num_workers(self) -> int:
        return self.num_nodes - 1

    def with_cost(self, cost: CostModel) -> "ClusterSpec":
        return replace(self, cost=cost)

    def with_scale(self, scale: float) -> "ClusterSpec":
        return replace(self, cost=self.cost.with_scale(scale))

    def with_racks(self, rack_size: int) -> "ClusterSpec":
        """The same cluster re-cabled into racks of ``rack_size`` workers."""
        return replace(self, rack_size=rack_size)

    def rack_size_for(self, fabric: str, racks: Optional[int] = None) -> int:
        """Workers per rack of a run on ``fabric``: ``racks`` groups of
        contiguous workers when given, else this spec's own racks. A rackless
        spec under the rack-aware ``twolevel`` fabric, which would silently
        route direct, gets four racks (the paper's 16-node testbed split
        4x4, scaled down for smaller specs)."""
        if racks is None:
            if self.rack_size or fabric != "twolevel":
                return self.rack_size
            racks = 4
        return max(1, self.num_workers // racks)


#: Table 1 of the paper, verbatim.
PAPER_CLUSTER = ClusterSpec()


def paper_cluster_spec(scale: float = 1.0) -> ClusterSpec:
    """The paper's 16-node testbed, optionally with a data scale factor."""
    return PAPER_CLUSTER.with_scale(scale) if scale != 1.0 else PAPER_CLUSTER


def small_cluster_spec(
    num_workers: int = 4,
    worker_threads: int = 4,
    memory: int = 1 * GB,
    scale: float = 1.0,
) -> ClusterSpec:
    """A small cluster for unit tests and examples (fast to simulate)."""
    node = NodeSpec(worker_threads=worker_threads, memory=memory)
    cost = CostModel(scale=scale)
    return ClusterSpec(num_nodes=num_workers + 1, node=node, cost=cost)
