"""A simulated cluster node.

Each node bundles the sim resources one physical machine contributes:

* a worker-thread pool (``threads``) — tasks hold one slot while computing;
* a memory account in scaled logical bytes;
* five local disks striped into one logical device (``disk``);
* NIC egress/ingress pipes used by the :class:`~repro.cluster.network.Network`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.memory import MemoryAccount
from repro.cluster.spec import CostModel, NodeSpec
from repro.sim import BandwidthResource, Resource, Simulator
from repro.sim.core import SimEvent
from repro.sim.resources import StripedBandwidth

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Tracer


class Node:
    """One machine of the simulated cluster."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        spec: NodeSpec,
        cost: CostModel,
        obs: "Tracer | None" = None,
    ):
        self.sim = sim
        self.node_id = node_id
        self.spec = spec
        self.cost = cost
        if obs is None:
            from repro.obs import Tracer  # standalone nodes get a no-op tracer

            obs = Tracer(sim, enabled=False)
        self.obs = obs
        self.threads = Resource(sim, spec.worker_threads, name=f"n{node_id}.threads")
        self.memory = MemoryAccount(
            spec.memory, name=f"n{node_id}.memory", clock=lambda: sim.now
        )
        self.disk_devices = [
            BandwidthResource(
                sim,
                bandwidth=spec.disk_bandwidth,
                latency=spec.disk_latency,
                name=f"n{node_id}.disk{i}",
            )
            for i in range(spec.num_disks)
        ]
        self.disk = StripedBandwidth(self.disk_devices)
        self.nic_out = BandwidthResource(
            sim, bandwidth=spec.nic_bandwidth, latency=0.0, name=f"n{node_id}.nic_out"
        )
        self.nic_in = BandwidthResource(
            sim, bandwidth=spec.nic_bandwidth, latency=0.0, name=f"n{node_id}.nic_in"
        )

    # -- cost-charged operations (all sizes are *pre-scale* logical bytes) ---

    def disk_read(self, nbytes: float) -> SimEvent:
        """Read ``nbytes`` logical bytes from the local striped disks."""
        return self.disk.transfer(self.cost.scaled_bytes(nbytes))

    def disk_write(self, nbytes: float) -> SimEvent:
        return self.disk.transfer(self.cost.scaled_bytes(nbytes))

    def compute(self, seconds: float) -> SimEvent:
        """Pure CPU time (caller must already hold a thread slot)."""
        return self.sim.timeout(seconds / self.spec.speed_factor)

    def record_compute(self, nrecords: float, nbytes: float, factor: float = 1.0) -> SimEvent:
        """CPU time for processing records, via the shared cost model."""
        return self.sim.timeout(
            self.cost.cpu_cost(nrecords, nbytes, factor) / self.spec.speed_factor
        )

    def alloc(self, nbytes: float) -> bool:
        """Account ``nbytes`` logical bytes of memory (scaled); False if over budget."""
        return self.memory.allocate(self.cost.scaled_bytes(nbytes))

    def free(self, nbytes: float) -> None:
        self.memory.free(self.cost.scaled_bytes(nbytes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id}>"
