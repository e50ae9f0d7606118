"""A YARN-like resource negotiator.

The paper notes (§1, §3.1) that HAMR "can use YARN as the resource
negotiator to allocate and monitor compute containers for flowlet tasks",
and that YARN "schedules the tasks based on available memory on nodes".
This module models that contract: applications request memory-sized
containers on specific nodes; the manager grants them FIFO per node as
memory frees up.

The Hadoop baseline requests one container per map/reduce task (modeling
MRv2 task containers with their JVM start cost charged by the engine); the
HAMR engine requests one long-lived container per node — the paper's "one
JVM per node instead of one JVM per task" (§5.2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Tuple

from repro.common.errors import ConfigError
from repro.cluster.node import Node
from repro.sim import Simulator
from repro.sim.core import SimEvent


@dataclass
class Container:
    """A granted allocation of memory on one node."""

    container_id: int
    node: Node
    memory: float
    released: bool = False


class ResourceManager:
    """Grants memory containers per node, FIFO, against node capacity.

    Container memory is tracked against a scheduler-side ledger (the
    cluster's real :class:`MemoryAccount` tracks *data*; YARN tracks
    *reservations* — matching how the real system double-books).
    """

    def __init__(self, sim: Simulator, nodes: list[Node]):
        self.sim = sim
        self.nodes = {node.node_id: node for node in nodes}
        self._capacity: Dict[int, float] = {
            node.node_id: float(node.spec.memory) for node in nodes
        }
        self._reserved: Dict[int, float] = {node.node_id: 0.0 for node in nodes}
        self._pending: Dict[int, Deque[Tuple[SimEvent, float]]] = {
            node.node_id: deque() for node in nodes
        }
        self._next_id = 0
        # Metrics
        self.granted = 0
        self.released = 0

    def request(self, node: Node, memory: float) -> SimEvent:
        """Request a container; the event fires with a :class:`Container`."""
        if node.node_id not in self.nodes:
            raise ConfigError(f"unknown node {node.node_id}")
        if memory <= 0 or memory > self._capacity[node.node_id]:
            raise ConfigError(
                f"container of {memory} bytes cannot fit on node {node.node_id}"
            )
        event = SimEvent(self.sim, name=f"yarn.request(n{node.node_id})")
        self._pending[node.node_id].append((event, memory))
        self._dispatch(node.node_id)
        return event

    def release(self, container: Container) -> None:
        if container.released:
            raise ConfigError(f"container {container.container_id} released twice")
        container.released = True
        self.released += 1
        self._reserved[container.node.node_id] -= container.memory
        self._dispatch(container.node.node_id)

    def available(self, node_id: int) -> float:
        return self._capacity[node_id] - self._reserved[node_id]

    def _dispatch(self, node_id: int) -> None:
        queue = self._pending[node_id]
        while queue:
            event, memory = queue[0]
            if self._reserved[node_id] + memory > self._capacity[node_id]:
                return
            queue.popleft()
            self._reserved[node_id] += memory
            self._next_id += 1
            self.granted += 1
            event.trigger(
                Container(self._next_id, self.nodes[node_id], memory)
            )
