"""The flowlet DAG.

"Multiple flowlets in a single HAMR job are organized as a Directed
Acyclic Graph to represent a complex workflow" (§2): arbitrary fan-in and
fan-out, any flowlet type connecting to any other, loaders at the roots.

Edges carry the data-movement policy:

* ``SHUFFLE`` — pairs are partitioned by key across the cluster (the
  default, Hadoop-like);
* ``LOCAL`` — pairs stay on the producing node (locality-aware pipelines,
  §3.3);
* ``BROADCAST`` — every pair is replicated to the flowlet instance on
  every worker (K-Means centroid redistribution, Alg. 1 step 5).

plus an optional per-edge combiner and partitioner.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import GraphError
from repro.common.partitioner import Partitioner
from repro.core.combiner import Combiner
from repro.core.flowlet import Flowlet, FlowletKind


class EdgeMode(enum.Enum):
    SHUFFLE = "shuffle"
    LOCAL = "local"
    BROADCAST = "broadcast"


@dataclass
class Edge:
    """A directed data channel between two flowlets."""

    edge_id: int
    src: Flowlet
    dst: Flowlet
    mode: EdgeMode = EdgeMode.SHUFFLE
    partitioner: Optional[Partitioner] = None  # engine fills the default in
    combiner: Optional[Combiner] = None
    #: inbound bin-queue capacity at each node, in modeled bytes (None = engine default)
    capacity: Optional[float] = None
    #: exchange fabric for this edge (None = engine default; see
    #: ``repro.dataplane.fabrics.FABRICS``)
    fabric: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Edge {self.src.name}->{self.dst.name} {self.mode.value}>"


class FlowletGraph:
    """A validated DAG of flowlets — one HAMR job."""

    def __init__(self, name: str = "job"):
        self.name = name
        self._flowlets: dict[str, Flowlet] = {}
        self._edges: list[Edge] = []

    # -- construction -----------------------------------------------------------

    def add(self, flowlet: Flowlet) -> Flowlet:
        if flowlet.name in self._flowlets:
            raise GraphError(f"duplicate flowlet name {flowlet.name!r}")
        self._flowlets[flowlet.name] = flowlet
        return flowlet

    def connect(
        self,
        src: Flowlet | str,
        dst: Flowlet | str,
        mode: EdgeMode = EdgeMode.SHUFFLE,
        partitioner: Optional[Partitioner] = None,
        combiner: Optional[Combiner] = None,
        capacity: Optional[float] = None,
        fabric: Optional[str] = None,
    ) -> Edge:
        src_f = self._resolve(src)
        dst_f = self._resolve(dst)
        if dst_f.kind is FlowletKind.LOADER:
            raise GraphError(f"loader {dst_f.name!r} cannot have inbound edges")
        if any(e.src is src_f and e.dst is dst_f for e in self._edges):
            raise GraphError(f"duplicate edge {src_f.name}->{dst_f.name}")
        edge = Edge(
            len(self._edges), src_f, dst_f, mode, partitioner, combiner, capacity, fabric
        )
        self._edges.append(edge)
        return edge

    def _resolve(self, flowlet: Flowlet | str) -> Flowlet:
        if isinstance(flowlet, str):
            try:
                return self._flowlets[flowlet]
            except KeyError:
                raise GraphError(f"unknown flowlet {flowlet!r}") from None
        if flowlet.name not in self._flowlets or self._flowlets[flowlet.name] is not flowlet:
            raise GraphError(f"flowlet {flowlet.name!r} not added to this graph")
        return flowlet

    # -- accessors ------------------------------------------------------------------

    @property
    def flowlets(self) -> list[Flowlet]:
        return list(self._flowlets.values())

    @property
    def edges(self) -> list[Edge]:
        return list(self._edges)

    def loaders(self) -> list[Flowlet]:
        return [f for f in self._flowlets.values() if f.kind is FlowletKind.LOADER]

    def sinks(self) -> list[Flowlet]:
        """Flowlets with no outbound edges — their emits become job output."""
        sources = {e.src.name for e in self._edges}
        return [f for f in self._flowlets.values() if f.name not in sources]

    def in_edges(self, flowlet: Flowlet) -> list[Edge]:
        return [e for e in self._edges if e.dst is flowlet]

    def out_edges(self, flowlet: Flowlet) -> list[Edge]:
        return [e for e in self._edges if e.src is flowlet]

    def upstream(self, flowlet: Flowlet) -> list[Flowlet]:
        return [e.src for e in self.in_edges(flowlet)]

    def downstream(self, flowlet: Flowlet) -> list[Flowlet]:
        return [e.dst for e in self.out_edges(flowlet)]

    # -- validation ---------------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`GraphError` unless this is a well-formed HAMR job."""
        if not self._flowlets:
            raise GraphError("empty graph")
        if not self.loaders():
            raise GraphError("a job needs at least one loader flowlet")
        for flowlet in self._flowlets.values():
            if flowlet.kind is not FlowletKind.LOADER and not self.in_edges(flowlet):
                raise GraphError(
                    f"{flowlet.name!r} is a {flowlet.kind.value} with no inbound edges"
                )
        self._check_acyclic()

    def topological_order(self) -> list[Flowlet]:
        """Flowlets in dependency order (raises on cycles)."""
        order: list[Flowlet] = []
        indegree = {name: 0 for name in self._flowlets}
        for edge in self._edges:
            indegree[edge.dst.name] += 1
        frontier = sorted(name for name, d in indegree.items() if d == 0)
        while frontier:
            name = frontier.pop(0)
            flowlet = self._flowlets[name]
            order.append(flowlet)
            added = []
            for edge in self.out_edges(flowlet):
                indegree[edge.dst.name] -= 1
                if indegree[edge.dst.name] == 0:
                    added.append(edge.dst.name)
            frontier.extend(sorted(added))
        if len(order) != len(self._flowlets):
            cyclic = sorted(name for name, d in indegree.items() if d > 0)
            raise GraphError(f"flowlet graph has a cycle through: {', '.join(cyclic)}")
        return order

    def _check_acyclic(self) -> None:
        self.topological_order()

    def describe(self) -> str:
        """A human-readable plan: flowlets in dependency order with their
        kinds and outgoing edges (mode, combiner)."""
        lines = [f"FlowletGraph {self.name!r}"]
        for flowlet in self.topological_order():
            lines.append(f"  [{flowlet.kind.value}] {flowlet.name}")
            for edge in self.out_edges(flowlet):
                extras = []
                if edge.mode is not EdgeMode.SHUFFLE:
                    extras.append(edge.mode.value)
                if edge.combiner is not None:
                    extras.append("combiner")
                suffix = f"  ({', '.join(extras)})" if extras else ""
                lines.append(f"      -> {edge.dst.name}{suffix}")
            if not self.out_edges(flowlet):
                lines.append("      => job output")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlowletGraph {self.name!r}: {len(self._flowlets)} flowlets, "
            f"{len(self._edges)} edges>"
        )
