"""Pluggable exchange fabrics: swappable shuffle routing + wire accounting.

The dataplane used to hard-code one all-to-all routing/charging strategy
(:func:`repro.dataplane.exchange.exchange_targets`): every sealed payload
went source → destination in one hop and charged the traffic matrix once
per target. That is the right model for the paper's full-bisection FDR
InfiniBand testbed, but it cannot ask the paper's central "what does the
fabric buy you" question. This module factors the strategy into
:class:`ExchangeFabric` backends selectable per edge (HAMR) or per job
(the Hadoop baseline):

``direct``
    Today's behaviour, byte-identical: one hop per target, one traffic
    charge per target, full serde cost. The committed ``BENCH_obs.json``
    reproduces exactly under this fabric.
``tree``
    Binomial-tree broadcast: a broadcast payload leaves the source once
    per subtree instead of once per worker — each non-root target
    receives its copy from its tree parent, so total broadcast wire
    bytes drop from ``N`` to ``N - 1`` payloads and the source NIC
    serializes ``log2(N)`` copies instead of ``N``. Shuffle and local
    payloads route directly.
``twolevel``
    Rack-aware two-level shuffle: a remote payload goes source →
    source-rack gateway → destination-rack gateway → destination, and
    the *inter-rack* hop is run through a per-(stream, rack-pair)
    combining gateway — a key already forwarded across that rack pair
    does not pay its key bytes again (aggregated payloads fold
    entirely into the combined record and pay nothing). Intra-rack hops
    carry full bytes. Requires a multi-rack :class:`Topology`; on a
    single-rack cluster it degrades to ``direct`` routing.
``rdma``
    Zero-copy model of HAMR's fine-grain asynchronous messaging on the
    FDR InfiniBand fabric: direct routing, but the per-payload
    serialization CPU charge is skipped (``serde_factor = 0``) — the
    NIC reads the bin straight out of registered memory.

**Contract** (see DESIGN.md "Exchange fabrics"): ``plan()`` is pure
routing — it returns an :class:`ExchangePlan` of per-target deliveries,
each a sequence of store-and-forward :class:`Hop` transfers in worker-
index space, and mutates nothing but the fabric's own dedup state.
``charge()`` then books every hop into a
:class:`~repro.obs.telemetry.TrafficMatrix`; it is a separate call so
each engine charges at its historical program point and the ``direct``
fabric's float-accumulation order (hence the drift-gated totals) stays
bit-exact. Both engines time each hop as a real ``network.send``, so a
fabric's extra hops land in the NETWORK blame bucket and ``explain``
attributes cross-fabric makespan deltas to the network.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.common.sizeof import logical_sizeof, pair_size
from repro.dataplane.exchange import (
    BROADCAST,
    BROADCAST_PARTITION,
    LOCAL,
    SHUFFLE,
    exchange_targets,
)

__all__ = [
    "FABRICS",
    "Topology",
    "Hop",
    "Delivery",
    "ExchangePlan",
    "ExchangeFabric",
    "DirectFabric",
    "TreeFabric",
    "TwoLevelFabric",
    "RdmaFabric",
    "make_fabric",
    "reroute_payload",
]

#: selectable fabric names, in documentation order
FABRICS = ("direct", "tree", "twolevel", "rdma")


class Topology:
    """Rack layout over worker indices.

    ``rack_size = 0`` (the default) means "no rack structure": every
    worker shares rack 0 and rack-aware fabrics degrade to direct
    routing. With ``rack_size = R``, workers ``[k*R, (k+1)*R)`` form
    rack ``k`` and the rack's gateway is its lowest worker index —
    matching the paper's 16-node testbed split into racks of four.
    """

    __slots__ = ("num_workers", "rack_size")

    def __init__(self, num_workers: int, rack_size: int = 0):
        self.num_workers = num_workers
        self.rack_size = rack_size if rack_size and rack_size > 0 else 0

    @property
    def multi_rack(self) -> bool:
        return 0 < self.rack_size < self.num_workers

    @property
    def num_racks(self) -> int:
        if not self.multi_rack:
            return 1
        return -(-self.num_workers // self.rack_size)

    def rack_of(self, worker_index: int) -> int:
        if not self.multi_rack:
            return 0
        return worker_index // self.rack_size

    def gateway(self, rack: int) -> int:
        """The rack's gateway worker (lowest worker index in the rack)."""
        if not self.multi_rack:
            return 0
        return rack * self.rack_size


class Hop:
    """One store-and-forward wire transfer, in worker-index space."""

    __slots__ = ("src", "dst", "nbytes")

    def __init__(self, src: int, dst: int, nbytes: float):
        self.src = src
        self.dst = dst
        self.nbytes = nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Hop({self.src}->{self.dst}, {self.nbytes})"


class Delivery:
    """One logical delivery: the payload reaches ``target``'s inbox after
    every hop in ``hops`` completes (in order)."""

    __slots__ = ("target", "hops")

    def __init__(self, target: int, hops: list[Hop]):
        self.target = target
        self.hops = hops


class ExchangePlan:
    """A fabric's routing decision for one sealed payload."""

    __slots__ = ("mode", "partition", "deliveries", "nbytes", "nrecords")

    def __init__(
        self,
        mode: str,
        partition: int,
        deliveries: list[Delivery],
        nbytes: float,
        nrecords: int,
    ):
        #: *effective* exchange mode (broadcast-partition payloads count
        #: as broadcast whatever edge they rode in on)
        self.mode = mode
        self.partition = partition
        self.deliveries = deliveries
        self.nbytes = nbytes
        self.nrecords = nrecords

    @property
    def targets(self) -> list[int]:
        return [delivery.target for delivery in self.deliveries]

    @property
    def wire_bytes(self) -> float:
        """Total timed wire bytes over every hop of every delivery."""
        return sum(h.nbytes for d in self.deliveries for h in d.hops)


class ExchangeFabric:
    """Routing + transport-charging strategy for one exchange edge.

    Subclasses override :meth:`_route` (per-target hop construction) or
    :meth:`plan` (when deliveries share hops, as in tree broadcast).
    ``serde_factor`` scales the per-payload serialization CPU charge —
    1.0 for copy-based fabrics, 0.0 for the zero-copy RDMA model.
    """

    name = "base"
    serde_factor = 1.0

    def __init__(self, topology: Optional[Topology] = None):
        self.topology = topology if topology is not None else Topology(0)

    # -- routing ----------------------------------------------------------------

    def plan(
        self,
        mode: str,
        partition: int,
        *,
        worker_index: int,
        num_workers: int,
        owner_of=None,
        nbytes: float = 0.0,
        nrecords: int = 0,
        records: Optional[list] = None,
        aggregated: bool = False,
        stream: Any = None,
    ) -> ExchangePlan:
        """Route one sealed payload; mutates only fabric-local dedup state.

        ``records`` (the payload's key-value pairs) and ``stream`` (a
        stable id for the logical exchange, e.g. the edge id) feed
        combining fabrics; routing-only fabrics ignore them.
        """
        targets = exchange_targets(
            mode,
            partition,
            worker_index=worker_index,
            num_workers=num_workers,
            owner_of=owner_of,
        )
        effective = self._effective_mode(mode, partition)
        deliveries = [
            Delivery(
                target,
                self._route(
                    worker_index,
                    target,
                    effective,
                    nbytes=nbytes,
                    records=records,
                    aggregated=aggregated,
                    stream=stream,
                ),
            )
            for target in targets
        ]
        return ExchangePlan(effective, partition, deliveries, nbytes, nrecords)

    def _route(
        self,
        src: int,
        dst: int,
        mode: str,
        *,
        nbytes: float,
        records: Optional[list],
        aggregated: bool,
        stream: Any,
    ) -> list[Hop]:
        raise NotImplementedError

    @staticmethod
    def _effective_mode(mode: str, partition: int) -> str:
        if mode == BROADCAST or partition == BROADCAST_PARTITION:
            return BROADCAST
        return mode

    # -- charging ----------------------------------------------------------------

    def charge(self, plan: ExchangePlan, traffic, *, node_of, scale=None) -> None:
        """Book every hop of ``plan`` into a traffic matrix.

        ``node_of`` maps worker indices to node ids; ``scale`` converts
        timed wire bytes to modeled (drift-gated) bytes — pass the cost
        model's ``scaled_bytes`` so the charge matches what the network
        moves. Kept separate from :meth:`plan` so each engine charges at
        its historical program point (HAMR before the serde charge,
        Hadoop after the fetch completes) and ``direct`` totals stay
        bit-exact.
        """
        if traffic is None:
            return
        shuffle_partition = plan.partition if plan.mode == SHUFFLE else None
        for delivery in plan.deliveries:
            for hop in delivery.hops:
                traffic.charge(
                    node_of(hop.src),
                    node_of(hop.dst),
                    scale(hop.nbytes) if scale is not None else hop.nbytes,
                    records=plan.nrecords,
                    mode=plan.mode,
                    partition=shuffle_partition,
                )


class DirectFabric(ExchangeFabric):
    """The paper-testbed baseline: one full-bisection hop per target."""

    name = "direct"

    def _route(self, src, dst, mode, *, nbytes, records, aggregated, stream):
        return [Hop(src, dst, nbytes)]


class RdmaFabric(DirectFabric):
    """Direct routing with zero-copy sends (no serialization CPU charge)."""

    name = "rdma"
    serde_factor = 0.0


class TreeFabric(DirectFabric):
    """Binomial-tree broadcast; shuffle and local payloads go direct.

    The broadcast tree is rooted at the source worker: relabelling
    workers relative to the root, node ``v``'s parent clears ``v``'s
    highest set bit — the classic binomial schedule, so the source sends
    ``ceil(log2(N))`` copies and every other worker forwards at most
    that many. Each delivery carries exactly one tree edge, so every
    edge is timed and charged once.
    """

    name = "tree"

    def plan(self, mode, partition, **kwargs):
        plan = super().plan(mode, partition, **kwargs)
        if plan.mode != BROADCAST or len(plan.deliveries) <= 1:
            return plan
        root = kwargs["worker_index"]
        num_workers = kwargs["num_workers"]
        nbytes = kwargs.get("nbytes", 0.0)
        deliveries = []
        for delivery in plan.deliveries:
            target = delivery.target
            if target == root:
                deliveries.append(Delivery(target, []))
                continue
            relative = (target - root) % num_workers
            parent = (self._parent(relative) + root) % num_workers
            deliveries.append(Delivery(target, [Hop(parent, target, nbytes)]))
        plan.deliveries = deliveries
        return plan

    @staticmethod
    def _parent(relative: int) -> int:
        """Binomial-tree parent in root-relative labels (root = 0)."""
        return relative & ~(1 << (relative.bit_length() - 1))


class TwoLevelFabric(ExchangeFabric):
    """Rack-aware two-level shuffle with a combining inter-rack gateway.

    Remote payloads route source → source gateway → destination gateway
    → destination. The gateway pair runs a per-(stream, src-rack,
    dst-rack) combining stream over the inter-rack hop: the first time a
    key crosses a rack pair it pays its full pair bytes; a repeated
    *aggregated* key folds into the already-forwarded combined record
    (zero marginal bytes); a repeated non-aggregated key still ships its
    value but not its key bytes. Intra-rack hops always carry full
    payload bytes. Broadcast crosses each remote rack once (via that
    rack's gateway) and fans out inside it.
    """

    name = "twolevel"

    def __init__(self, topology: Optional[Topology] = None):
        super().__init__(topology)
        #: (stream, src_rack, dst_rack) -> keys already forwarded
        self._seen: dict[tuple, set] = {}
        #: modeled bytes the combining gateways saved (introspection)
        self.inter_rack_bytes_saved = 0.0

    def plan(self, mode, partition, **kwargs):
        plan = super().plan(mode, partition, **kwargs)
        if plan.mode != BROADCAST or not self.topology.multi_rack:
            return plan
        # Rack-aware broadcast: first target in a remote rack pulls the
        # payload across via its gateway; rackmates fan out from there.
        root = kwargs["worker_index"]
        nbytes = kwargs.get("nbytes", 0.0)
        topo = self.topology
        src_rack = topo.rack_of(root)
        crossed: set[int] = set()
        deliveries = []
        for delivery in plan.deliveries:
            target = delivery.target
            rack = topo.rack_of(target)
            if rack == src_rack:
                deliveries.append(Delivery(target, [Hop(root, target, nbytes)]))
                continue
            gateway = topo.gateway(rack)
            hops = []
            if rack not in crossed:
                crossed.add(rack)
                hops.append(Hop(root, gateway, nbytes))
            if target != gateway:
                hops.append(Hop(gateway, target, nbytes))
            deliveries.append(Delivery(target, hops))
        plan.deliveries = deliveries
        return plan

    def _route(self, src, dst, mode, *, nbytes, records, aggregated, stream):
        topo = self.topology
        src_rack, dst_rack = topo.rack_of(src), topo.rack_of(dst)
        if not topo.multi_rack or src_rack == dst_rack:
            return [Hop(src, dst, nbytes)]
        inter = nbytes * self._combine_fraction(
            stream, src_rack, dst_rack, records, aggregated
        )
        self.inter_rack_bytes_saved += nbytes - inter
        src_gateway = topo.gateway(src_rack)
        dst_gateway = topo.gateway(dst_rack)
        hops = []
        if src != src_gateway:
            hops.append(Hop(src, src_gateway, nbytes))
        hops.append(Hop(src_gateway, dst_gateway, inter))
        if dst_gateway != dst:
            hops.append(Hop(dst_gateway, dst, inter))
        return hops

    def _combine_fraction(
        self,
        stream: Any,
        src_rack: int,
        dst_rack: int,
        records: Optional[list],
        aggregated: bool,
    ) -> float:
        """Fraction of the payload the inter-rack hop still has to carry."""
        if not records:
            return 1.0
        seen = self._seen.setdefault((stream, src_rack, dst_rack), set())
        total = 0
        kept = 0
        for key, value in records:
            size = pair_size(key, value)
            total += size
            if key not in seen:
                seen.add(key)
                kept += size
            elif not aggregated:
                # value still crosses; the key folds into the forwarded one
                kept += size - logical_sizeof(key)
        if total <= 0:
            return 1.0
        return kept / total


_FABRIC_CLASSES = {
    "direct": DirectFabric,
    "tree": TreeFabric,
    "twolevel": TwoLevelFabric,
    "rdma": RdmaFabric,
}


def make_fabric(name: str, topology: Optional[Topology] = None) -> ExchangeFabric:
    """Instantiate a fabric by name (one instance per engine run: the
    twolevel gateways keep per-run combining state)."""
    cls = _FABRIC_CLASSES.get(name)
    if cls is None:
        raise ValueError(f"unknown exchange fabric {name!r}; pick from {FABRICS}")
    return cls(topology)


def reroute_payload(
    fabric: ExchangeFabric,
    *,
    mode: str,
    src: int,
    num_workers: int,
    nbytes: float,
    partition: int = 0,
    target: Optional[int] = None,
) -> ExchangePlan:
    """Re-price one *historical* payload under a candidate fabric.

    This is the fabric layer's offline costing surface for the what-if
    engine: given a payload observed in a finished run's traffic matrix
    (its mode, source worker, byte size, and — for shuffles — the
    destination worker it actually reached), return the
    :class:`ExchangePlan` the candidate fabric would have produced, hop
    by hop, without executing anything. Shuffle and local payloads pin
    the historical destination via a constant ``owner_of``; broadcast
    payloads reconstruct the full fan-out from ``num_workers``.

    Limitations, by construction: the payload's key-value records are
    gone (journals keep bytes, not data), so a combining fabric prices
    the inter-rack hop at the full payload bytes — re-priced ``twolevel``
    plans are an upper bound on its wire bytes and callers should treat
    the combining savings as unmodelable offline.
    """
    if mode not in (SHUFFLE, LOCAL, BROADCAST):
        raise ValueError(f"unknown exchange mode {mode!r}")
    if mode == SHUFFLE:
        if target is None:
            raise ValueError("rerouting a shuffle payload requires its target")
        owner_of = lambda _p, _t=target: _t  # noqa: E731 - constant resolver
        return fabric.plan(
            SHUFFLE,
            partition,
            worker_index=src,
            num_workers=num_workers,
            owner_of=owner_of,
            nbytes=nbytes,
        )
    if mode == LOCAL:
        return fabric.plan(
            LOCAL, partition, worker_index=src, num_workers=num_workers, nbytes=nbytes
        )
    return fabric.plan(
        BROADCAST,
        BROADCAST_PARTITION,
        worker_index=src,
        num_workers=num_workers,
        nbytes=nbytes,
    )
