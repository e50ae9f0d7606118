"""Counterfactual what-if engine: journal-driven capacity planning.

A run journal (:mod:`repro.obs.journal`) carries the complete span DAG,
blame ledger and traffic matrix of a finished run. This module answers
"what would the makespan have been if ..." questions **offline** — no
re-execution — by applying a declarative :class:`Scenario` transform to
that evidence and recomputing the predicted makespan with optimistic /
pessimistic bounds:

``disk=0.5`` (bucket speeds)
    Per-bucket cost scaling. A speed multiplier ``s`` means the resource
    runs ``s``× as fast, so charged seconds dilate by ``1/s``. For
    scenarios composed *only* of bucket speeds the prediction is the
    dilated makespan of :func:`~repro.obs.journal.dilate_bucket_charges`
    — the transform every seeded regression is made with — computed by
    that transform's own fold and plan, so it is **bit-exact** against the
    executable ground truth (the self-auditing half of the tool).
``nodes=16`` (cluster rescaling)
    Node-count rescaling of parallel stages via the partition-ownership
    model: each job's per-node parallel work is split across the
    partitions that node owned (weighted by the per-partition bytes the
    traffic matrix recorded), re-binned to the owners a ``W'``-worker
    cluster would hash them to, and the busiest-worker ratio becomes the
    job's parallel time factor along the critical path.
``fabric=twolevel,racks=4`` (fabric swaps)
    Fabric byte-model re-pricing: every payload in the traffic matrix is
    re-routed through the candidate fabric's
    :func:`~repro.dataplane.fabrics.reroute_payload` plan and the wire-
    byte ratio scales the path's network time (plus the zero-copy serde
    rebate for ``rdma`` on HAMR).

The model is built in one pass over the journal, which may be a one-shot
stream (:func:`~repro.obs.journal.iter_journal`): the replay fold, the
traffic evidence and the dilation's :class:`~repro.obs.journal.DilationFold`
read the same records as they go by, and the model keeps none of them.
:func:`scenario_journal` is the one consumer that needs the decoded list,
because its output is the whole dilated journal.

Scenarios compose (``net=2.0,disk=0.5,nodes=16``): bucket dilations are
applied serially (exactly like the executable transform), structural
factors adjust the critical-path shares on top, and the optimistic /
pessimistic envelope is the component-wise min/max over the model's
variant set — extending :meth:`~repro.obs.critpath.CriticalPath.scaled`'s
Amdahl machinery from single-bucket zeroing to arbitrary composed
scenarios. An empty scenario predicts the journal's own makespan
*exactly* (identity invariant, asserted for all 8 workloads × 2 engines).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from repro.obs.blame import ATOMIC, BUCKETS, COMPUTE, DISK, NETWORK, STALL
from repro.obs.critpath import CriticalPath, from_tracer
from repro.obs.journal import DilationFold, dilate_bucket_charges
from repro.obs.replay import ReplayedRun, replay_records

WHATIF_SCHEMA = "repro.obs.whatif/v1"

#: buckets carried by node-attributed task work — they shrink (or grow)
#: when the worker count changes; startup is the serialized lead-in and
#: stays fixed
PARALLEL_BUCKETS = (COMPUTE, DISK, NETWORK, STALL, ATOMIC)

#: scenario-key shorthands
_ALIASES = {"net": "network", "cpu": "compute", "io": "disk"}

_EPS = 1e-12


class ScenarioError(ValueError):
    """A scenario expression is malformed or names an unknown knob."""


@dataclass(frozen=True)
class Scenario:
    """One declarative counterfactual, parsed from ``k=v,k=v`` text.

    ``bucket_speeds`` are *speed* multipliers (2.0 = twice as fast, 0.5 =
    half speed); they invert into time factors internally. ``nodes`` is
    the total cluster size (master + workers), matching ``--nodes``
    everywhere else in the harness. ``fabric``/``racks`` name the
    candidate exchange fabric and rack count.
    """

    bucket_speeds: tuple = ()  # sorted ((bucket, speed), ...)
    serde_speed: Optional[float] = None
    nodes: Optional[int] = None
    fabric: Optional[str] = None
    racks: Optional[int] = None

    @property
    def is_identity(self) -> bool:
        return (
            not self.bucket_speeds
            and self.serde_speed is None
            and self.nodes is None
            and self.fabric is None
            and self.racks is None
        )

    @property
    def bucket_only(self) -> bool:
        """True when the scenario is purely bucket speeds — i.e. exactly
        executable via the seeded-slowdown dilation transform."""
        return (
            bool(self.bucket_speeds)
            and self.serde_speed is None
            and self.nodes is None
            and self.fabric is None
            and self.racks is None
        )

    @property
    def speeds(self) -> dict[str, float]:
        return dict(self.bucket_speeds)

    @property
    def time_factors(self) -> dict[str, float]:
        """Bucket -> time dilation factor (the transform's input)."""
        return {b: 1.0 / s for b, s in self.bucket_speeds if s != 1.0}

    def describe(self) -> str:
        """Canonical scenario text (parse → describe is a fixpoint)."""
        parts = [f"{b}={s:g}" for b, s in self.bucket_speeds]
        if self.serde_speed is not None:
            parts.append(f"serde={self.serde_speed:g}")
        if self.nodes is not None:
            parts.append(f"nodes={self.nodes}")
        if self.fabric is not None:
            parts.append(f"fabric={self.fabric}")
        if self.racks is not None:
            parts.append(f"racks={self.racks}")
        return ",".join(parts) if parts else "identity"

    def with_knob(self, key: str, value) -> "Scenario":
        """The scenario with one knob replaced (sweep points)."""
        merged = parse_scenario(
            ",".join(p for p in (self.describe(), f"{key}={value}") if p != "identity")
        )
        return merged


def parse_scenario(text: Optional[str]) -> Scenario:
    """Parse ``net=2.0,disk=0.5,nodes=16`` into a :class:`Scenario`.

    Keys: the blame buckets (aliases ``net``/``cpu``/``io``), ``serde``,
    ``nodes``, ``fabric``, ``racks``. A later assignment to the same key
    wins. Empty / ``identity`` / ``none`` parse to the identity scenario.
    """
    from repro.dataplane.fabrics import FABRICS

    text = (text or "").strip()
    if not text or text in ("identity", "none"):
        return Scenario()
    speeds: dict[str, float] = {}
    serde: Optional[float] = None
    nodes: Optional[int] = None
    fabric: Optional[str] = None
    racks: Optional[int] = None
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = _ALIASES.get(key.strip().lower(), key.strip().lower())
        value = value.strip()
        if not sep or not value:
            raise ScenarioError(f"scenario term {part!r} is not key=value")
        if key == "nodes":
            nodes = _parse_count(key, value)
        elif key == "racks":
            racks = _parse_count(key, value)
        elif key == "fabric":
            if value not in FABRICS:
                raise ScenarioError(
                    f"unknown fabric {value!r}; pick from {FABRICS}"
                )
            fabric = value
        elif key == "serde":
            serde = _parse_speed(key, value)
        elif key in BUCKETS:
            speeds[key] = _parse_speed(key, value)
        else:
            raise ScenarioError(
                f"unknown scenario key {key!r}; pick from "
                f"{BUCKETS + ('serde', 'nodes', 'fabric', 'racks')}"
            )
    return Scenario(
        bucket_speeds=tuple(sorted(speeds.items())),
        serde_speed=serde,
        nodes=nodes,
        fabric=fabric,
        racks=racks,
    )


def _parse_speed(key: str, value: str) -> float:
    try:
        speed = float(value)
    except ValueError:
        raise ScenarioError(f"{key}: not a number: {value!r}") from None
    if speed <= 0.0:
        raise ScenarioError(f"{key}: speed multiplier must be positive: {value}")
    return speed


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ScenarioError(f"{key}: not an integer: {value!r}") from None


def _parse_count(key: str, value: str) -> int:
    """A ``nodes``/``racks`` value, in scenarios and sweeps alike: an integer
    no smaller than the cluster can be (a doubling sweep from 0 never ends)."""
    count = _parse_int(key, value)
    if key == "nodes" and count < 2:
        raise ScenarioError(f"nodes must be >= 2 (master + worker): {value}")
    if key == "racks" and count < 1:
        raise ScenarioError(f"racks must be >= 1: {value}")
    return count


def parse_sweep(text: str) -> tuple[str, list]:
    """Parse a sweep spec into ``(key, values)``.

    Forms: ``nodes=4..32`` (geometric doubling when the upper end is at
    least twice the lower — the shape of the paper's scaling figures),
    ``nodes=4..32:4`` (linear, inclusive, step 4), ``disk=0.25,0.5,2``
    (explicit list). ``key`` accepts the same names as scenarios.
    """
    key, sep, spec = text.partition("=")
    key = _ALIASES.get(key.strip().lower(), key.strip().lower())
    spec = spec.strip()
    if not sep or not spec:
        raise ScenarioError(f"sweep spec {text!r} is not key=range")
    if key not in BUCKETS + ("serde", "nodes", "racks"):
        raise ScenarioError(f"cannot sweep {key!r}")
    integral = key in ("nodes", "racks")
    conv = (lambda v: _parse_count(key, v)) if integral else (lambda v: _parse_speed(key, v))
    if ".." in spec:
        lo_text, _, rest = spec.partition("..")
        hi_text, _, step_text = rest.partition(":")
        lo, hi = conv(lo_text.strip()), conv(hi_text.strip())
        if hi < lo:
            raise ScenarioError(f"sweep range is empty: {spec!r}")
        values = []
        step_text = step_text.strip()
        if step_text:
            # a step is a difference, not a cluster size: no floor applies
            step = _parse_int(key, step_text) if integral else conv(step_text)
            if step <= 0:
                raise ScenarioError(f"sweep step must be positive: {spec!r}")
            v = lo
            while v <= hi + (_EPS if not integral else 0):
                values.append(v)
                v += step
        elif hi >= 2 * lo:
            v = lo
            while v <= hi + (_EPS if not integral else 0):
                values.append(v)
                v *= 2
        else:
            raise ScenarioError(
                f"sweep range {spec!r} needs an explicit step "
                "(upper end below 2x lower: doubling would be a single point)"
            )
        return key, values
    return key, [conv(v.strip()) for v in spec.split(",") if v.strip()]


# -- the model ----------------------------------------------------------------------


@dataclass
class Prediction:
    """One scenario's predicted makespan with its bound envelope."""

    scenario: Scenario
    base_makespan: float
    predicted: float
    optimistic: float
    pessimistic: float
    #: central per-component makespan deltas (seconds)
    components: dict[str, float] = field(default_factory=dict)
    #: model internals worth surfacing (per-job parallel factors, wire
    #: ratios, serde fraction)
    details: dict = field(default_factory=dict)
    #: bit-exact vs the executable transform (identity / bucket-only)
    exact: bool = False
    method: str = "model"  # identity | dilation | model

    @property
    def speedup(self) -> float:
        return self.base_makespan / max(self.predicted, _EPS)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.describe(),
            "predicted": self.predicted,
            "optimistic": self.optimistic,
            "pessimistic": self.pessimistic,
            "speedup": self.speedup,
            "exact": self.exact,
            "method": self.method,
            "components": {k: self.components[k] for k in sorted(self.components)},
            "details": _sorted_tree(self.details),
        }


def _sorted_tree(value):
    if isinstance(value, dict):
        return {k: _sorted_tree(value[k]) for k in sorted(value)}
    return value


class WhatIfModel:
    """Everything the scenario engine extracts from one run journal.

    Construction replays the journal (byte-identical fold) and
    precomputes: the critical path and its per-segment bucket shares, the
    per-job per-node parallel loads and partition-byte weights feeding
    the node-rescaling model, the payload groups feeding fabric
    re-pricing, the serde estimate for the zero-copy rebate, and the
    dilation fold that bucket-only scenarios are planned from.

    ``records`` is any iterable of decoded records, read once; the model
    keeps none of them.
    """

    def __init__(self, records: Iterable[dict]):
        self.dilation = DilationFold()
        # Traffic evidence from the x records: partition byte weights and
        # owners per job (the ownership model's input), per-node tx/rx,
        # payload groups for fabric re-pricing, and the serde estimate.
        # Folded by _fold_evidence as the replay reads the records.
        self.part_bytes: dict[str, dict[int, float]] = {}
        self.part_owner: dict[str, dict[int, int]] = {}
        self.node_tx_rx: dict[int, float] = {}
        self.payloads: list[tuple[str, int, list[int], float, int]] = []
        self.traffic_bytes = 0.0
        self.run: ReplayedRun = replay_records(self._fold_evidence(records))
        self.makespan = self.run.makespan
        self.engine = self.run.engine or "hamr"
        tracer = self.run.tracer
        self.cp: CriticalPath = from_tracer(tracer)

        table = tracer.table
        keysets, columns = table.keysets, table.charge_columns
        rows = table.finished()
        attribution = [table.attributions[table.attribution[r]] for r in rows]
        max_node = max((a[2] for a in attribution if a[2] is not None), default=0)

        # Per-bucket totals over *closed* spans: the exact seconds the
        # dilation transform would insert per unit factor.
        self.span_bucket_totals: dict[str, float] = {}
        # Per-job per-worker-node parallel loads (task-seconds of
        # node-attributed parallel-bucket work).
        self.node_loads: dict[str, dict[int, float]] = {}
        for row, (_name, cat, node, job, _flowlet) in zip(rows, attribution):
            buckets = keysets[table.charge_keys[row]]
            for bucket in sorted(buckets):
                sec = columns[bucket].data[row]
                self.span_bucket_totals[bucket] = (
                    self.span_bucket_totals.get(bucket, 0.0) + sec
                )
            if cat == "job" or job is None or not node:
                continue
            load = sum(
                columns[b].data[row] if b in buckets else 0.0 for b in PARALLEL_BUCKETS
            )
            if load > 0.0:
                per = self.node_loads.setdefault(job, {})
                per[node] = per.get(node, 0.0) + load

        # Path shares: (job, node, bucket->on-path seconds) per segment.
        self.path_shares: list[tuple[Optional[str], Optional[int], dict]] = [
            (seg.span.job, seg.span.node, seg.charges_share())
            for seg in self.cp.segments
        ]

        header_nodes = self.run.num_nodes
        nodes_seen = max(max_node, max(self.node_tx_rx, default=0))
        self.num_workers = (
            header_nodes - 1 if header_nodes else max(nodes_seen, 1)
        )
        self.rack_size = self.run.rack_size or 0

        from repro.cluster.spec import CostModel

        #: modeled serde seconds implied by the traffic the run moved —
        #: x-record bytes are already scale-adjusted, so the cost model's
        #: per-byte constant applies directly
        self.serde_seconds = self.traffic_bytes * CostModel().serde_per_byte
        compute_total = self.span_bucket_totals.get(COMPUTE, 0.0)
        self.serde_fraction = (
            min(1.0, self.serde_seconds / compute_total) if compute_total > 0 else 0.0
        )

    def _fold_evidence(self, records: Iterable[dict]) -> Iterator[dict]:
        """Pass ``records`` through, folding each into the dilation fold
        and every ``x`` record into the traffic evidence on the way."""
        pending: Optional[tuple[str, int, list[int], float, int]] = None
        for rec in records:
            self.dilation.add(rec)
            if rec["t"] == "x":
                pending = self._add_traffic(rec, pending)
            yield rec
        if pending is not None:
            self.payloads.append(pending)

    def _add_traffic(self, rec: dict, pending):
        """Fold one ``x`` record; returns the broadcast group still open
        (consecutive same-source, same-size broadcasts are one payload)."""
        src, dst, nbytes = rec["s"], rec["d"], rec["v"]
        mode = rec["m"]
        self.traffic_bytes += nbytes
        self.node_tx_rx[src] = self.node_tx_rx.get(src, 0.0) + nbytes
        self.node_tx_rx[dst] = self.node_tx_rx.get(dst, 0.0) + nbytes
        if mode == "shuffle" and rec.get("p") is not None:
            job, part = rec["j"], rec["p"]
            per = self.part_bytes.setdefault(job, {})
            per[part] = per.get(part, 0.0) + nbytes
            self.part_owner.setdefault(job, {})[part] = dst
        if mode == "broadcast":
            if (
                pending is not None
                and pending[0] == "broadcast"
                and pending[1] == src
                and pending[3] == nbytes
            ):
                pending[2].append(dst)
                return pending
            if pending is not None:
                self.payloads.append(pending)
            return ("broadcast", src, [dst], nbytes, 0)
        if pending is not None:
            self.payloads.append(pending)
        self.payloads.append((mode, src, [dst], nbytes, rec.get("p") or 0))
        return None

    # -- node rescaling ---------------------------------------------------------

    def parallel_factors(self, new_workers: int) -> dict[str, dict[str, float]]:
        """Per-job parallel time factors for a ``new_workers`` cluster.

        ``own`` (the central estimate) re-bins each node's load onto the
        partitions it owned, weighted by received bytes, and takes the
        busiest-worker ratio; ``raw`` is the ideal ``W/W'``; ``mean``
        interpolates by the run's observed load skew (a straggler-bound
        job barely moves). All are *time* factors (> 1 = slower).
        """
        old = self.num_workers
        ratio = old / new_workers if new_workers > 0 else 1.0
        out: dict[str, dict[str, float]] = {}
        for job in sorted(self.node_loads):
            loads = self.node_loads[job]
            busiest = max(loads.values())
            mean = sum(loads.values()) / len(loads)
            skew = mean / busiest if busiest > 0 else 1.0
            bins: dict[int, float] = {}
            owners = self.part_owner.get(job, {})
            weights = self.part_bytes.get(job, {})
            by_node: dict[int, list[int]] = {}
            for part in sorted(owners):
                by_node.setdefault(owners[part], []).append(part)
            for node in sorted(loads):
                load = loads[node]
                parts = by_node.get(node, ())
                total = sum(weights.get(p, 0.0) for p in parts)
                if parts and total > 0:
                    for part in parts:
                        dst = part % new_workers
                        bins[dst] = bins.get(dst, 0.0) + load * (
                            weights.get(part, 0.0) / total
                        )
                else:
                    dst = (node - 1) % new_workers
                    bins[dst] = bins.get(dst, 0.0) + load
            own = (
                max(bins.values()) / busiest if bins and busiest > 0 else ratio
            )
            if new_workers <= old:
                mean_factor = 1.0 + (ratio - 1.0) * skew
            else:
                mean_factor = ratio * skew + (1.0 - skew)
            out[job] = {"own": own, "raw": ratio, "mean": mean_factor}
        return out

    # -- fabric re-pricing ------------------------------------------------------

    def reprice_fabric(
        self, fabric_name: str, racks: Optional[int]
    ) -> dict[str, float]:
        """Wire-byte ratios under a candidate fabric.

        Re-routes every recorded payload through the candidate fabric's
        plan (master-touching payloads are kept as-is: exchanges are
        worker-to-worker) and returns ``total`` (new/old total wire
        bytes) and ``busiest`` (new/old busiest-node tx+rx bytes).
        """
        from repro.cluster.spec import ClusterSpec
        from repro.dataplane.fabrics import Topology, make_fabric, reroute_payload

        workers = self.num_workers
        recorded = ClusterSpec(num_nodes=workers + 1, rack_size=self.rack_size)
        rack_size = recorded.rack_size_for(fabric_name, racks)
        fabric = make_fabric(fabric_name, Topology(workers, rack_size))
        old_total = 0.0
        new_total = 0.0
        new_tx_rx: dict[int, float] = {}

        def book(node: int, nbytes: float) -> None:
            new_tx_rx[node] = new_tx_rx.get(node, 0.0) + nbytes

        for mode, src, targets, nbytes, partition in self.payloads:
            group_old = nbytes * len(targets)
            old_total += group_old
            if src == 0 or any(d == 0 for d in targets):
                new_total += group_old
                for dst in targets:
                    book(src, nbytes)
                    book(dst, nbytes)
                continue
            if mode == "broadcast":
                # One plan per full fan-out; a consecutive group longer
                # than the worker count is several payloads back to back.
                chunks, rest = divmod(len(targets), workers)
                for _ in range(max(chunks, 0)):
                    plan = reroute_payload(
                        fabric,
                        mode=mode,
                        src=src - 1,
                        num_workers=workers,
                        nbytes=nbytes,
                    )
                    new_total += plan.wire_bytes
                    for delivery in plan.deliveries:
                        for hop in delivery.hops:
                            book(hop.src + 1, hop.nbytes)
                            book(hop.dst + 1, hop.nbytes)
                if rest:
                    # Partial fan-out (mixed grouping): price unchanged.
                    new_total += nbytes * rest
                    for dst in targets[-rest:]:
                        book(src, nbytes)
                        book(dst, nbytes)
                continue
            plan = reroute_payload(
                fabric,
                mode=mode,
                src=src - 1,
                num_workers=workers,
                nbytes=nbytes,
                partition=partition,
                target=targets[0] - 1,
            )
            new_total += plan.wire_bytes
            for delivery in plan.deliveries:
                for hop in delivery.hops:
                    book(hop.src + 1, hop.nbytes)
                    book(hop.dst + 1, hop.nbytes)
        old_busiest = max(self.node_tx_rx.values(), default=0.0)
        new_busiest = max(new_tx_rx.values(), default=0.0)
        return {
            "total": new_total / old_total if old_total > 0 else 1.0,
            "busiest": new_busiest / old_busiest if old_busiest > 0 else 1.0,
        }

    # -- prediction -------------------------------------------------------------

    def _path_delta(
        self,
        g: dict[str, float],
        par_by_job: Optional[dict[str, float]],
        rho: Optional[float],
        serde_mult: float,
    ) -> float:
        """On-path makespan adjustment beyond the serialized dilation.

        For each path segment's bucket share the *effective* time factor
        is the dilation factor times the structural factors that apply
        (parallel rescale for node-attributed work, wire ratio for
        network, serde rebate inside compute); the serialized dilation
        ``g`` is already charged journal-wide, so only ``eff - g``
        remains to be added along the path.
        """
        sf = self.serde_fraction
        delta = 0.0
        for job, node, shares in self.path_shares:
            for bucket in sorted(shares):
                sec = shares[bucket]
                gb = g.get(bucket, 1.0)
                eff = gb
                if (
                    par_by_job is not None
                    and node
                    and job is not None
                    and bucket in PARALLEL_BUCKETS
                ):
                    eff *= par_by_job.get(job, 1.0)
                if rho is not None and bucket == NETWORK:
                    eff *= rho
                if bucket == COMPUTE and serde_mult != 1.0:
                    eff *= (1.0 - sf) + sf * serde_mult
                delta += sec * (eff - gb)
        return delta

    def predict(self, scenario: Scenario) -> Prediction:
        makespan = self.makespan
        if scenario.is_identity:
            return Prediction(
                scenario, makespan, makespan, makespan, makespan,
                exact=True, method="identity",
            )
        if scenario.bucket_only:
            # Executable scenario: the transform's own fold and plan give
            # the makespan of the journal --emit-journal writes, bit-exact.
            predicted = makespan
            if "makespan" in self.run.footer:
                predicted = self.dilation.plan(scenario.time_factors).remap(makespan)
            return Prediction(
                scenario, makespan, predicted, predicted, predicted,
                components={"buckets": predicted - makespan},
                exact=True, method="dilation",
            )

        g = scenario.time_factors
        components: dict[str, float] = {}
        details: dict = {}
        d_buckets = sum(
            (factor - 1.0) * self.span_bucket_totals.get(bucket, 0.0)
            for bucket, factor in sorted(g.items())
        )
        if g:
            components["buckets"] = d_buckets

        # Structural variant sets (central estimate first).
        par_sets: list[Optional[dict[str, float]]] = [None]
        par_central: Optional[dict[str, float]] = None
        anchors: list[float] = []
        if scenario.nodes is not None:
            new_workers = scenario.nodes - 1
            factors = self.parallel_factors(new_workers)
            par_central = {job: f["own"] for job, f in factors.items()}
            # The flat variant (None) stays in the set: a straggler-bound
            # job barely moves when the cluster shrinks, so "unchanged"
            # is a legitimate optimistic outcome of a scale-down.
            par_sets = [
                par_central,
                {job: f["raw"] for job, f in factors.items()},
                {job: f["mean"] for job, f in factors.items()},
                None,
            ]
            ratio = self.num_workers / new_workers if new_workers else 1.0
            if new_workers < self.num_workers:
                # Scale-down can at worst serialize onto the ideal ratio.
                anchors.append(makespan * ratio - makespan)
            elif new_workers > self.num_workers:
                # Scale-up is at best ideal, at worst flat (stragglers).
                anchors.append(makespan * ratio - makespan)
                anchors.append(0.0)
            details["parallel_factors"] = factors
            details["workers"] = {"old": self.num_workers, "new": new_workers}

        rho_variants: list[Optional[float]] = [None]
        rho_central: Optional[float] = None
        serde_central = 1.0
        serde_variants = [1.0]
        fabric_changed = scenario.fabric is not None and (
            scenario.fabric != self.run.spec.fabric or scenario.racks is not None
        )
        if fabric_changed or (scenario.racks is not None and scenario.fabric is None):
            fabric_name = scenario.fabric or self.run.spec.fabric
            ratios = self.reprice_fabric(fabric_name, scenario.racks)
            rho_central = ratios["total"]
            rho_variants = [rho_central, ratios["busiest"], 1.0]
            details["wire_ratio"] = ratios
            from repro.dataplane.fabrics import make_fabric

            target_serde = make_fabric(fabric_name).serde_factor
            if self.engine == "hamr" and target_serde != 1.0:
                # HAMR gates the per-payload serialization charge on the
                # fabric; Hadoop's serde sits off the exchange path.
                serde_central = target_serde
        if scenario.serde_speed is not None:
            serde_central *= 1.0 / scenario.serde_speed
        if serde_central != 1.0:
            serde_variants = [serde_central, 1.0]
            details["serde"] = {
                "fraction_of_compute": self.serde_fraction,
                "multiplier": serde_central,
            }

        central = self._path_delta(g, par_central, rho_central, serde_central)
        components["path"] = central
        candidates = [
            self._path_delta(g, par, rho, serde)
            for par in par_sets
            for rho in rho_variants
            for serde in serde_variants
        ]
        candidates.extend(anchors)
        # Serialized envelopes: at the extreme, *every* charged second of
        # the affected resource sat on the critical path — the widest
        # honest bound for the structural factors.
        if serde_central != 1.0:
            candidates.append(
                self._path_delta(g, par_central, rho_central, 1.0)
                + self.span_bucket_totals.get(COMPUTE, 0.0)
                * self.serde_fraction
                * (serde_central - 1.0)
                * g.get(COMPUTE, 1.0)
            )
        if rho_central is not None and rho_central != 1.0:
            candidates.append(
                self._path_delta(g, par_central, None, serde_central)
                + self.span_bucket_totals.get(NETWORK, 0.0)
                * (rho_central - 1.0)
                * g.get(NETWORK, 1.0)
            )
        predicted = makespan + d_buckets + central
        optimistic = makespan + d_buckets + min(candidates)
        pessimistic = makespan + d_buckets + max(candidates)
        optimistic = min(optimistic, predicted)
        pessimistic = max(pessimistic, predicted)
        predicted = max(predicted, _EPS)
        optimistic = max(optimistic, _EPS)
        pessimistic = max(pessimistic, predicted)
        return Prediction(
            scenario, makespan, predicted, optimistic, pessimistic,
            components=components, details=details, method="model",
        )

    def sweep(self, key: str, values: list, base: Scenario) -> list[Prediction]:
        """Predict the capacity curve over one swept knob."""
        return [self.predict(base.with_knob(key, value)) for value in values]


def scenario_journal(
    records: list[dict], scenario: Scenario, fold: Optional[DilationFold] = None
) -> list[dict]:
    """The dilated journal a bucket-only scenario predicts.

    ``seed_bucket_slowdown(records, b, 1/s)`` for a one-bucket scenario
    ``b=s``, byte for byte (``tests/test_whatif.py``). ``fold`` is the
    dilation fold of ``records`` when one exists (the model's), so the
    rewrite does not fold them again.
    """
    if not scenario.bucket_only:
        raise ScenarioError(
            "only bucket-speed scenarios are executable as journals "
            f"(got {scenario.describe()!r})"
        )
    return dilate_bucket_charges(records, scenario.time_factors, fold)


# -- validation harness -------------------------------------------------------------


@dataclass
class ValidationRow:
    """predicted-vs-actual for one scenario of the validation matrix."""

    prediction: Prediction
    actual: Optional[float]
    method: str  # identity | dilation | run | skipped

    @property
    def error(self) -> Optional[float]:
        if self.actual is None or self.actual <= 0:
            return None
        return (self.prediction.predicted - self.actual) / self.actual

    @property
    def within_bounds(self) -> Optional[bool]:
        if self.actual is None:
            return None
        # 0.1% of the base makespan of slack absorbs model noise the
        # envelope does not claim to capture (e.g. two-level gateway
        # combining, which is unmodelable offline).
        slack = max(1e-9, 1e-3 * self.prediction.base_makespan)
        lo = self.prediction.optimistic - slack
        hi = self.prediction.pessimistic + slack
        return lo <= self.actual <= hi

    def to_dict(self) -> dict:
        return {
            "scenario": self.prediction.scenario.describe(),
            "predicted": self.prediction.predicted,
            "optimistic": self.prediction.optimistic,
            "pessimistic": self.prediction.pessimistic,
            "actual": self.actual,
            "error": self.error,
            "within_bounds": self.within_bounds,
            "method": self.method,
        }


def validation_matrix(model: WhatIfModel) -> list[Scenario]:
    """The executable scenarios the tool self-audits against.

    Bucket dilations (exactly executable via the seeding transform), two
    node-count changes (half and quarter cluster), and two fabric swaps —
    each one the harness can actually run.
    """
    workers = model.num_workers
    half = max(2, round(workers / 2))
    quarter = max(2, round(workers / 4))
    scenarios = [
        Scenario(),
        parse_scenario("disk=0.5"),
        parse_scenario("network=0.25"),
        parse_scenario("compute=0.5"),
        parse_scenario(f"nodes={half + 1}"),
        parse_scenario(f"nodes={quarter + 1}"),
        parse_scenario("fabric=rdma"),
        parse_scenario(f"fabric=twolevel,racks={min(4, workers)}"),
    ]
    return scenarios


def validate(
    model: WhatIfModel,
    executor: Optional[Callable[[Scenario], Optional[float]]] = None,
    scenarios: Optional[list[Scenario]] = None,
) -> list[ValidationRow]:
    """Run the validation matrix: predict, execute, report the error.

    ``executor`` actually runs one scenario and returns the measured
    makespan (None = cannot execute); without one, only the identity row
    carries an actual and every other row is ``skipped``. The identity
    row's invariant — the empty scenario predicts the journal's own
    makespan *exactly* — is checked against the journal itself, no
    execution needed.
    """
    rows: list[ValidationRow] = []
    for scenario in scenarios if scenarios is not None else validation_matrix(model):
        prediction = model.predict(scenario)
        if scenario.is_identity:
            rows.append(ValidationRow(prediction, model.makespan, "identity"))
            continue
        actual = executor(scenario) if executor is not None else None
        rows.append(
            ValidationRow(
                prediction,
                actual,
                ("dilation" if scenario.bucket_only else "run")
                if actual is not None
                else "skipped",
            )
        )
    return rows


# -- serialization / rendering ------------------------------------------------------


def whatif_dict(
    model: WhatIfModel,
    predictions: list[Prediction],
    sweep: Optional[tuple[str, list[Prediction]]] = None,
    validation: Optional[list[ValidationRow]] = None,
) -> dict:
    """Deterministic JSON payload (schema ``repro.obs.whatif/v1``)."""
    run = model.run
    payload: dict = {
        "schema": WHATIF_SCHEMA,
        "workload": run.workload,
        "engine": run.engine,
        "fabric": run.spec.fabric,
        "data_size": run.data_size,
        "fidelity": run.fidelity,
        "nodes": model.num_workers + 1,
        "rack_size": model.rack_size,
        "base_makespan": model.makespan,
        "partial": run.partial,
        "scenarios": [p.to_dict() for p in predictions],
    }
    if sweep is not None:
        key, points = sweep
        payload["sweep"] = {
            "key": key,
            "points": [p.to_dict() for p in points],
        }
    if validation is not None:
        payload["validation"] = [row.to_dict() for row in validation]
    return payload


def render_whatif(model: WhatIfModel, predictions: list[Prediction]) -> str:
    """ASCII scenario table."""
    from repro.evaluation.report import render_table

    run = model.run
    title = (
        f"== What-if — {run.label} ({run.data_size}) on {run.engine} — "
        f"base makespan {model.makespan:.3f}s, "
        f"{model.num_workers + 1} nodes =="
    )
    rows = []
    for p in predictions:
        rows.append(
            [
                p.scenario.describe(),
                f"{p.predicted:.3f}",
                f"{p.optimistic:.3f}",
                f"{p.pessimistic:.3f}",
                f"{p.speedup:.2f}x",
                "exact" if p.exact else "model",
            ]
        )
    table = render_table(
        ["scenario", "predicted s", "optimistic", "pessimistic", "speedup", "basis"],
        rows,
        title="Scenarios",
    )
    return f"{title}\n\n{table}"


def render_sweep(
    model: WhatIfModel, key: str, points: list[Prediction], width: int = 40
) -> str:
    """Capacity curve: one row per swept value, with an ASCII bar scaled
    to the largest pessimistic makespan (the shape of fig3a/fig3b)."""
    from repro.evaluation.report import render_table

    top = max((p.pessimistic for p in points), default=0.0)
    rows = []
    for p in points:
        value = dict(
            [term.split("=") for term in p.scenario.describe().split(",")]
        ).get(key, "?")
        bar = "#" * max(1, round(width * p.predicted / top)) if top > 0 else ""
        rows.append(
            [
                f"{key}={value}",
                f"{p.predicted:.3f}",
                f"{p.optimistic:.3f}",
                f"{p.pessimistic:.3f}",
                bar,
            ]
        )
    return render_table(
        [key, "predicted s", "optimistic", "pessimistic", "makespan"],
        rows,
        title=f"Capacity curve — sweep {key}",
    )


def render_validation(rows: list[ValidationRow]) -> str:
    """Predicted-vs-actual table with the per-scenario error."""
    from repro.evaluation.report import render_table

    table_rows = []
    for row in rows:
        error = row.error
        table_rows.append(
            [
                row.prediction.scenario.describe(),
                f"{row.prediction.predicted:.3f}",
                f"{row.actual:.3f}" if row.actual is not None else "-",
                f"{100.0 * error:+.1f}%" if error is not None else "-",
                {True: "yes", False: "NO", None: "-"}[row.within_bounds],
                row.method,
            ]
        )
    return render_table(
        ["scenario", "predicted s", "actual s", "error", "in bounds", "method"],
        table_rows,
        title="Validation (predicted vs executed)",
    )
