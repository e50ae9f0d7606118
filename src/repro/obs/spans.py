"""Span-based tracing over virtual time.

A :class:`Span` brackets one activity on the virtual clock — a loader /
map / partial-reduce / reduce task, a spill, a shuffle transfer, a
flow-control stall — with node / flowlet / job attribution and
parent-child links. The :class:`Tracer` is the single observability
handle threaded through the stack: it owns the spans, the
:class:`~repro.obs.metrics.MetricsRegistry` and the
:class:`~repro.obs.blame.BlameLedger`.

Tracing is opt-out cheap: a disabled tracer records no spans, no metrics
and no blame — every entry point returns immediately (``span()`` hands
back a shared no-op span), so the benchmark harnesses pay no measurable
overhead.
"""

from __future__ import annotations

import json
from typing import Any, Optional, TYPE_CHECKING

from repro.obs.blame import BlameLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TimelineSampler, TrafficMatrix, merge_traffic_totals

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class Span:
    """One attributed interval of virtual time.

    Usable as a context manager inside simulation generator-processes:
    the body's ``yield``s advance the virtual clock, and ``__exit__``
    reads the clock again — no wall time is involved anywhere.
    """

    __slots__ = (
        "tracer", "span_id", "name", "cat", "start", "end",
        "node", "job", "flowlet", "parent_id", "args", "charges",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        name: str,
        cat: str,
        start: float,
        node: Optional[int] = None,
        job: Optional[str] = None,
        flowlet: Optional[str] = None,
        parent_id: Optional[int] = None,
        args: Optional[dict] = None,
    ):
        self.tracer = tracer
        self.span_id = span_id
        self.name = name
        self.cat = cat
        self.start = start
        self.end: Optional[float] = None
        self.node = node
        self.job = job
        self.flowlet = flowlet
        self.parent_id = parent_id
        self.args = args or {}
        #: blame bucket -> virtual seconds charged against this span
        self.charges: dict[str, float] = {}

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start

    def child(self, name: str, cat: Optional[str] = None, **args: Any) -> "Span":
        """Open a child span inheriting this span's attribution."""
        return self.tracer.span(
            name,
            cat if cat is not None else self.cat,
            node=self.node,
            job=self.job,
            flowlet=self.flowlet,
            parent=self,
            **args,
        )

    def finish(self, **args: Any) -> "Span":
        if self.end is not None:
            raise ValueError(f"span {self.name!r} finished twice")
        self.end = self.tracer.sim.now
        if args:
            self.args.update(args)
        self.tracer._span_finished(self)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if self.end is None:
            self.finish()
            if exc_type is not None:
                self.args["error"] = exc_type.__name__

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "cat": self.cat,
            "start": self.start,
            "end": self.end,
            "node": self.node,
            "job": self.job,
            "flowlet": self.flowlet,
            "parent": self.parent_id,
            "args": {k: self.args[k] for k in sorted(self.args)},
            "charges": {k: self.charges[k] for k in sorted(self.charges)},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.end:g}" if self.end is not None else "..."
        return f"<Span {self.cat}:{self.name} [{self.start:g}, {end}]>"


class _NullSpan:
    """The do-nothing span a disabled tracer hands out (a shared singleton)."""

    __slots__ = ()

    name = ""
    cat = ""
    node = None
    job = None
    flowlet = None
    open = False
    span_id = 0

    def child(self, _name: str, _cat: Optional[str] = None, **_args: Any) -> "_NullSpan":
        return self

    def finish(self, **_args: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> None:
        return None


NULL_SPAN = _NullSpan()

#: causal edge kinds — how one span's completion enabled another span
EDGE_PRODUCE = "produce"  # producer task -> the ship/spill it fed
EDGE_SHUFFLE = "shuffle"  # ship/fetch transfer -> the task consuming the data
EDGE_SPILL = "spill"  # spill write -> its read-back
EDGE_BARRIER = "barrier"  # barrier input (collect/fetch/read-back) -> gated work
EDGE_STALL = "stall"  # consumer task freeing inbox space -> the stalled producer

EDGE_KINDS = (EDGE_PRODUCE, EDGE_SHUFFLE, EDGE_SPILL, EDGE_BARRIER, EDGE_STALL)


class SpanEdge:
    """One causal dependency between two spans (by span id)."""

    __slots__ = ("src", "dst", "kind")

    def __init__(self, src: int, dst: int, kind: str):
        self.src = src
        self.dst = dst
        self.kind = kind

    def to_list(self) -> list:
        return [self.src, self.dst, self.kind]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SpanEdge {self.src} -{self.kind}-> {self.dst}>"


class Tracer:
    """The unified observability handle: spans + metrics + blame.

    One tracer per cluster; both engines and the substrate report into it.
    ``enabled=False`` (the default) turns every recording call into an
    immediate no-op.

    ``journal`` (a :class:`~repro.obs.journal.JournalWriter`) records
    every event — span open/close, edge, charge, metric mutation,
    telemetry sample, traffic charge — as it is emitted, in order, so
    :mod:`repro.obs.replay` can rebuild this tracer byte-identically.
    It must be attached here, at construction, because cluster wiring
    captures metric handles in closures immediately afterwards.
    """

    def __init__(self, sim: "Simulator", enabled: bool = False, journal=None):
        if journal is not None and not enabled:
            raise ValueError("a journal requires an enabled tracer")
        self.sim = sim
        self.enabled = enabled
        self.journal = journal
        self.spans: list[Span] = []
        self.edges: list[SpanEdge] = []
        self.metrics = MetricsRegistry(journal=journal)
        self.blame = BlameLedger()
        #: per-node resource timelines (counter tracks over virtual time)
        self.timeline = TimelineSampler(sim, enabled, journal=journal)
        #: per-job N×N exchange traffic matrices
        self._traffic: dict[str, TrafficMatrix] = {}
        #: optional node-id → rack map (set by the cluster when a rack
        #: topology is configured); matrices created after this is set
        #: gate inter-rack bytes in their totals
        self.racks: Optional[dict[int, int]] = None
        self._next_id = 0
        #: spans closed so far (cheap progress signal for the watchdog)
        self.closed_spans = 0

    # -- spans -----------------------------------------------------------------

    def span(
        self,
        name: str,
        cat: str,
        node: Optional[int] = None,
        job: Optional[str] = None,
        flowlet: Optional[str] = None,
        parent: Optional[Span] = None,
        **args: Any,
    ):
        """Open a span at the current virtual time; close via ``with`` or
        ``finish()``."""
        if not self.enabled:
            return NULL_SPAN
        self._next_id += 1
        span = Span(
            self,
            self._next_id,
            name,
            cat,
            self.sim.now,
            node=node,
            job=job,
            flowlet=flowlet,
            parent_id=parent.span_id if isinstance(parent, Span) else None,
            args=args or None,
        )
        self.spans.append(span)
        if self.journal is not None:
            record = {
                "t": "so", "id": span.span_id, "n": name, "c": cat,
                "st": span.start,
            }
            if node is not None:
                record["nd"] = node
            if job is not None:
                record["j"] = job
            if flowlet is not None:
                record["f"] = flowlet
            if span.parent_id is not None:
                record["p"] = span.parent_id
            if args:
                record["a"] = args
            self.journal.emit(record)
        return span

    def finished_spans(self, cat: Optional[str] = None) -> list[Span]:
        return [
            s for s in self.spans
            if s.end is not None and (cat is None or s.cat == cat)
        ]

    def _span_finished(self, span: Span) -> None:
        """Bookkeeping hook at span close: per-category duration histogram."""
        if self.journal is not None:
            # The close record carries the *final* args dict, so mutations
            # between open and finish are captured; the histogram observe
            # below journals itself via the metric hook.
            record: dict = {"t": "sc", "id": span.span_id, "end": span.end}
            if span.args:
                record["a"] = span.args
            self.journal.emit(record)
        self.closed_spans += 1
        self.metrics.histogram("span.seconds", cat=span.cat).observe(span.duration)

    # -- causal edges ------------------------------------------------------------

    def edge(self, src, dst, kind: str) -> None:
        """Record a causal dependency ``src -> dst`` between two spans.

        ``src``/``dst`` may be :class:`Span` objects or raw span ids (ints,
        as carried on bins and spill runs). Null spans, ``None`` and id 0
        are silently dropped so call sites need no enabled-checks.
        """
        if not self.enabled:
            return
        src_id = src.span_id if isinstance(src, Span) else src
        dst_id = dst.span_id if isinstance(dst, Span) else dst
        if not src_id or not dst_id or not isinstance(src_id, int) or not isinstance(dst_id, int):
            return
        if kind not in EDGE_KINDS:
            raise ValueError(f"unknown edge kind {kind!r}; pick from {EDGE_KINDS}")
        if self.journal is not None:
            self.journal.emit({"t": "e", "s": src_id, "d": dst_id, "k": kind})
        self.edges.append(SpanEdge(src_id, dst_id, kind))

    # -- blame -----------------------------------------------------------------

    def charge(
        self,
        job: str,
        bucket: str,
        seconds: float,
        node: Optional[int] = None,
        span: Optional[Span] = None,
    ) -> None:
        """Attribute ``seconds`` of a task's waiting to a blame bucket.

        With ``span`` the charge is additionally attributed to that span,
        giving the critical-path analysis a per-span bucket decomposition.
        """
        if not self.enabled:
            return
        self.blame.charge(job, bucket, seconds, node=node)
        if self.journal is not None and seconds > 0.0:
            # Zero charges are state no-ops (the ledger drops them), so
            # only state-changing charges are journaled; validation above
            # keeps invalid charges out of the journal.
            record: dict = {"t": "b", "j": job, "bk": bucket, "v": seconds}
            if node is not None:
                record["nd"] = node
            if isinstance(span, Span):
                record["sp"] = span.span_id
            self.journal.emit(record)
        if isinstance(span, Span) and seconds > 0.0:
            span.charges[bucket] = span.charges.get(bucket, 0.0) + seconds

    # -- telemetry ---------------------------------------------------------------

    def traffic(self, job: str) -> TrafficMatrix:
        """The (get-or-create) exchange traffic matrix for one job."""
        matrix = self._traffic.get(job)
        if matrix is None:
            if self.journal is not None:
                # Declare creation: a matrix that is never charged still
                # appears (empty) in live exports, so replay must create
                # it at the same point. The rack map rides along so a
                # replayed matrix gates the same inter-rack totals.
                record: dict[str, Any] = {"t": "tm", "j": job}
                if self.racks:
                    record["rk"] = {
                        str(node): rack for node, rack in sorted(self.racks.items())
                    }
                self.journal.emit(record)
            matrix = self._traffic[job] = TrafficMatrix(
                job, journal=self.journal, racks=self.racks
            )
        return matrix

    def traffic_matrices(self) -> list[TrafficMatrix]:
        """All per-job matrices, in deterministic job-name order."""
        return [self._traffic[job] for job in sorted(self._traffic)]

    def traffic_totals(self) -> dict[str, float]:
        """Drift-gated traffic summary merged over every traced job."""
        return merge_traffic_totals(self.traffic_matrices())

    # -- metrics convenience (no-ops when disabled) ------------------------------

    def count(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        if self.enabled:
            self.metrics.counter(name, **labels).inc(amount)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        if self.enabled:
            self.metrics.histogram(name, **labels).observe(value)

    # -- stage progress (live monitoring) ----------------------------------------

    def progress_total(self, job: str, stage: str, amount: float = 1.0) -> None:
        """Declare ``amount`` more units of work for ``job``/``stage``.

        Engines call this when work becomes known (map splits planned,
        flowlet instances dispatched); :mod:`repro.obs.live` divides the
        matching ``progress.done`` counter by this gauge for per-stage
        completion fractions.
        """
        if self.enabled:
            self.metrics.gauge("progress.total", job=job, stage=stage).add(amount)

    def progress_done(self, job: str, stage: str, amount: float = 1.0) -> None:
        """Mark ``amount`` units of ``job``/``stage`` work complete."""
        if self.enabled:
            self.metrics.counter("progress.done", job=job, stage=stage).inc(amount)

    # -- export ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Deterministic JSON-serializable dump of the whole trace."""
        return {
            "schema": "repro.obs.trace/v2",
            "spans": [s.to_dict() for s in self.spans],
            "edges": sorted(
                (e.to_list() for e in self.edges),
                key=lambda e: (e[0], e[1], e[2]),
            ),
            "metrics": self.metrics.snapshot(),
            "blame": self.blame.snapshot(),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def to_chrome_trace(
        self, time_unit: float = 1e6, hostprof: Optional[dict] = None
    ) -> dict:
        """Chrome ``chrome://tracing`` / Perfetto trace-event JSON.

        Finished spans become complete ``"X"`` events sorted by timestamp
        (``ts`` monotone). ``pid`` is the node id, ``tid`` a per-node lane
        such that overlapping spans never share a row. Causal span edges
        become flow events (``"s"``/``"f"`` pairs), so producer→consumer
        arrows render in the Perfetto UI. Virtual seconds map to trace
        microseconds via ``time_unit``.

        ``hostprof`` (a ``repro.obs.hostprof/v1`` snapshot from the same
        run) adds the second clock as a counter track: cumulative host
        milliseconds sampled against virtual time, so model-time and
        real-time progress render side by side.
        """
        spans = sorted(
            self.finished_spans(), key=lambda s: (s.start, s.span_id)
        )
        lanes = assign_lanes(spans)
        by_id = {s.span_id: s for s in spans}
        events = []
        for span in spans:
            # pid -1 for node-less spans matches assign_lanes' keying, so
            # they can never collide with a real node's lanes.
            pid = span.node if span.node is not None else -1
            args = {"job": span.job, "flowlet": span.flowlet}
            args.update({k: span.args[k] for k in sorted(span.args)})
            events.append(
                {
                    "name": span.name,
                    "cat": span.cat,
                    "ph": "X",
                    # integer microseconds, dur from the rounded endpoints:
                    # rounding is monotone and the arithmetic exact, so spans
                    # that don't overlap in virtual time can't overlap here
                    # (float scaling is off by an ulp exactly often enough).
                    "ts": round(span.start * time_unit),
                    "dur": round(span.end * time_unit) - round(span.start * time_unit),
                    "pid": pid,
                    "tid": lanes[span.span_id],
                    "args": {k: v for k, v in args.items() if v is not None},
                }
            )
        # Flow events: one s/f pair per causal edge between finished spans.
        # The start binds to the end of the source slice ("bp": "e" on the
        # finish re-binds to the enclosing slice at the destination's start).
        flow_id = 0
        for edge in sorted(self.edges, key=lambda e: (e.src, e.dst, e.kind)):
            src, dst = by_id.get(edge.src), by_id.get(edge.dst)
            if src is None or dst is None:
                continue
            flow_id += 1
            common = {"name": edge.kind, "cat": f"flow.{edge.kind}", "id": flow_id}
            events.append(
                {
                    **common,
                    "ph": "s",
                    "ts": round(src.end * time_unit),
                    "pid": src.node if src.node is not None else -1,
                    "tid": lanes[src.span_id],
                }
            )
            # The arrow lands where the dependency resolved: the destination
            # span's start, or the source's end for edges that resolve
            # mid-span (stall wait-for edges).
            f_ts = min(max(dst.start, src.end), dst.end)
            events.append(
                {
                    **common,
                    "ph": "f",
                    "bp": "e",
                    "ts": round(f_ts * time_unit),
                    "pid": dst.node if dst.node is not None else -1,
                    "tid": lanes[dst.span_id],
                }
            )
        # Counter tracks ("C" events): per-node resource timelines render as
        # Perfetto counter lanes alongside the span rows. Step tracks emit
        # one sample per recorded level change; rate tracks emit the running
        # cumulative weight at each transfer's finish time.
        for (track, node), samples in sorted(self.timeline._steps.items()):
            for t, value in samples:
                events.append(
                    {
                        "name": f"telemetry.{track}",
                        "ph": "C",
                        "ts": round(t * time_unit),
                        "pid": node,
                        "tid": 0,
                        "args": {track: round(value, 6)},
                    }
                )
        for (track, node), intervals in sorted(self.timeline._intervals.items()):
            cumulative = 0.0
            for _start, finish, weight in sorted(intervals):
                cumulative += weight
                events.append(
                    {
                        "name": f"telemetry.{track}",
                        "ph": "C",
                        "ts": round(finish * time_unit),
                        "pid": node,
                        "tid": 0,
                        "args": {track: round(cumulative, 6)},
                    }
                )
        # Second clock track: cumulative host ms against virtual time (the
        # dual-clock view — a steep segment is a virtual interval that cost
        # disproportionate real compute). pid -1 keeps it off node lanes.
        if hostprof is not None:
            for t, ns in hostprof.get("clock", []):
                events.append(
                    {
                        "name": "hostclock.cumulative_ms",
                        "ph": "C",
                        "ts": round(t * time_unit),
                        "pid": -1,
                        "tid": 0,
                        "args": {"host_ms": round(ns / 1e6, 3)},
                    }
                )
        # Global ts order (required by the format); stable tiebreak keeps the
        # output byte-identical across runs.
        events.sort(
            key=lambda e: (
                e["ts"], e["ph"] != "X", e.get("id", 0), e["pid"], e["tid"],
                e["name"],
            )
        )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def assign_lanes(spans: list[Span]) -> dict[int, int]:
    """Greedy per-node lane assignment: span id -> first free lane index.

    Two spans on the same node overlap iff they share a lane's time range;
    the greedy first-fit over start-ordered spans guarantees overlapping
    spans get distinct lanes (used for both Chrome ``tid``s and the ASCII
    Gantt rows).
    """
    lanes: dict[int, int] = {}
    busy_until: dict[int, list[float]] = {}  # node -> per-lane last end time
    for span in sorted(spans, key=lambda s: (s.start, s.span_id)):
        node = span.node if span.node is not None else -1
        node_lanes = busy_until.setdefault(node, [])
        for index, end in enumerate(node_lanes):
            if end <= span.start:
                node_lanes[index] = span.end
                lanes[span.span_id] = index
                break
        else:
            node_lanes.append(span.end)
            lanes[span.span_id] = len(node_lanes) - 1
    return lanes
