"""Span-based tracing over virtual time.

A :class:`Span` brackets one activity on the virtual clock — a loader /
map / partial-reduce / reduce task, a spill, a shuffle transfer, a
flow-control stall — with node / flowlet / job attribution and
parent-child links. The :class:`Tracer` is the single observability
handle threaded through the stack: it owns the spans and their causal
edges (one :class:`SpanTable` of typed columns; a :class:`Span` is a
handle on one row), the :class:`~repro.obs.metrics.MetricsRegistry` and
the :class:`~repro.obs.blame.BlameLedger`.

Tracing is opt-out cheap: a disabled tracer records no spans, no metrics
and no blame — every entry point returns immediately (``span()`` hands
back a shared no-op span), so the benchmark harnesses pay no measurable
overhead.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Sequence
from typing import Any, Iterable, Iterator, Optional, TYPE_CHECKING

from repro.obs.blame import BlameLedger
from repro.obs.columns import Column, IdColumn
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TimelineSampler, TrafficMatrix, merge_traffic_totals

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class SpanTable:
    """Every span and causal edge of one tracer, as parallel columns.

    Row ``i`` is the ``i``-th span opened. ``start``/``end`` are float
    columns (``closed`` says which ends are set), ``ids``/``parent`` int
    columns. A span's name, category, node, job and flowlet are one code
    into ``attributions``, the intern table of the distinct
    ``(name, cat, node, job, flowlet)`` tuples (a run has a few hundred);
    its args are a code into ``keysets`` (the arg names, in insertion
    order) plus a tuple of values; its charges a code into ``keysets``
    (the bucket names, in first-charge order) plus one float column per
    bucket. Edges are three columns: source id, destination id, and a
    code into ``kinds``.

    Views that scan every span (the Chrome export, the critical path, the
    what-if totals, the report's Gantt) read these columns directly; a
    :class:`Span` is a handle on one row.
    """

    def __init__(self) -> None:
        self.ids = Column("q")
        self.start = Column("d")
        self.end = Column("d")
        self.closed = bytearray()
        self.parent = IdColumn()
        self.attribution = array("i")
        self.attributions: list[tuple] = []
        self._attribution_codes: dict[tuple, int] = {}
        self.arg_keys = array("i")
        #: per row: the args dict while the span is open, then the values
        #: in keyset order
        self.arg_values: list = []
        self.charge_keys = array("i")
        #: blame bucket -> virtual seconds charged, by row (rows whose
        #: keyset lacks the bucket hold padding)
        self.charge_columns: dict[str, Column] = {}
        self.edge_src = Column("q")
        self.edge_dst = Column("q")
        self.edge_kind = array("i")
        self.kinds: list = []
        self._kind_codes: dict = {}
        self.keysets: list[tuple] = [()]
        self._keyset_codes: dict[tuple, int] = {(): 0}
        #: (keyset code, bucket) -> code of the keyset with it appended
        self._grown: dict[tuple[int, str], int] = {}

    def __len__(self) -> int:
        return len(self.closed)

    # -- intern tables -------------------------------------------------------------

    def _kind_code(self, kind: Any) -> int:
        """``kind``'s index in ``kinds`` (see :meth:`open` for sharing)."""
        if type(kind) in _INTERNED:
            code = self._kind_codes.get(kind)
            if code is not None:
                return code
            self._kind_codes[kind] = len(self.kinds)
        self.kinds.append(kind)
        return len(self.kinds) - 1

    def _keyset(self, keys: tuple) -> int:
        code = self._keyset_codes.get(keys)
        if code is None:
            code = self._keyset_codes[keys] = len(self.keysets)
            self.keysets.append(keys)
        return code

    # -- rows ----------------------------------------------------------------------

    def open(
        self, span_id: int, name: str, cat: str, start: float,
        node: Optional[int], job: Optional[str], flowlet: Optional[str],
        parent: Optional[int], args: Optional[dict],
    ) -> int:
        """Append an open span; returns its row.

        Attributions made of strings, ints and None are shared (equal
        values of those types are the same type, so one stored tuple
        stands for all of them); any other gets a row of its own, so it
        reads back as the very objects that were recorded. A float always
        fits a ``"d"`` column's storage (array or list) as it is.
        """
        self.ids.append(span_id)
        self.start.append(start)
        self.end.data.append(0.0)  # a float fits a "d" column's storage as it is
        self.closed.append(0)
        self.parent.append(parent)
        key = (name, cat, node, job, flowlet)
        interned = _INTERNED
        code = None
        if (
            type(name) in interned and type(cat) in interned and type(node) in interned
            and type(job) in interned and type(flowlet) in interned
        ):
            code = self._attribution_codes.get(key)
            if code is None:
                code = self._attribution_codes[key] = len(self.attributions)
                self.attributions.append(key)
        if code is None:
            code = len(self.attributions)
            self.attributions.append(key)
        self.attribution.append(code)
        # args stay the caller's dict until the span closes (finish() may
        # add to them), then fold into a keyset code plus a value tuple
        self.arg_keys.append(0)
        self.arg_values.append(args if args else ())
        self.charge_keys.append(0)
        return len(self.closed) - 1

    def close(self, row: int, end: float, args: Optional[dict] = None) -> None:
        """Close the row at ``end``; ``args``, if any, replace its args."""
        if type(end) is float:  # a float fits a "d" column's storage as it is
            self.end.data[row] = end
        else:
            self.end[row] = end
        self.closed[row] = 1
        if args:
            self.set_args(row, args)
        elif type(self.arg_values[row]) is dict:
            self.set_args(row, self.arg_values[row])

    def args(self, row: int) -> dict:
        values = self.arg_values[row]
        if type(values) is dict:
            return dict(values)
        return dict(zip(self.keysets[self.arg_keys[row]], values))

    def set_args(self, row: int, args: dict) -> None:
        self.arg_keys[row] = self._keyset(tuple(args))
        self.arg_values[row] = tuple(args.values())

    def update_args(self, row: int, args: dict) -> dict:
        """Merge ``args`` into the row's, as ``dict.update``; returns the
        row's args after the merge (an open span's own dict)."""
        values = self.arg_values[row]
        if type(values) is dict:
            values.update(args)
            return values
        merged = self.args(row)
        merged.update(args)
        self.set_args(row, merged)
        return merged

    def charge(self, row: int, bucket: str, seconds: float) -> None:
        """Add ``seconds`` to the row's ``bucket``, as
        ``charges[bucket] = charges.get(bucket, 0.0) + seconds`` would."""
        column = self.charge_columns.get(bucket)
        if column is None:
            column = self.charge_columns[bucket] = Column("d")
        data = column.data
        if len(data) <= row:
            column.pad(len(self.closed))
            data = column.data
        keys = self.charge_keys[row]
        if bucket in self.keysets[keys]:
            total = data[row] + seconds
        else:
            total = 0.0 + seconds
            grown = self._grown.get((keys, bucket))
            if grown is None:
                grown = self._grown[keys, bucket] = self._keyset(self.keysets[keys] + (bucket,))
            self.charge_keys[row] = grown
        if type(total) is float:  # a float fits a "d" column's storage as it is
            data[row] = total
        else:
            column[row] = total

    def charges(self, row: int) -> dict[str, float]:
        """The row's bucket -> seconds, in first-charge order."""
        columns = self.charge_columns
        return {b: columns[b].data[row] for b in self.keysets[self.charge_keys[row]]}

    def finished(self, cat: Optional[str] = None) -> list[int]:
        """Rows of closed spans (of category ``cat``), in open order."""
        rows = [row for row, closed in enumerate(self.closed) if closed]
        if cat is None:
            return rows
        attributions, codes = self.attributions, self.attribution
        return [row for row in rows if attributions[codes[row]][1] == cat]

    def lane_rows(self, rows: Iterable[int]) -> list[tuple]:
        """``(start, id, node, end)`` per row, the input of :func:`lanes_of`."""
        starts, ids, ends = self.start.data, self.ids.data, self.end.data
        attributions, codes = self.attributions, self.attribution
        return [(starts[r], ids[r], attributions[codes[r]][2], ends[r]) for r in rows]

    def row_dict(self, row: int) -> dict:
        name, cat, node, job, flowlet = self.attributions[self.attribution[row]]
        return {
            "id": self.ids.data[row],
            "name": name,
            "cat": cat,
            "start": self.start.data[row],
            "end": self.end.data[row] if self.closed[row] else None,
            "node": node,
            "job": job,
            "flowlet": flowlet,
            "parent": self.parent[row],
            "args": dict(sorted(self.args(row).items())),
            "charges": dict(sorted(self.charges(row).items())),
        }

    # -- edges ---------------------------------------------------------------------

    def add_edge(self, src: int, dst: int, kind: str) -> None:
        self.edge_src.append(src)
        self.edge_dst.append(dst)
        self.edge_kind.append(self._kind_code(kind))

    def edges(self) -> list[tuple]:
        """Every edge as ``(src id, dst id, kind)``, in record order."""
        kinds = self.kinds
        return list(zip(
            self.edge_src.data, self.edge_dst.data, [kinds[k] for k in self.edge_kind]
        ))


#: value types the intern tables share
_INTERNED = frozenset({str, int, type(None)})


class Span:
    """A handle on one span: one attributed interval of virtual time.

    Usable as a context manager inside simulation generator-processes:
    the body's ``yield``s advance the virtual clock, and ``__exit__``
    reads the clock again — no wall time is involved anywhere. The span
    itself is a row of the tracer's :class:`SpanTable`; the attributes
    below read it, and ``args``/``charges`` return fresh dicts.
    """

    __slots__ = ("tracer", "index", "span_id")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index
        #: the span's id (read once: engines pass it around on every edge)
        self.span_id: int = tracer.table.ids.data[index]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Span)
            and other.tracer is self.tracer
            and other.index == self.index
        )

    def __hash__(self) -> int:
        return hash((id(self.tracer), self.index))

    def _attribution(self) -> tuple:
        table = self.tracer.table
        return table.attributions[table.attribution[self.index]]

    @property
    def name(self) -> str:
        return self._attribution()[0]

    @property
    def cat(self) -> str:
        return self._attribution()[1]

    @property
    def node(self) -> Optional[int]:
        return self._attribution()[2]

    @property
    def job(self) -> Optional[str]:
        return self._attribution()[3]

    @property
    def flowlet(self) -> Optional[str]:
        return self._attribution()[4]

    @property
    def start(self) -> float:
        return self.tracer.table.start.data[self.index]

    @property
    def end(self) -> Optional[float]:
        table = self.tracer.table
        return table.end.data[self.index] if table.closed[self.index] else None

    @property
    def parent_id(self) -> Optional[int]:
        return self.tracer.table.parent[self.index]

    @property
    def args(self) -> dict:
        return self.tracer.table.args(self.index)

    @property
    def charges(self) -> dict[str, float]:
        """Blame bucket -> virtual seconds charged against this span."""
        return self.tracer.table.charges(self.index)

    @property
    def duration(self) -> float:
        end = self.end
        if end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return end - self.start

    def child(self, name: str, cat: Optional[str] = None, **args: Any) -> "Span":
        """Open a child span inheriting this span's attribution."""
        _name, own_cat, node, job, flowlet = self._attribution()
        return self.tracer.span(
            name,
            cat if cat is not None else own_cat,
            node=node,
            job=job,
            flowlet=flowlet,
            parent=self,
            **args,
        )

    def finish(self, **args: Any) -> "Span":
        self.tracer._close(self.index, args)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        table = self.tracer.table
        if not table.closed[self.index]:
            self.finish()
            if exc_type is not None:
                table.update_args(self.index, {"error": exc_type.__name__})


class SpanList(Sequence):
    """A tracer's spans as :class:`Span` handles, in open order."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._tracer.table)

    def __getitem__(self, index: int) -> Span:
        return Span(self._tracer, range(len(self))[index])

    def __iter__(self) -> Iterator[Span]:
        tracer = self._tracer
        return (Span(tracer, row) for row in range(len(tracer.table)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple, SpanList)):
            return list(self) == list(other)
        return NotImplemented


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
        #: every span and causal edge, as columns
        self.table = SpanTable()
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
        #: category -> its ``span.seconds`` histogram
        self._span_seconds: dict = {}

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
        span_id = self._next_id
        start = self.sim.now
        parent_id = parent.span_id if isinstance(parent, Span) else None
        row = self.table.open(
            span_id, name, cat, start, node, job, flowlet, parent_id, args
        )
        if self.journal is not None:
            record = {"t": "so", "id": span_id, "n": name, "c": cat, "st": start}
            if node is not None:
                record["nd"] = node
            if job is not None:
                record["j"] = job
            if flowlet is not None:
                record["f"] = flowlet
            if parent_id is not None:
                record["p"] = parent_id
            if args:
                record["a"] = args
            self.journal.emit(record)
        return Span(self, row)

    @property
    def spans(self) -> SpanList:
        """Every span opened, as handles (a view on :attr:`table`)."""
        return SpanList(self)

    def finished_spans(self, cat: Optional[str] = None) -> list[Span]:
        return [Span(self, row) for row in self.table.finished(cat)]

    def _close(self, row: int, args: dict) -> None:
        """Close a span at the current virtual time (``Span.finish``)."""
        table = self.table
        if table.closed[row]:
            raise ValueError(
                f"span {table.attributions[table.attribution[row]][0]!r} finished twice"
            )
        end = self.sim.now
        args = table.update_args(row, args) if args else table.arg_values[row]
        table.close(row, end)
        if self.journal is not None:
            # The close record carries the *final* args, so arguments
            # given to finish() are captured; the histogram observe below
            # journals itself via the metric hook.
            record: dict = {"t": "sc", "id": table.ids.data[row], "end": end}
            if args:
                record["a"] = args
            self.journal.emit(record)
        self.closed_spans += 1
        cat = table.attributions[table.attribution[row]][1]
        histogram = self._span_seconds.get(cat)
        if histogram is None:
            histogram = self._span_seconds[cat] = self.metrics.histogram(
                "span.seconds", cat=cat
            )
        histogram.observe(end - table.start.data[row])

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
        self.table.add_edge(src_id, dst_id, kind)

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
        if not seconds > 0.0:
            # Zero charges are state no-ops (the ledger drops them), so
            # only state-changing charges are journaled and kept per span;
            # validation above keeps invalid charges out of the journal.
            return
        if type(span) is not Span:
            span = None
        if self.journal is not None:
            record: dict = {"t": "b", "j": job, "bk": bucket, "v": seconds}
            if node is not None:
                record["nd"] = node
            if span is not None:
                record["sp"] = span.span_id
            self.journal.emit(record)
        if span is not None:
            span.tracer.table.charge(span.index, bucket, seconds)

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
            "spans": [self.table.row_dict(row) for row in range(len(self.table))],
            "edges": sorted(
                ([src, dst, kind] for src, dst, kind in self.table.edges()),
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
        table = self.table
        starts, ends, ids = table.start.data, table.end.data, table.ids.data
        attributions, codes = table.attributions, table.attribution
        rows = sorted(table.finished(), key=lambda r: (starts[r], ids[r]))
        lanes = lanes_of(table.lane_rows(rows))
        by_id = {ids[row]: row for row in rows}
        events = []
        for row in rows:
            # pid -1 for node-less spans matches lanes_of' keying, so
            # they can never collide with a real node's lanes.
            name, cat, node, job, flowlet = attributions[codes[row]]
            args = {"job": job, "flowlet": flowlet}
            args.update(sorted(zip(table.keysets[table.arg_keys[row]], table.arg_values[row])))
            start, end = starts[row], ends[row]
            events.append(
                {
                    "name": name,
                    "cat": cat,
                    "ph": "X",
                    # integer microseconds, dur from the rounded endpoints:
                    # rounding is monotone and the arithmetic exact, so spans
                    # that don't overlap in virtual time can't overlap here
                    # (float scaling is off by an ulp exactly often enough).
                    "ts": round(start * time_unit),
                    "dur": round(end * time_unit) - round(start * time_unit),
                    "pid": node if node is not None else -1,
                    "tid": lanes[ids[row]],
                    "args": {k: v for k, v in args.items() if v is not None},
                }
            )
        # Flow events: one s/f pair per causal edge between finished spans.
        # The start binds to the end of the source slice ("bp": "e" on the
        # finish re-binds to the enclosing slice at the destination's start).
        flow_id = 0
        for src_id, dst_id, kind in sorted(table.edges()):
            src, dst = by_id.get(src_id), by_id.get(dst_id)
            if src is None or dst is None:
                continue
            flow_id += 1
            common = {"name": kind, "cat": f"flow.{kind}", "id": flow_id}
            src_node, dst_node = attributions[codes[src]][2], attributions[codes[dst]][2]
            events.append(
                {
                    **common,
                    "ph": "s",
                    "ts": round(ends[src] * time_unit),
                    "pid": src_node if src_node is not None else -1,
                    "tid": lanes[src_id],
                }
            )
            # The arrow lands where the dependency resolved: the destination
            # span's start, or the source's end for edges that resolve
            # mid-span (stall wait-for edges).
            f_ts = min(max(starts[dst], ends[src]), ends[dst])
            events.append(
                {
                    **common,
                    "ph": "f",
                    "bp": "e",
                    "ts": round(f_ts * time_unit),
                    "pid": dst_node if dst_node is not None else -1,
                    "tid": lanes[dst_id],
                }
            )
        # Counter tracks ("C" events): per-node resource timelines render as
        # Perfetto counter lanes alongside the span rows. Step tracks emit
        # one sample per recorded level change; rate tracks emit the running
        # cumulative weight at each transfer's finish time.
        timeline = self.timeline
        for track, node in sorted(timeline._steps):
            for t, value in timeline.steps(track, node):
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
        for track, node in sorted(timeline._intervals):
            cumulative = 0.0
            for _start, finish, weight in sorted(timeline.intervals(track, node)):
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


def lanes_of(rows: Iterable[tuple]) -> dict[int, int]:
    """Lanes for ``(start, span id, node, end)`` rows: span id -> lane.

    Two spans on the same node overlap iff they share a lane's time range;
    the greedy first-fit over start-ordered spans guarantees overlapping
    spans get distinct lanes (used for both Chrome ``tid``s and the ASCII
    Gantt rows).
    """
    lanes: dict[int, int] = {}
    busy_until: dict[int, list[float]] = {}  # node -> per-lane last end time
    for start, span_id, node, end in sorted(rows, key=lambda r: (r[0], r[1])):
        node_lanes = busy_until.setdefault(node if node is not None else -1, [])
        for index, lane_end in enumerate(node_lanes):
            if lane_end <= start:
                node_lanes[index] = end
                lanes[span_id] = index
                break
        else:
            node_lanes.append(end)
            lanes[span_id] = len(node_lanes) - 1
    return lanes
