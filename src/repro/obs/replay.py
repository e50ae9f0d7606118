"""Journal replay: rebuild a run's tracer byte-identically, no re-execution.

:func:`replay_records` folds a journal's events, in order, back into a
real :class:`~repro.obs.spans.Tracer` over a frozen virtual clock (the
footer's ``virtual_end``). Every event re-applies the *same primitive
mutation* the live run performed — the same ``Counter.inc``, the same
``BlameLedger.charge``, the same list appends — with the same operands in
the same order, so every float accumulation reproduces bit-for-bit and
the downstream views (``report_dict``, ``telemetry_dict``, the
critical-path extraction, the Chrome trace) serialize **byte-identically**
to the live run's.

The only deliberate difference: replayed spans are closed by assigning
``end``/``args`` directly instead of calling ``finish()`` — the
``span.seconds`` histogram observation that ``finish()`` would trigger is
itself a journal event (``h``) and replays separately, so going through
``finish()`` would double-apply it.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.journal import JournalError, load_journal, read_journal
from repro.obs.runspec import RunSpec
from repro.obs.spans import Span, SpanEdge, Tracer


class FrozenClock:
    """Stands in for the :class:`~repro.sim.core.Simulator` during replay:
    the only kernel surface the reporting layer touches is ``now``."""

    __slots__ = ("now",)

    def __init__(self, now: float):
        self.now = now


class ReplayedRun:
    """A journal folded back into a tracer, plus the run's metadata."""

    def __init__(
        self,
        header: dict,
        footer: dict,
        tracer: Tracer,
        frames: Optional[list[dict]] = None,
        watch_config: Optional[dict] = None,
    ):
        self.header = header
        self.footer = footer
        self.tracer = tracer
        #: the run's identity (v1 headers predate fabrics: the defaults)
        self.spec = RunSpec.from_header(header)
        self.workload, self.engine = self.spec.workload, self.spec.engine
        #: live-dashboard frames (``fr`` records, ``t`` key stripped) in
        #: emission order — empty unless the run was watched
        self.frames = frames or []
        #: the run's ``wcfg`` record (interval/window), if watched
        self.watch_config = watch_config

    @property
    def label(self) -> Optional[str]:
        return self.header.get("label")

    @property
    def data_size(self) -> Optional[str]:
        return self.header.get("data_size")

    @property
    def fidelity(self) -> Optional[str]:
        return self.header.get("fidelity")

    @property
    def num_nodes(self) -> Optional[int]:
        """Cluster size the run executed on (v3 headers; None before)."""
        return self.header.get("nodes")

    @property
    def rack_size(self) -> Optional[int]:
        """Workers per rack for rack-aware fabrics (v3 headers)."""
        return self.header.get("rack_size")

    @property
    def partial(self) -> bool:
        """True when the footer was synthesized for a truncated journal."""
        return bool(self.footer.get("partial"))

    @property
    def makespan(self) -> float:
        return self.footer.get("makespan", 0.0)

    @property
    def virtual_end(self) -> float:
        return self.footer.get("virtual_end", 0.0)


def replay_records(records: list[dict]) -> ReplayedRun:
    """Fold validated journal records into a fresh tracer."""
    header, events, footer = records[0], records[1:-1], records[-1]
    tracer = Tracer(FrozenClock(footer.get("virtual_end", 0.0)), enabled=True)
    metrics = tracer.metrics
    spans: dict[int, Span] = {}
    frames: list[dict] = []
    watch_config: Optional[dict] = None
    next_id = 0
    for rec in events:
        t = rec["t"]
        if t == "so":
            span = Span(
                tracer,
                rec["id"],
                rec["n"],
                rec["c"],
                rec["st"],
                node=rec.get("nd"),
                job=rec.get("j"),
                flowlet=rec.get("f"),
                parent_id=rec.get("p"),
                args=rec.get("a"),
            )
            tracer.spans.append(span)
            spans[rec["id"]] = span
            next_id = max(next_id, rec["id"])
        elif t == "sc":
            span = spans.get(rec["id"])
            if span is None:
                raise JournalError(f"span close for unknown span id {rec['id']}")
            if span.end is not None:
                raise JournalError(f"duplicate close for span id {rec['id']}")
            span.end = rec["end"]
            args = rec.get("a")
            if args:
                span.args = args
        elif t == "e":
            tracer.edges.append(SpanEdge(rec["s"], rec["d"], rec["k"]))
        elif t == "b":
            tracer.charge(
                rec["j"], rec["bk"], rec["v"],
                node=rec.get("nd"), span=spans.get(rec.get("sp")),
            )
        elif t == "m":
            kind, name, labels = rec["k"], rec["n"], dict(rec["l"])
            if kind == "c":
                metrics.counter(name, **labels)
            elif kind == "g":
                metrics.gauge(name, **labels)
            elif kind == "h":
                metrics.histogram(name, bounds=rec.get("b"), **labels)
            elif kind == "s":
                metrics.series(name, **labels)
            else:
                raise JournalError(f"unknown metric kind {kind!r}")
        elif t == "c":
            metrics.counter(rec["n"], **dict(rec["l"])).inc(rec["v"])
        elif t == "g":
            gauge = metrics.gauge(rec["n"], **dict(rec["l"]))
            if rec["op"] == "set":
                gauge.set(rec["v"])
            elif rec["op"] == "add":
                gauge.add(rec["v"])
            else:
                raise JournalError(f"unknown gauge op {rec['op']!r}")
        elif t == "h":
            metrics.histogram(rec["n"], **dict(rec["l"])).observe(rec["v"])
        elif t == "s":
            metrics.series(rec["n"], **dict(rec["l"])).append(rec["tm"], rec["v"])
        elif t == "tls":
            tracer.timeline.record_step(rec["tr"], rec["nd"], rec["tm"], rec["v"])
        elif t == "tli":
            tracer.timeline.record_interval(
                rec["tr"], rec["nd"], rec["t0"], rec["t1"], rec["w"]
            )
        elif t == "tlc":
            if rec["op"] == "set":
                tracer.timeline.set_capacity(rec["tr"], rec["nd"], rec["v"])
            elif rec["op"] == "add":
                tracer.timeline.add_capacity(rec["tr"], rec["nd"], rec["v"])
            else:
                raise JournalError(f"unknown capacity op {rec['op']!r}")
        elif t == "tm":
            rk = rec.get("rk")
            tracer.racks = (
                {int(node): rack for node, rack in rk.items()} if rk else None
            )
            tracer.traffic(rec["j"])
        elif t == "x":
            tracer.traffic(rec["j"]).charge(
                rec["s"], rec["d"], rec["v"],
                records=rec.get("r", 0), mode=rec["m"], partition=rec.get("p"),
            )
        elif t == "fr":
            frame = dict(rec)
            frame.pop("t")
            frames.append(frame)
        elif t == "wcfg":
            watch_config = {"interval": rec["iv"], "window": rec["win"]}
        else:
            raise JournalError(f"unexpected record type {t!r} mid-journal")
    tracer._next_id = next_id
    return ReplayedRun(header, footer, tracer, frames=frames, watch_config=watch_config)


def replay_lines(lines, *, allow_partial: bool = False) -> ReplayedRun:
    return replay_records(read_journal(lines, allow_partial=allow_partial))


def replay_file(path: str, *, allow_partial: bool = False) -> ReplayedRun:
    """Replay a journal file (``.jsonl`` or ``.jsonl.gz``).

    With ``allow_partial`` a footer-less (truncated) journal replays
    best-effort up to the last complete event: spans without a close
    record stay open and the synthesized footer carries
    ``partial: true`` plus the last observed timestamp as the makespan
    floor.
    """
    return replay_records(load_journal(path, allow_partial=allow_partial))
