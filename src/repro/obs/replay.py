"""Journal replay: rebuild a run's tracer byte-identically, no re-execution.

:func:`replay_records` folds a journal's events, in order, back into a
real :class:`~repro.obs.spans.Tracer` over a frozen virtual clock (the
footer's ``virtual_end``). Every event re-applies the *same primitive
mutation* the live run performed — the same ``Counter.inc``, the same
``BlameLedger.charge``, the same column appends — with the same operands
in the same order, so every float accumulation reproduces bit-for-bit and
the downstream views (``report_dict``, ``telemetry_dict``, the
critical-path extraction, the Chrome trace) serialize **byte-identically**
to the live run's.

The fold fills the same :class:`~repro.obs.spans.SpanTable` a live run
fills. The only deliberate difference: replayed spans are closed on the
table directly instead of through ``finish()`` — the
``span.seconds`` histogram observation that ``finish()`` would trigger is
itself a journal event (``h``) and replays separately, so going through
``finish()`` would double-apply it.

The fold takes any iterable of records and reads it once, front to back:
:func:`replay_file` and :func:`replay_lines` feed it the
:func:`~repro.obs.journal.iter_journal` stream, so a replay holds the
tracer it builds, never the decoded record list.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.obs.journal import JournalError, iter_journal, iter_journal_file
from repro.obs.runspec import RunSpec
from repro.obs.spans import Tracer


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
        #: the run's identity (a missing fabric/partitioner is the default)
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


def replay_records(records: Iterable[dict]) -> ReplayedRun:
    """Fold validated journal records into a fresh tracer.

    ``records`` is a list or a one-shot stream: the header is its first
    record and the footer its ``footer`` record, which must be the last.
    The stream is always read to its end, also when the fold fails, so an
    error the reader raises later in the file (a torn line, a missing
    footer) is raised in place of the fold's, as it would be had the
    whole journal been decoded first.
    """
    stream = iter(records)
    try:
        return _fold(stream)
    except Exception:
        for _ in stream:
            pass
        raise


def _fold(stream: Iterator[dict]) -> ReplayedRun:
    header = next(stream, None)
    if header is None:
        raise JournalError("empty journal")
    clock = FrozenClock(0.0)
    tracer = Tracer(clock, enabled=True)
    metrics = tracer.metrics
    counter, gauge_of = metrics.counter, metrics.gauge
    histogram, series = metrics.histogram, metrics.series
    #: (registry accessor, name, labels) -> the metric those records mutate
    handles: dict = {}
    table = tracer.table
    #: span id -> table row, for the close and charge records
    rows: dict[int, int] = {}
    frames: list[dict] = []
    watch_config: Optional[dict] = None
    footer: Optional[dict] = None
    next_id = 0
    for rec in stream:
        t = rec["t"]
        if t == "so":
            rows[rec["id"]] = table.open(
                rec["id"], rec["n"], rec["c"], rec["st"], rec.get("nd"),
                rec.get("j"), rec.get("f"), rec.get("p"), rec.get("a"),
            )
            next_id = max(next_id, rec["id"])
        elif t == "sc":
            row = rows.get(rec["id"])
            if row is None:
                raise JournalError(f"span close for unknown span id {rec['id']}")
            if table.closed[row]:
                raise JournalError(f"duplicate close for span id {rec['id']}")
            table.close(row, rec["end"], rec.get("a"))
        elif t == "e":
            table.add_edge(rec["s"], rec["d"], rec["k"])
        elif t == "b":
            # Tracer.charge's two mutations, the span's by row
            seconds = rec["v"]
            tracer.blame.charge(rec["j"], rec["bk"], seconds, node=rec.get("nd"))
            row = rows.get(rec.get("sp"))
            if row is not None and seconds > 0.0:
                table.charge(row, rec["bk"], seconds)
        elif t == "m":
            kind = rec["k"]
            if kind not in ("c", "g", "h", "s"):
                raise JournalError(f"unknown metric kind {kind!r}")
            metrics.metric(kind, rec["n"], dict(rec["l"]), rec.get("b"))
        elif t == "c":
            _metric(handles, counter, rec).inc(rec["v"])
        elif t == "g":
            gauge = _metric(handles, gauge_of, rec)
            if rec["op"] == "set":
                gauge.set(rec["v"])
            elif rec["op"] == "add":
                gauge.add(rec["v"])
            else:
                raise JournalError(f"unknown gauge op {rec['op']!r}")
        elif t == "h":
            _metric(handles, histogram, rec).observe(rec["v"])
        elif t == "s":
            _metric(handles, series, rec).append(rec["tm"], rec["v"])
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
        elif t == "footer":
            footer = rec
            break
        else:
            raise JournalError(f"unexpected record type {t!r} mid-journal")
    if footer is None:
        raise JournalError("journal has no footer record")
    if next(stream, None) is not None:
        raise JournalError("unexpected record type 'footer' mid-journal")
    clock.now = footer.get("virtual_end", 0.0)
    tracer._next_id = next_id
    return ReplayedRun(header, footer, tracer, frames=frames, watch_config=watch_config)


def _metric(handles: dict, accessor, rec: dict):
    """The metric a ``c``/``g``/``h``/``s`` record mutates: the registry
    ``accessor``'s, looked up once per name and label list."""
    key = (accessor, rec["n"], *map(tuple, rec["l"]))
    metric = handles.get(key)
    if metric is None:
        metric = handles[key] = accessor(rec["n"], **dict(rec["l"]))
    return metric


def replay_lines(lines, *, allow_partial: bool = False) -> ReplayedRun:
    return replay_records(iter_journal(lines, allow_partial=allow_partial))


def replay_file(path: str, *, allow_partial: bool = False) -> ReplayedRun:
    """Replay a journal file (``.jsonl`` or ``.jsonl.gz``).

    With ``allow_partial`` a footer-less (truncated) journal replays
    best-effort up to the last complete event: spans without a close
    record stay open and the synthesized footer carries
    ``partial: true`` plus the last observed timestamp as the makespan
    floor.
    """
    return replay_records(iter_journal_file(path, allow_partial=allow_partial))
