"""Durable run journals: every observability event, as it is emitted.

A :class:`JournalWriter` is attached at :class:`~repro.obs.spans.Tracer`
construction (``Tracer(sim, enabled=True, journal=writer)``) and records
one JSON object per line — a span open/close, a causal edge, a blame
charge, a metric mutation, a telemetry sample, a traffic-matrix charge —
in exactly the order the live run emitted it. Because the journal stores
the *primitive mutations* rather than derived aggregates, replaying them
in order (:mod:`repro.obs.replay`) rebuilds a tracer whose float
accumulations happen in the same order with the same operands, so the
``report`` / ``timeline`` / critical-path outputs are **byte-identical**
to the live run's — with no re-execution.

Design constraints mirror :mod:`repro.obs.hostprof`:

1. **Non-perturbing.** Journal hooks only read already-computed values
   and append to the journal's own buffers; simulation state is never
   touched. Virtual outputs are byte-identical with journaling on or off
   (asserted by the determinism suites).
2. **Off by default, near-zero when off.** Every hook is guarded by a
   single ``is None`` check on a ``__slots__`` attribute.
3. **Append-only, schema-versioned.** The first line is a ``header``
   record carrying :data:`JOURNAL_SCHEMA`; the last is a ``footer`` with
   the run's makespan and virtual end time.
   Records in between are never rewritten.

A writer holds at most one block of its body in memory, whatever the
run's length: every ``_BLOCK_LINES`` lines are joined into one block and
written to an anonymous spool file as the block seals, and only the lines
since the last seal are held as strings. :meth:`JournalWriter.save`
copies the spool into the file in bounded chunks, without building the
whole body; ``lines`` and ``records`` read the spool back on demand.

Reading is a stream too. :func:`iter_journal` decodes and validates one
line at a time and yields each record as it is decoded, so a consumer
that folds records as they arrive (replay, the what-if model) never
holds the decoded list, which is about 7x the file's size.
:func:`read_journal` and :func:`load_journal` are that stream wrapped in
``list()``, for the callers that need every record at once.

Record types (compact keys keep journals small):

======  =====================================================
``t``   meaning
======  =====================================================
header  schema + run metadata (workload, engine, fidelity...)
m       metric declared (registry accessor created it)
c       counter increment
g       gauge ``set``/``add``
h       histogram observation
s       time-series append
so      span opened
sc      span closed (carries the final args)
e       causal span edge
b       blame charge (job/bucket/seconds/node/span)
tls     timeline step sample
tli     timeline interval sample
tlc     timeline capacity ``set``/``add``
tm      traffic matrix declared for a job
x       traffic-matrix charge
wcfg    live-monitoring config (frame interval, stall window)
fr      live dashboard frame (progress, ETA, watchdog verdict)
footer  event/span counts, makespan, virtual end
======  =====================================================

A seeded regression is data, not a run mode: :func:`dilate_bucket_charges`
stretches a recorded journal so every span charged to a blame bucket takes
``factor``× longer — the synthetic root cause ``explain`` and ``doctor``
must rank first. From the CLI, ``whatif RUN --scenario disk=0.5
--emit-journal OUT`` writes the journal with disk work taking 2×
(scenario values are speeds, so the factor is their reciprocal).
"""

from __future__ import annotations

import bisect
import io
import itertools
import json
import os
import tempfile
import weakref
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, TextIO

from repro.obs.blame import BUCKETS

#: current schema: v3 headers carry the cluster shape (``nodes``,
#: ``rack_size``) so counterfactual what-if scenarios can rescale the
#: partition-ownership model without guessing the worker count
JOURNAL_SCHEMA = "repro.obs.journal/v3"

#: schemas this reader accepts (v1 journals predate exchange fabrics and
#: replay under the implicit fabric="direct" / partitioner="hash"; v2
#: predates the cluster-shape header fields)
JOURNAL_SCHEMAS = (
    "repro.obs.journal/v1", "repro.obs.journal/v2", JOURNAL_SCHEMA,
)

#: record types, for validation
RECORD_TYPES = (
    "header", "m", "c", "g", "h", "s", "so", "sc", "e", "b",
    "tls", "tli", "tlc", "tm", "x", "wcfg", "fr", "footer",
)


#: for the per-line type check
_RECORD_TYPE_SET = frozenset(RECORD_TYPES)

#: lines joined into one sealed block of a writer's body
_BLOCK_LINES = 4096

#: bytes read back from a writer's spool at a time
_CHUNK_BYTES = 1 << 20

#: built once: ``json.dumps`` with these arguments builds an encoder per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: the decoder ``json.loads`` uses, called without its per-call whitespace
#: regexes: :func:`decode_record` strips the same four characters instead
_RAW_DECODE = json.JSONDecoder().raw_decode

#: the whitespace JSON allows around a value
_JSON_WHITESPACE = " \t\n\r"


class JournalError(ValueError):
    """A journal file is malformed, truncated, or schema-incompatible."""


def encode_record(record: dict) -> str:
    """Canonical one-line encoding: compact separators, sorted keys.

    The encoding round-trips exactly (Python ``json`` serializes floats
    via ``repr`` and parses them back to the same bits), so
    encode→decode→re-encode is byte-identical — the hypothesis suite
    asserts this property, and that the output equals ``json.dumps(record,
    sort_keys=True, separators=(",", ":"))``.
    """
    return _ENCODER.encode(record)


def decode_record(line: str) -> dict:
    """One journal line to its record; accepts exactly what ``json.loads``
    accepts (a value with JSON whitespace around it, nothing after it)."""
    text = line.strip(_JSON_WHITESPACE)
    try:
        record, end = _RAW_DECODE(text)
    except ValueError as exc:
        raise JournalError(f"malformed journal line: {line[:80]!r}") from exc
    if end != len(text):
        raise JournalError(f"malformed journal line: {line[:80]!r}")
    if not isinstance(record, dict) or "t" not in record:
        raise JournalError(f"journal line is not a typed record: {line[:80]!r}")
    t = record["t"]
    if not isinstance(t, str) or t not in _RECORD_TYPE_SET:
        raise JournalError(f"unknown journal record type {t!r}")
    return record


class JournalWriter:
    """Appends observability events as JSONL, optionally streaming to a sink.

    The body is spooled, not held: every ``_BLOCK_LINES`` lines are joined
    into one newline-terminated block and written to an unlinked temporary
    file as the block seals, and only the lines since the last seal wait in
    memory. The spool has no name, so a crash leaves nothing behind, and
    its descriptor is closed when the writer is collected. :meth:`save`
    copies the spool in chunks; ``lines`` (one string per record) and
    ``records`` are read back on demand for tests, replay and the
    seeded-slowdown transform. With ``sink`` set each line is additionally
    written (and flushed at the footer) as it is emitted, which is what
    makes journals durable across a crash.
    """

    def __init__(self, sink: Optional[TextIO] = None, meta: Optional[dict] = None):
        self.sink = sink
        #: extra header metadata merged by :meth:`write_header` (the CLI
        #: presets ``fidelity`` here before handing the writer to the runner)
        self.meta: dict[str, Any] = dict(meta or {})
        self._spool = tempfile.TemporaryFile("w+b")
        weakref.finalize(self, self._spool.close)
        #: bytes of sealed blocks written to the spool
        self._spooled = 0
        self._pending: list[str] = []
        self.events = 0
        self.spans_opened = 0
        self.spans_closed = 0
        self._header_written = False
        self._footer_written = False

    # -- emission -----------------------------------------------------------------

    def emit(self, record: dict) -> None:
        if self._footer_written:
            raise JournalError("journal footer already written; journal is sealed")
        line = encode_record(record)
        pending = self._pending
        pending.append(line)
        if len(pending) == _BLOCK_LINES:
            self._seal()
        self.events += 1
        t = record.get("t")
        if t == "so":
            self.spans_opened += 1
        elif t == "sc":
            self.spans_closed += 1
        if self.sink is not None:
            self.sink.write(line + "\n")

    def _seal(self) -> None:
        """Write the pending lines to the spool as one block (the encoder
        escapes everything outside ASCII)."""
        block = ("\n".join(self._pending) + "\n").encode("ascii")
        self._spool.write(block)
        self._spool.flush()  # os.pread reads the file, not the buffer
        self._spooled += len(block)
        self._pending.clear()

    def write_header(self, **meta: Any) -> None:
        if self._header_written:
            raise JournalError("journal header already written")
        record = {"t": "header", "schema": JOURNAL_SCHEMA}
        record.update(self.meta)
        record.update(meta)
        self.emit(record)
        self._header_written = True

    def write_footer(self, **meta: Any) -> None:
        if not self._header_written:
            raise JournalError("journal footer before header")
        record = {
            "t": "footer",
            # the footer itself is not counted in `events`
            "events": self.events,
            "spans_opened": self.spans_opened,
            "spans_closed": self.spans_closed,
        }
        record.update(meta)
        self.emit(record)
        self._footer_written = True
        self.events -= 1
        if self.sink is not None:
            self.sink.flush()

    # -- hook factories (captured in closures by the instrumented primitives) ------

    def metric_hook(self, kind: str, name: str, labelkey: tuple) -> Callable:
        """The per-metric emit hook installed on a registry primitive.

        ``labelkey`` is the registry's sorted label tuple; it is rendered
        once into the closure so the hot path only appends.
        """
        labels = [[k, v] for k, v in labelkey]

        if kind == "c":
            def hook(amount: float) -> None:
                self.emit({"t": "c", "n": name, "l": labels, "v": amount})
        elif kind == "g":
            def hook(op: str, value: float) -> None:
                self.emit({"t": "g", "n": name, "l": labels, "op": op, "v": value})
        elif kind == "h":
            def hook(value: float) -> None:
                self.emit({"t": "h", "n": name, "l": labels, "v": value})
        elif kind == "s":
            def hook(time: float, value: float) -> None:
                self.emit({"t": "s", "n": name, "l": labels, "tm": time, "v": value})
        else:  # pragma: no cover - registry only knows four kinds
            raise ValueError(f"unknown metric kind {kind!r}")
        return hook

    def declare_metric(
        self, kind: str, name: str, labelkey: tuple,
        bounds: Optional[tuple] = None,
    ) -> None:
        """Record that the registry *created* a metric (even if it is never
        mutated) — empty metrics still appear in live snapshots, so replay
        must create them in the same order."""
        record: dict[str, Any] = {
            "t": "m", "k": kind, "n": name, "l": [[k, v] for k, v in labelkey],
        }
        if bounds is not None:
            record["b"] = list(bounds)
        self.emit(record)

    # -- persistence ----------------------------------------------------------------

    def iter_lines(self) -> Iterator[str]:
        """Every line emitted before this call, in order, one at a time.

        The spool's length and the pending lines are taken now, so emits
        while a consumer iterates neither leak in nor tear the iteration.
        """
        return self._lines(self._spooled, list(self._pending))

    def _lines(self, spooled: int, pending: list[str]) -> Iterator[str]:
        tail = ""
        for chunk in self._chunks(spooled):
            *lines, tail = (tail + chunk).split("\n")
            yield from lines
        yield from pending

    def _chunks(self, spooled: int) -> Iterator[str]:
        """The first ``spooled`` bytes of the spool as text, at most
        ``_CHUNK_BYTES`` at a time, read without moving the file offset."""
        fd = self._spool.fileno()
        offset = 0
        while offset < spooled:
            data = os.pread(fd, min(_CHUNK_BYTES, spooled - offset), offset)
            if not data:
                raise OSError(f"journal spool ends at {offset} of {spooled} bytes")
            offset += len(data)
            yield data.decode("ascii")

    @property
    def lines(self) -> list[str]:
        """Every line emitted so far, in order (built on each access)."""
        return list(self.iter_lines())

    @property
    def records(self) -> list[dict]:
        return [decode_record(line) for line in self.iter_lines()]

    def save(self, path: str) -> None:
        """Write the body to ``path`` (``.gz`` compresses), chunk by chunk:
        the file holds every line, newline-terminated, in emission order."""
        with journal_open(path, "w") as fh:
            fh.writelines(self._chunks(self._spooled))
            fh.writelines(line + "\n" for line in self._pending)


# -- file I/O -----------------------------------------------------------------------


class _GzipJournalFile(io.TextIOWrapper):
    """Deterministic gzip text writer: the member header carries no
    filename and ``mtime=0``, so identical records always produce
    byte-identical ``.jsonl.gz`` files (the replay/whatif determinism
    gates ``cmp`` compressed journals directly)."""

    def __init__(self, path: str):
        import gzip

        self._raw = open(path, "wb")
        try:
            self._gz = gzip.GzipFile(
                filename="", mode="wb", fileobj=self._raw, mtime=0
            )
        except Exception:
            self._raw.close()
            raise
        super().__init__(self._gz, encoding="utf-8", newline="")

    def close(self) -> None:
        try:
            super().close()  # flushes + writes the gzip trailer
        finally:
            # GzipFile.close() leaves the underlying fileobj open
            if not self._raw.closed:
                self._raw.close()


def journal_open(path: str, mode: str = "r"):
    """Open a journal path for text I/O; ``.gz`` paths are transparently
    gzip-compressed (canonical line encoding unchanged, so replay stays
    byte-identical after a round trip)."""
    if not path.endswith(".gz"):
        return open(path, mode)
    if mode.startswith("r"):
        import gzip

        return gzip.open(path, "rt", encoding="utf-8")
    if mode.startswith("w"):
        return _GzipJournalFile(path)
    raise ValueError(f"unsupported journal open mode {mode!r}")


# -- reading ------------------------------------------------------------------------


class _PartialTally:
    """What a synthesized footer needs, kept record by record: the events
    after the header, spans opened and closed, and the latest timestamp."""

    __slots__ = ("events", "opened", "closed", "last")

    def __init__(self):
        self.events = self.opened = self.closed = 0
        self.last = 0.0

    def add(self, rec: dict) -> None:
        self.events += 1
        t = rec.get("t")
        if t == "so":
            self.opened += 1
            self.last = max(self.last, rec.get("st", 0.0))
        elif t == "sc":
            self.closed += 1
            self.last = max(self.last, rec.get("end", 0.0))
        elif t in ("s", "tls", "fr"):
            self.last = max(self.last, rec.get("tm", 0.0))
        elif t == "tli":
            self.last = max(self.last, rec.get("t1", 0.0))

    def footer(self) -> dict:
        return {
            "t": "footer",
            "partial": True,
            "events": self.events,
            "spans_opened": self.opened,
            "spans_closed": self.closed,
            "virtual_end": self.last,
            "makespan": self.last,
        }


def synthesize_partial_footer(records: list[dict]) -> dict:
    """Best-effort footer for a truncated journal (no footer record).

    ``virtual_end``/``makespan`` are the latest timestamp any surviving
    event carries — a lower bound on the real run's, which is the honest
    reconstruction for a crashed or in-flight run. ``partial: true``
    marks every downstream view as reconstructed.
    """
    tally = _PartialTally()
    for rec in records[1:]:
        tally.add(rec)
    return tally.footer()


def _decoded(lines: Iterable[str], allow_partial: bool) -> Iterator[dict]:
    """Every non-blank line decoded, in order; under ``allow_partial`` the
    first torn line ends the stream instead of raising."""
    for line in lines:
        if not line or line.isspace():
            continue
        try:
            record = decode_record(line)
        except JournalError:
            if allow_partial:
                return  # torn trailing write: keep everything before it
            raise
        yield record


def iter_journal(lines: Iterable[str], *, allow_partial: bool = False) -> Iterator[dict]:
    """Decode + validate a journal one line at a time, yielding each record
    as it is decoded: header first, known schema, footer last.

    The header is checked before it is yielded and the footer once the
    lines run out, so a consumer sees a complete journal or an error. A
    header error is raised only after the rest of the lines decoded, so a
    decode error anywhere in the file comes first, as it does for
    :func:`read_journal`. A consumer that folds the stream and fails should
    likewise read the stream to its end before raising (see
    :func:`repro.obs.replay.replay_records`).

    ``allow_partial=True`` accepts a truncated journal (crashed or
    in-flight run): decoding stops at the first torn line, and a
    synthesized ``partial: true`` footer closes the record stream at the
    last complete event. The header is always validated strictly.
    """
    records = _decoded(lines, allow_partial)
    header = next(records, None)
    if header is None:
        raise JournalError("empty journal")
    problem = None
    schema = header.get("schema", "")
    if header.get("t") != "header":
        problem = "journal does not start with a header record"
    elif schema not in JOURNAL_SCHEMAS:
        problem = (
            f"unsupported journal schema {schema!r} (expected one of {JOURNAL_SCHEMAS})"
        )
    if problem is not None:
        for _ in records:  # a decode error later in the file is raised first
            pass
        raise JournalError(problem)
    yield header
    tally = _PartialTally() if allow_partial else None
    last = header
    for last in records:
        if tally is not None:
            tally.add(last)
        yield last
    if last.get("t") != "footer":
        if tally is None:
            raise JournalError(
                "journal has no footer record (truncated run?); pass "
                "--allow-partial for a best-effort reconstruction up to "
                "the last complete event"
            )
        yield tally.footer()


def iter_journal_file(path: str, *, allow_partial: bool = False) -> Iterator[dict]:
    """:func:`iter_journal` over a journal file (``.jsonl`` or
    ``.jsonl.gz``); the file is open while the stream is read."""
    with journal_open(path) as fh:
        yield from iter_journal(fh, allow_partial=allow_partial)


def read_journal(lines: Iterable[str], *, allow_partial: bool = False) -> list[dict]:
    """Every record of :func:`iter_journal`, as one list."""
    return list(iter_journal(lines, allow_partial=allow_partial))


def load_journal(path: str, *, allow_partial: bool = False) -> list[dict]:
    """Every record of a journal file, as one list."""
    return list(iter_journal_file(path, allow_partial=allow_partial))


# -- seeded synthetic regression -----------------------------------------------------


def seed_bucket_slowdown(records: list[dict], bucket: str, factor: float) -> list[dict]:
    """Dilate a journal's virtual timeline: ``bucket`` work takes ``factor``×.

    Thin wrapper over :func:`dilate_bucket_charges` for the single-bucket
    form, byte-for-byte what ``whatif --scenario <bucket>=<1/factor>
    --emit-journal`` writes.
    """
    return dilate_bucket_charges(records, {bucket: factor})


def _timeline_remap(inserted: dict[float, float]) -> Callable[[float], float]:
    """``T(t) = t + sum(extra for end, extra in inserted if end <= t)``.

    The prefix sums run left to right over the sorted ends starting from
    0.0 — the float additions a scan of the points would make for each
    ``t``, made once — and each lookup is a bisection.
    """
    ends = sorted(inserted)
    shift_upto = list(itertools.accumulate((inserted[end] for end in ends), initial=0.0))

    def remap(t: float) -> float:
        return t + shift_upto[bisect.bisect_right(ends, t)]

    return remap


class DilationPlan(NamedTuple):
    """The time one dilation inserts (:meth:`DilationFold.plan`): the map
    ``T(t)`` and the extras per span (in total and by bucket) and per bucket."""

    remap: Callable[[float], float]
    own_extra: dict[int, float]
    own_by_bucket: dict[int, dict[str, float]]
    total_by_bucket: dict[str, float]


class DilationFold:
    """What :meth:`plan` reads, folded one record at a time and independent
    of the factors: each closed span's end, and the charge sum of every
    (span, bucket) pair a ``b`` record's ``sp`` names, in the order each
    pair is first seen."""

    def __init__(self) -> None:
        self.ends: dict[int, float] = {}
        self.charges: dict[tuple[int, str], float] = {}

    def add(self, rec: dict) -> None:
        t = rec["t"]
        if t == "sc":
            self.ends[rec["id"]] = rec["end"]
        elif t == "b" and rec.get("sp") is not None:
            key = (rec["sp"], rec["bk"])
            self.charges[key] = self.charges.get(key, 0.0) + rec["v"]

    def plan(self, factors: dict[str, float]) -> DilationPlan:
        """The time ``factors`` insert: ``(factor - 1) * seconds`` at the
        end of every closed span, per factored bucket it was charged.

        Spans enter in the order of their first factored charge, so the
        extras of spans that close at the same time are summed in the
        order a single pass over the records would meet them.
        """
        for bucket in factors:
            if bucket not in BUCKETS:
                raise ValueError(f"unknown blame bucket {bucket!r}; pick from {BUCKETS}")
        for bucket, factor in factors.items():
            if factor <= 0.0:
                raise ValueError(f"slowdown factor must be positive: {bucket}={factor}")
        charged: dict[int, dict[str, float]] = {}
        for (span_id, bucket), seconds in self.charges.items():
            if bucket in factors:
                charged.setdefault(span_id, {})[bucket] = seconds

        # Insertion points: (end_time, extra_seconds), merged per end time.
        # Per-span extras are also kept per bucket so straddler compensation
        # can attribute absorbed waiting proportionally.
        inserted: dict[float, float] = {}
        own_extra: dict[int, float] = {}
        own_by_bucket: dict[int, dict[str, float]] = {}
        total_by_bucket: dict[str, float] = {}
        for span_id, per in charged.items():
            end = self.ends.get(span_id)
            if end is None:
                continue
            extra = 0.0
            by_bucket: dict[str, float] = {}
            for bucket, seconds in per.items():
                if seconds <= 0.0:
                    continue
                part = (factors[bucket] - 1.0) * seconds
                by_bucket[bucket] = part
                total_by_bucket[bucket] = total_by_bucket.get(bucket, 0.0) + part
                extra += part
            if not by_bucket:
                continue
            own_extra[span_id] = extra
            own_by_bucket[span_id] = by_bucket
            inserted[end] = inserted.get(end, 0.0) + extra
        return DilationPlan(
            _timeline_remap(inserted), own_extra, own_by_bucket, total_by_bucket
        )


def dilate_bucket_charges(
    records: list[dict],
    factors: dict[str, float],
    fold: Optional[DilationFold] = None,
) -> list[dict]:
    """Dilate a journal's virtual timeline: bucket ``b`` work takes
    ``factors[b]``× longer, for any set of blame buckets at once.

    For every closed span with ``seconds`` charged to a factored bucket,
    an extra ``(factor - 1) * seconds`` of virtual time is inserted at the
    span's original end. All timestamps are then remapped through the
    monotone ``T(t) = t + sum(inserted_i for end_i <= t)`` —
    order-preserving, so the journal stays causally valid — and each
    factored bucket's blame charges are scaled to match. The footer's
    ``virtual_end`` and ``makespan`` grow by the total inserted time:
    exactly the signature the real regressions would leave, which the
    ``explain`` self-test must attribute back to those buckets and the
    ``whatif`` engine uses as the executable ground truth for composed
    bucket scenarios. (Factors below 1.0 shrink the timeline instead —
    the counterfactual for *faster* hardware.)

    Three steps: a :class:`DilationFold` over the records (with each
    span's start, job and node, which only the rewrite reads), its ``plan``
    for ``factors`` (what the what-if model predicts from), and a rewrite.
    A caller that already folded ``records`` passes that ``fold`` (a
    :class:`~repro.obs.whatif.WhatIfModel`'s ``dilation``) and the first
    pass only collects the span starts.
    """
    refold = fold is None
    if refold:
        fold = DilationFold()
    starts: dict[int, float] = {}
    jobs: dict[int, str] = {}
    nodes: dict[int, int] = {}
    for rec in records:
        if refold:
            fold.add(rec)
        if rec["t"] == "so":
            span_id = rec["id"]
            starts[span_id] = rec["st"]
            if "j" in rec:
                jobs[span_id] = rec["j"]
            if "nd" in rec:
                nodes[span_id] = rec["nd"]
    plan = fold.plan(factors)
    remap = plan.remap

    # A span *straddling* another span's insertion point absorbs that
    # pause: its dilated duration grows beyond its own scaled charge. A
    # real bucket slowdown would charge that absorbed waiting to the
    # bucket too (the span was gated on the slowed resource), so emit a
    # compensating charge per straddling span — the critical-path rollup
    # then attributes the whole dilation to the seeded buckets instead of
    # leaking it into "other".
    residual: dict[int, float] = {}
    for span_id, start in starts.items():
        end = fold.ends.get(span_id)
        if end is None:
            continue
        growth = (remap(end) - remap(start)) - (end - start)
        extra = growth - plan.own_extra.get(span_id, 0.0)
        if extra > 1e-12 and span_id in jobs:
            residual[span_id] = extra

    def residual_shares(span_id: int) -> list[tuple[str, float]]:
        """Bucket attribution for one straddler's absorbed waiting:
        proportional to the span's own extras, falling back to the
        journal-wide inserted totals (deterministic BUCKETS order)."""
        weights = plan.own_by_bucket.get(span_id) or plan.total_by_bucket
        total = sum(weights.values())
        if total == 0.0:
            weights = {bucket: 1.0 for bucket in factors}
            total = float(len(weights))
        return [
            (bucket, weights[bucket] / total)
            for bucket in BUCKETS
            if weights.get(bucket)
        ]

    out: list[dict] = []
    new_starts: dict[int, float] = {}
    new_ends: dict[int, float] = {}
    added = 0
    last_closed: Optional[int] = None
    frames: list[dict] = []
    watch_window: Optional[float] = None
    for rec in records:
        rec = dict(rec)
        t = rec["t"]
        if t == "so":
            rec["st"] = new_starts[rec["id"]] = remap(rec["st"])
        elif t == "sc":
            rec["end"] = new_ends[rec["id"]] = remap(rec["end"])
            last_closed = rec["id"]
        elif t == "b":
            if rec["bk"] in factors:
                rec["v"] = rec["v"] * factors[rec["bk"]]
        elif t == "h":
            # The span.seconds observation emitted by _span_finished
            # immediately follows its "sc" record; keep it consistent
            # with the dilated span interval.
            if rec["n"] == "span.seconds" and last_closed is not None:
                sid = last_closed
                if sid in new_starts and sid in new_ends:
                    rec["v"] = new_ends[sid] - new_starts[sid]
        elif t == "s":
            rec["tm"] = remap(rec["tm"])
        elif t == "tls":
            rec["tm"] = remap(rec["tm"])
        elif t == "tli":
            rec["t0"] = remap(rec["t0"])
            rec["t1"] = remap(rec["t1"])
        elif t == "fr":
            rec["tm"] = remap(rec["tm"])
            frames.append(rec)
        elif t == "wcfg":
            watch_window = rec.get("win")
        elif t == "footer":
            if "virtual_end" in rec:
                rec["virtual_end"] = remap(rec["virtual_end"])
            if "makespan" in rec:
                rec["makespan"] = remap(rec["makespan"])
            if "events" in rec:
                rec["events"] = rec["events"] + added
            if len(factors) == 1:
                ((bucket, factor),) = factors.items()
                rec["seeded_slowdown"] = {"bucket": bucket, "factor": factor}
            else:
                rec["seeded_slowdown"] = {
                    "buckets": {b: factors[b] for b in sorted(factors)}
                }
        out.append(rec)
        if t == "sc" and rec["id"] in residual:
            sid = rec["id"]
            for bucket, share in residual_shares(sid):
                charge: dict = {
                    "t": "b", "j": jobs[sid], "bk": bucket,
                    "v": residual[sid] * share, "sp": sid,
                }
                if sid in nodes:
                    charge["nd"] = nodes[sid]
                out.append(charge)
                added += 1
    if frames:
        # Live-dashboard frames sit on the dilated timeline now: the
        # watchdog verdicts and ETA projections must be recomputed, so a
        # slowed journal trips STALLED exactly as a genuinely slow run
        # would. (Frame dicts are shared with `out` — updated in place.)
        from repro.obs.live import DEFAULT_WINDOW, refresh_frame_projections

        window = DEFAULT_WINDOW if watch_window is None else watch_window
        refresh_frame_projections(frames, window)
    return out
