"""Critical-path analysis over the span DAG.

A traced run yields spans (attributed intervals of virtual time) plus
causal ``(src, dst, kind)`` edges: shuffle producer → consumer, spill
write → read-back, barrier inputs → gated work, stall wait-for. This
module extracts the **weighted critical path** — the chain of dependent
activities with no slack that ends at the last finished span — rolls it
up by blame bucket, and answers Amdahl-style *what-if* queries
("zero the disk cost along the path") that bound the speedup obtainable
by eliminating one cost source.

The walk is *backward*: start from the terminal span; at each span find
the causal predecessor whose completion (clipped to the current horizon)
is latest — that predecessor explains why the span could not have
delivered earlier — take the span's segment after that cut onto the path,
and recurse into the predecessor. Gaps between consecutive segments are
scheduling slack ("wait"); the lead-in before the first segment is job
startup. Everything is deterministic: identical traces produce identical
paths, rollups and renderings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.obs.blame import BUCKETS
from repro.obs.spans import Tracer

#: synthetic rollup keys alongside the blame buckets
WAIT = "wait"  # inter-segment scheduling slack on the path
OTHER = "other"  # on-path span time not charged to any bucket

ROLLUP_KEYS = BUCKETS + (WAIT, OTHER)

#: tolerance for float comparisons on the virtual clock
_EPS = 1e-12


@dataclass(frozen=True)
class PathNode:
    """A span projected into the critical-path graph."""

    span_id: int
    name: str
    cat: str
    node: Optional[int]
    job: Optional[str]
    start: float
    end: float
    charges: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class PathSegment:
    """The slice ``[t0, t1]`` of one span that lies on the critical path."""

    span: PathNode
    t0: float
    t1: float
    #: kind of the causal edge that ends this segment on the walk
    #: (None for the terminal segment)
    via: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def charges_share(self) -> dict[str, float]:
        """The span's bucket charges scaled to this segment's share.

        Charges are attributed proportionally to the on-path fraction of
        the span; if recorded charges exceed the span duration (rounding),
        they are normalized down so a segment never explains more time
        than it covers.
        """
        span = self.span
        if span.duration <= 0.0 or self.duration <= 0.0:
            return {}
        fraction = self.duration / span.duration
        charged = sum(span.charges.values())
        scale = fraction
        if charged > span.duration:
            scale = fraction * (span.duration / charged)
        return {bucket: sec * scale for bucket, sec in span.charges.items()}


@dataclass
class WhatIf:
    """The Amdahl-style bound for zeroing some buckets along the path."""

    buckets: tuple[str, ...]
    removed: float  # path seconds attributed to the zeroed buckets
    bound_makespan: float  # makespan lower bound after removal
    bound_speedup: float  # upper bound on the achievable speedup


@dataclass
class CriticalPath:
    """The extracted path plus its blame decomposition."""

    segments: list[PathSegment]
    makespan: float  # full virtual makespan (job start .. terminal end)
    job_start: float
    lead_in: float  # job start .. first segment (charged to startup)
    rollup: dict[str, float]  # ROLLUP_KEYS -> on-path seconds

    @property
    def path_seconds(self) -> float:
        return sum(seg.duration for seg in self.segments)

    def share(self, key: str) -> float:
        """Fraction of the makespan attributed to one rollup key."""
        if self.makespan <= 0.0:
            return 0.0
        return self.rollup.get(key, 0.0) / self.makespan

    def what_if(self, buckets: Union[str, Sequence[str]]) -> WhatIf:
        """Bound the speedup from zeroing ``buckets`` along the path.

        Removing those seconds from the critical path lower-bounds the new
        makespan (another path may become critical), so the returned
        speedup is an **upper bound** on what eliminating that cost could
        achieve — the Amdahl-style number the paper's §5 explanations
        quote (e.g. "HAMR wins by eliminating disk-bound shuffle").
        """
        if isinstance(buckets, str):
            buckets = (buckets,)
        unknown = [b for b in buckets if b not in ROLLUP_KEYS]
        if unknown:
            raise ValueError(f"unknown rollup keys {unknown}; pick from {ROLLUP_KEYS}")
        removed = sum(self.rollup.get(b, 0.0) for b in buckets)
        removed = min(removed, self.makespan)
        bound = max(self.makespan - removed, _EPS)
        return WhatIf(
            buckets=tuple(buckets),
            removed=removed,
            bound_makespan=bound,
            bound_speedup=self.makespan / bound,
        )

    def to_dict(self) -> dict:
        """Deterministic JSON-serializable summary."""
        return {
            "schema": "repro.obs.critpath/v1",
            "makespan": self.makespan,
            "path_seconds": self.path_seconds,
            "lead_in": self.lead_in,
            "rollup": {k: self.rollup.get(k, 0.0) for k in sorted(ROLLUP_KEYS)},
            "segments": [
                {
                    "span": seg.span.span_id,
                    "name": seg.span.name,
                    "cat": seg.span.cat,
                    "node": seg.span.node,
                    "t0": seg.t0,
                    "t1": seg.t1,
                    "via": seg.via,
                }
                for seg in self.segments
            ],
        }


# -- graph construction ---------------------------------------------------------


def _nodes_from_tracer(tracer: Tracer) -> dict[int, PathNode]:
    table = tracer.table
    attributions, codes = table.attributions, table.attribution
    ids, starts, ends = table.ids.data, table.start.data, table.end.data
    nodes = {}
    for row in table.finished():
        span_id = ids[row]
        name, cat, node, job, _flowlet = attributions[codes[row]]
        nodes[span_id] = PathNode(
            span_id=span_id,
            name=name,
            cat=cat,
            node=node,
            job=job,
            start=starts[row],
            end=ends[row],
            charges=table.charges(row),
        )
    return nodes


def from_tracer(tracer: Tracer, job: Optional[str] = None) -> "CriticalPath":
    """Extract the critical path from a live tracer."""
    return critical_path(_nodes_from_tracer(tracer), tracer.table.edges(), job=job)


def critical_path(
    nodes: dict[int, PathNode],
    edges: Sequence[tuple],
    job: Optional[str] = None,
) -> CriticalPath:
    """Walk the span DAG backward from the last finished work span.

    ``nodes`` maps span id -> :class:`PathNode`; ``edges`` is a sequence of
    ``(src_id, dst_id, kind)``. Job-level spans frame the makespan but are
    not path nodes themselves (the path runs through the work they
    contain); ``job`` restricts the analysis to one job's spans when a
    trace holds several.
    """
    if job is not None:
        nodes = {i: n for i, n in nodes.items() if n.job == job or n.cat == "job"}
    job_spans = [n for n in nodes.values() if n.cat == "job"]
    if job is not None:
        job_spans = [n for n in job_spans if n.job == job]
    work = {i: n for i, n in nodes.items() if n.cat != "job"}
    if not work:
        return CriticalPath(
            segments=[], makespan=0.0, job_start=0.0, lead_in=0.0,
            rollup={k: 0.0 for k in ROLLUP_KEYS},
        )

    preds: dict[int, list[tuple[PathNode, str]]] = {}
    for src, dst, kind in edges:
        src_node = work.get(src)
        if src_node is None or dst not in work:
            continue
        preds.setdefault(dst, []).append((src_node, kind))

    terminal = max(work.values(), key=lambda n: (n.end, n.span_id))
    job_start = min(j.start for j in job_spans) if job_spans else min(
        n.start for n in work.values()
    )
    makespan = (
        max(j.end for j in job_spans) if job_spans else terminal.end
    ) - job_start

    # Backward walk. `horizon` is the time by which the current span's
    # completion mattered; each step moves the horizon to the chosen
    # predecessor's cut, so the walk strictly regresses (the visited set
    # guards the degenerate zero-length cycle).
    segments: list[PathSegment] = []
    current: Optional[PathNode] = terminal
    via: Optional[str] = None
    horizon = terminal.end
    visited: set[tuple[int, float]] = set()
    budget = 8 * len(work)  # hard stop well beyond any legitimate path
    while current is not None and budget > 0:
        budget -= 1
        key = (current.span_id, round(horizon, 9))
        if key in visited:
            break
        visited.add(key)
        best: Optional[tuple[PathNode, str]] = None
        best_cut = float("-inf")
        for pred, kind in preds.get(current.span_id, ()):
            cut = min(pred.end, horizon)
            if best is None or (cut, pred.span_id) > (best_cut, best[0].span_id):
                best = (pred, kind)
                best_cut = cut
        # A dependency ending inside the span gates its tail (stall
        # wait-for); one ending at or before the start explains the whole
        # segment, any gap to it being scheduling slack.
        seg_start = current.start if best is None else max(current.start, best_cut)
        seg_start = min(seg_start, horizon)
        segments.append(
            PathSegment(span=current, t0=seg_start, t1=horizon, via=via)
        )
        if best is None:
            break
        current, via = best[0], best[1]
        horizon = min(best_cut, current.end)
    segments.reverse()

    lead_in = max(segments[0].t0 - job_start, 0.0) if segments else 0.0
    rollup = {k: 0.0 for k in ROLLUP_KEYS}
    # Job startup is what precedes the first schedulable work in both
    # engines (the job-level STARTUP charge carries no span), so the
    # lead-in gap is startup time by construction.
    rollup["startup"] += lead_in
    prev_end: Optional[float] = None
    for seg in segments:
        if prev_end is not None and seg.t0 > prev_end + _EPS:
            rollup[WAIT] += seg.t0 - prev_end
        prev_end = seg.t1
        shares = seg.charges_share()
        explained = 0.0
        for bucket, sec in shares.items():
            rollup[bucket] = rollup.get(bucket, 0.0) + sec
            explained += sec
        rollup[OTHER] += max(seg.duration - explained, 0.0)
    return CriticalPath(
        segments=segments,
        makespan=makespan,
        job_start=job_start,
        lead_in=lead_in,
        rollup=rollup,
    )


# -- rendering ------------------------------------------------------------------


def render_critpath(
    cp: CriticalPath,
    title: str = "Critical path",
    max_segments: int = 12,
    what_ifs: Sequence[Sequence[str]] = (("disk", "startup"), ("atomic", "stall")),
) -> str:
    """ASCII summary: rollup, the dominant segments, and what-if bounds."""
    from repro.evaluation.report import render_table

    if not cp.segments:
        return f"{title}: (no work spans recorded — was the run traced?)"
    lines = [
        f"{title}: {len(cp.segments)} segment(s), "
        f"{cp.path_seconds:.3f}s on-path of {cp.makespan:.3f}s makespan "
        f"(lead-in {cp.lead_in:.3f}s)"
    ]
    rows = [
        [key, cp.rollup.get(key, 0.0), 100.0 * cp.share(key)]
        for key in ROLLUP_KEYS
        if cp.rollup.get(key, 0.0) > 0.0
    ]
    lines.append(
        render_table(["bucket", "path seconds", "share %"], rows, title="Path rollup")
    )
    ordered = sorted(
        cp.segments, key=lambda s: (-s.duration, s.span.span_id)
    )[:max_segments]
    seg_rows = [
        [
            seg.span.name,
            f"n{seg.span.node}" if seg.span.node is not None else "-",
            seg.t0,
            seg.t1,
            seg.duration,
            seg.via or "-",
        ]
        for seg in ordered
    ]
    lines.append(
        render_table(
            ["segment", "node", "t0", "t1", "seconds", "via"],
            seg_rows,
            title=f"Dominant segments (top {len(seg_rows)} of {len(cp.segments)})",
        )
    )
    wi_rows = []
    for buckets in what_ifs:
        wi = cp.what_if(buckets)
        wi_rows.append(
            [
                "zero " + "+".join(wi.buckets),
                wi.removed,
                wi.bound_makespan,
                f"{wi.bound_speedup:.2f}x",
            ]
        )
    lines.append(
        render_table(
            ["what-if", "removed s", "bound makespan", "bound speedup"],
            wi_rows,
            title="What-if bounds (upper bounds: other paths may become critical)",
        )
    )
    return "\n\n".join(lines)
