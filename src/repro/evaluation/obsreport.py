"""Observability reports: per-node Gantt, blame breakdown, utilization.

Renders one engine run's :class:`~repro.obs.Tracer` as the paper-style
diagnostic the driver prints for ``python -m repro.evaluation report``:
where every node's threads were busy over virtual time, where each job's
task-seconds went (the §5.2 stall/atomic pathology shows up here), how
much was spilled, and how often flow control kicked in.

All output is deterministic — two identical runs render byte-identical
reports and serialize byte-identical JSON.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.common.units import format_bytes
from repro.evaluation.report import render_table
from repro.obs import BUCKETS, Tracer, lanes_of
from repro.obs.critpath import from_tracer, render_critpath

REPORT_SCHEMA = "repro.obs.report/v5"

#: glyph per task-span name prefix, in legend order
_GLYPHS = (
    ("load", "L"),
    ("map", "M"),
    ("partial_reduce", "P"),
    ("collect", "c"),
    ("finalize", "F"),
    ("reduce", "R"),
    ("spill", "s"),
    ("stall", "~"),
)


def _glyph(name: str) -> str:
    for prefix, glyph in _GLYPHS:
        if name.startswith(prefix):
            return glyph
    return "#"


def render_gantt(
    tracer: Tracer,
    width: int = 72,
    cats: tuple[str, ...] = ("task", "stall", "spill"),
    max_lanes_per_node: int = 6,
) -> str:
    """ASCII per-node Gantt: one row per concurrently-busy lane.

    Lanes come from the same greedy assignment as the Chrome trace's
    ``tid``s, so the two views agree on concurrency structure.
    """
    table = tracer.table
    attributions, codes = table.attributions, table.attribution
    rows = [
        row for row in table.finished()
        if attributions[codes[row]][1] in cats and attributions[codes[row]][2] is not None
    ]
    if not rows:
        return "(no task spans recorded — was the run traced?)"
    starts, ends, ids = table.start.data, table.end.data, table.ids.data
    t0 = min(starts[row] for row in rows)
    t1 = max(ends[row] for row in rows)
    extent = max(t1 - t0, 1e-12)
    lanes = lanes_of(table.lane_rows(rows))
    by_node: dict[int, dict[int, list[int]]] = {}
    for row in rows:
        node = attributions[codes[row]][2]
        by_node.setdefault(node, {}).setdefault(lanes[ids[row]], []).append(row)

    legend = "  ".join(f"{glyph}={prefix}" for prefix, glyph in _GLYPHS)
    lines = [
        f"Task timeline, virtual time {t0:.3f}s .. {t1:.3f}s  ({legend})",
    ]
    for node in sorted(by_node):
        node_lanes = sorted(by_node[node])
        for lane in node_lanes[:max_lanes_per_node]:
            row = [" "] * width
            for span in by_node[node][lane]:
                a = int((starts[span] - t0) / extent * (width - 1))
                b = int((ends[span] - t0) / extent * (width - 1))
                glyph = _glyph(attributions[codes[span]][0])
                for i in range(a, b + 1):
                    row[i] = glyph
            lines.append(f"  n{node:<3}|{''.join(row)}|")
        hidden = len(node_lanes) - max_lanes_per_node
        if hidden > 0:
            lines.append(f"  n{node:<3}... {hidden} more lane(s) not shown")
    return "\n".join(lines)


def render_blame(tracer: Tracer) -> str:
    """Per-job blame table: task-seconds and share per bucket."""
    jobs = tracer.blame.jobs()
    if not jobs:
        return "(no blame charges recorded)"
    sections = []
    for job in jobs:
        total = tracer.blame.job_total(job)
        summary = tracer.blame.job_summary(job)
        rows = [
            [bucket, summary[bucket], 100.0 * summary[bucket] / total if total else 0.0]
            for bucket in BUCKETS
        ]
        rows.append(["total", total, 100.0 if total else 0.0])
        sections.append(
            render_table(
                ["bucket", "task-seconds", "share %"],
                rows,
                title=f"Blame — job {job!r}",
            )
        )
    return "\n\n".join(sections)


def render_utilization(tracer: Tracer) -> str:
    """Per-node worker-thread utilization from the ``threads_busy`` series,
    plus each node's memory high-water mark and when it was reached."""
    series_by_node = {
        dict(key).get("node"): ts
        for key, ts in tracer.metrics._series.get("threads_busy", {}).items()
    }
    nodes = sorted(n for n in series_by_node if n is not None)
    if not nodes:
        return "(no thread-utilization series recorded)"
    high_water = {
        dict(key).get("node"): gauge.value
        for key, gauge in tracer.metrics._gauges.get("memory.high_water", {}).items()
    }
    high_water_time = {
        dict(key).get("node"): gauge.value
        for key, gauge in tracer.metrics._gauges.get("memory.high_water_time", {}).items()
    }
    end = tracer.sim.now
    rows = []
    for node in nodes:
        points = series_by_node[node].points
        busy_integral = 0.0
        peak = 0.0
        prev_t, prev_v = 0.0, 0.0
        for t, v in points:
            busy_integral += prev_v * (t - prev_t)
            prev_t, prev_v = t, v
            peak = max(peak, v)
        busy_integral += prev_v * (end - prev_t)
        mean = busy_integral / end if end > 0 else 0.0
        hw = high_water.get(node)
        rows.append(
            [
                f"n{node}",
                mean,
                int(peak),
                format_bytes(hw) if hw is not None else "-",
                f"{high_water_time.get(node, 0.0):.3f}s" if hw is not None else "-",
            ]
        )
    return render_table(
        ["node", "mean busy threads", "peak", "mem high-water", "at t"],
        rows,
        title="Thread utilization",
    )


def render_counters(tracer: Tracer) -> str:
    """Spill / DFS-locality / flow-control counter summary."""
    metrics = tracer.metrics
    rows = []
    for name, label in (
        ("spill.runs", "spill runs"),
        ("spill.bytes", "bytes spilled"),
        ("spill.bytes_read_back", "spill bytes read back"),
        ("dfs.local_reads", "DFS local block reads"),
        ("dfs.remote_reads", "DFS remote block reads"),
        ("flow.stalls", "flow-control stalls"),
    ):
        total = metrics.counter_total(name)
        if total:
            rows.append([label, int(total)])
    if not rows:
        return "(no spill / locality / stall events recorded)"
    return render_table(["event", "count"], rows, title="Spill, locality and flow control")


def spill_by_node(tracer: Tracer) -> dict:
    """Per-node cumulative spill activity from the node-labeled counters.

    The SpillPool's per-node :class:`~repro.storage.spill.SpillManager`\\ s
    charge ``spill.runs`` / ``spill.bytes`` / ``spill.bytes_read_back``
    with a ``node=`` label at every spill — this collects them into the
    per-node view the report shows (they were charged but never shown).
    """
    metrics = tracer.metrics
    runs = metrics.counter_by("spill.runs", "node")
    nbytes = metrics.counter_by("spill.bytes", "node")
    read_back = metrics.counter_by("spill.bytes_read_back", "node")
    nodes = sorted(
        n for n in set(runs) | set(nbytes) | set(read_back) if n is not None
    )
    return {
        "nodes": {
            str(node): {
                "runs": int(runs.get(node, 0)),
                "bytes": int(nbytes.get(node, 0)),
                "bytes_read_back": int(read_back.get(node, 0)),
            }
            for node in nodes
        },
        "total_runs": int(sum(runs.values())),
        "total_bytes": int(sum(nbytes.values())),
        "total_bytes_read_back": int(sum(read_back.values())),
    }


def render_spill(tracer: Tracer) -> str:
    """Per-node spill table: runs, cumulative bytes, read-back bytes."""
    spill = spill_by_node(tracer)
    if not spill["nodes"]:
        return "(no spill activity recorded)"
    rows = [
        [
            f"n{node}",
            entry["runs"],
            format_bytes(entry["bytes"]),
            format_bytes(entry["bytes_read_back"]),
        ]
        for node, entry in spill["nodes"].items()
    ]
    rows.append(
        [
            "total",
            spill["total_runs"],
            format_bytes(spill["total_bytes"]),
            format_bytes(spill["total_bytes_read_back"]),
        ]
    )
    return render_table(
        ["node", "spill runs", "bytes spilled", "bytes read back"],
        rows,
        title="Spill activity by node (logical bytes)",
    )


def render_percentiles(tracer: Tracer) -> str:
    """p50/p95/p99 summary per histogram family (span durations etc.)."""
    rows = []
    for name, family in tracer.metrics.histogram_families().items():
        for labels, hist in family:
            if not hist.count:
                continue
            label = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            pct = hist.percentiles()
            rows.append(
                [f"{name}{{{label}}}" if label else name, hist.count,
                 pct["p50"], pct["p95"], pct["p99"]]
            )
    if not rows:
        return "(no histogram observations recorded)"
    return render_table(
        ["histogram", "n", "p50", "p95", "p99"], rows, title="Duration percentiles"
    )


def render_critpaths(tracer: Tracer) -> str:
    """Critical-path section: one path analysis per traced job."""
    jobs = tracer.blame.jobs()
    sections = []
    for job in jobs:
        cp = from_tracer(tracer, job=job)
        if not cp.segments:
            continue
        sections.append(render_critpath(cp, title=f"Critical path — job {job!r}"))
    if not sections:
        return "(no critical path — no finished spans recorded)"
    return "\n\n".join(sections)


def render_report(tracer: Tracer, title: str = "", trace_dropped: int = 0) -> str:
    """The full ASCII observability report for one traced run.

    ``trace_dropped`` is accepted and ignored: the benchmarks/perf harness passes it.
    """
    parts = [title] if title else []
    parts.append(render_gantt(tracer))
    parts.append(render_blame(tracer))
    parts.append(render_critpaths(tracer))
    parts.append(render_percentiles(tracer))
    parts.append(render_utilization(tracer))
    parts.append(render_counters(tracer))
    parts.append(render_spill(tracer))
    return "\n\n".join(parts)


def report_dict(tracer: Tracer, workload: str, engine: str) -> dict:
    """Deterministic JSON-serializable report (schema ``repro.obs.report/v5``)."""
    return {
        "schema": REPORT_SCHEMA,
        "workload": workload,
        "engine": engine,
        "virtual_end": tracer.sim.now,
        "blame": tracer.blame.snapshot(),
        "spill": spill_by_node(tracer),
        "counters": {
            name: tracer.metrics.counter_total(name)
            for name in tracer.metrics.names()
            if tracer.metrics._counters.get(name)
        },
        "span_counts": _span_counts(tracer),
        "critpath": from_tracer(tracer).to_dict(),
        "trace": tracer.to_dict(),
    }


def report_json(
    tracer: Tracer,
    workload: str,
    engine: str,
    indent: Optional[int] = None,
) -> str:
    return json.dumps(
        report_dict(tracer, workload, engine),
        sort_keys=True,
        indent=indent,
    )


def _span_counts(tracer: Tracer) -> dict[str, int]:
    table = tracer.table
    counts: dict[str, int] = {}
    for row in table.finished():
        cat = table.attributions[table.attribution[row]][1]
        counts[cat] = counts.get(cat, 0) + 1
    return dict(sorted(counts.items()))
