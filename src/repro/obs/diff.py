"""Differential profiling: compare two observability artifacts.

Credible Hadoop-class evaluation needs run-over-run comparison with
explicit variance/regression criteria, not one-shot numbers. This module
diffs two artifacts — bench baselines (``repro.obs.bench/*``, e.g.
the committed ``BENCH_obs.json``) or report exports
(``repro.obs.report/*``) — per workload × engine: virtual seconds,
blame-bucket deltas, critical-path composition and (bench v4+)
telemetry traffic-matrix totals — the virtual clock only; host time is
measured by ``benchmarks/perf``. The result renders as a deterministic
ASCII table plus a JSON delta report, and carries a drift verdict
against a configurable relative tolerance — the CI perf-regression gate
runs this diff at ``--tolerance 0`` to explain any byte ``cmp`` rejects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.runspec import ENGINES, RunSpec
from repro.obs.summary import RunSummary

DIFF_SCHEMA = "repro.obs.diff/v1"

#: artifact schema prefixes this module understands
_BENCH_PREFIX = "repro.obs.bench/"
_REPORT_PREFIX = "repro.obs.report/"


class ArtifactError(ValueError):
    """The input file is not a comparable observability artifact."""


def normalize(artifact: dict, source: str = "<artifact>") -> dict:
    """Normalize an artifact to ``{workload: {engine label: RunSummary}}``:
    an off-default run (``hamr@twolevel+shard``) never gates against a
    default baseline row.

    A report document carries no bench entry, only its per-job blame, so
    its summary sums those jobs the way :meth:`RunSummary.from_tracer`
    sums the ledger's (DESIGN.md §6.4.1)."""
    schema = artifact.get("schema", "")
    rows: dict[str, dict[str, RunSummary]] = {}
    if schema.startswith(_BENCH_PREFIX):
        for workload, row in artifact.get("rows", {}).items():
            summaries = (
                RunSummary.from_entry(workload, engine, row[engine])
                for engine in ENGINES
                if row.get(engine) is not None
            )
            rows[workload] = {s.spec.engine_label: s for s in summaries}
    elif schema.startswith(_REPORT_PREFIX):
        workload = artifact.get("workload", "unknown")
        engines = {}
        for engine, engine_report in artifact.get("engines", {}).items():
            critpath = engine_report.get("critpath")
            jobs = engine_report.get("blame", {})
            # a report document stamps its exchange configuration once, top level
            spec = RunSpec.from_entry(workload, engine, artifact)
            engines[spec.engine_label] = RunSummary.from_jobs(
                spec,
                engine_report["virtual_end"],
                [
                    (jobs[job].get("buckets", {}), jobs[job].get("total", 0.0))
                    for job in sorted(jobs)
                ],
                rollup=critpath["rollup"] if critpath else None,
            )
        rows[workload] = engines
    else:
        raise ArtifactError(
            f"{source}: unrecognized schema {schema!r} (expected "
            f"{_BENCH_PREFIX}* or {_REPORT_PREFIX}*)"
        )
    return rows


def load_artifact(path: str) -> dict:
    """Read and normalize one artifact file."""
    with open(path) as fh:
        return normalize(json.load(fh), source=path)


def _rel_delta(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if a == 0.0:
        return float("inf")
    return (b - a) / a


@dataclass
class DiffResult:
    """The full comparison, renderable as ASCII and as JSON."""

    rows: dict  # workload -> engine -> comparison dict
    only_a: list[str]
    only_b: list[str]
    tolerance: float
    drift: list[str] = field(default_factory=list)  # "workload/engine" keys

    @property
    def ok(self) -> bool:
        return not self.drift

    def to_dict(self) -> dict:
        return {
            "schema": DIFF_SCHEMA,
            "tolerance": self.tolerance,
            "ok": self.ok,
            "drift": sorted(self.drift),
            "only_a": sorted(self.only_a),
            "only_b": sorted(self.only_b),
            "rows": {
                workload: {
                    engine: self.rows[workload][engine]
                    for engine in sorted(self.rows[workload])
                }
                for workload in sorted(self.rows)
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


def diff_artifacts(a: dict, b: dict, tolerance: float = 0.01) -> DiffResult:
    """Compare two normalized artifacts (see :func:`normalize`).

    A workload × engine drifts when its virtual seconds moved by more than
    ``tolerance`` (relative) between A and B — or, when both sides carry
    telemetry traffic totals (bench schema v4+), when any traffic-matrix
    total (total/remote/per-mode bytes, payloads, records) drifts beyond
    the same tolerance. Shuffle-volume regressions therefore gate exactly
    like makespan regressions. Blame buckets and critical-path composition
    are reported per row for explanation only. Host-clock leaves an older
    artifact may still carry (``wall_seconds``, ``hostprof``) are ignored.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative: {tolerance}")
    shared = sorted(set(a) & set(b))
    result = DiffResult(
        rows={},
        only_a=sorted(set(a) - set(b)),
        only_b=sorted(set(b) - set(a)),
        tolerance=tolerance,
    )
    for workload in shared:
        engines_a, engines_b = a[workload], b[workload]
        row: dict = {}
        for engine in sorted(set(engines_a) & set(engines_b)):
            rec_a, rec_b = engines_a[engine], engines_b[engine]
            rel = _rel_delta(rec_a.makespan, rec_b.makespan)
            drifted = abs(rel) > tolerance
            blame_delta = {
                bucket: rec_b.blame.get(bucket, 0.0) - rec_a.blame.get(bucket, 0.0)
                for bucket in sorted(set(rec_a.blame) | set(rec_b.blame))
            }
            comparison = {
                "virtual_seconds_a": rec_a.makespan,
                "virtual_seconds_b": rec_b.makespan,
                "rel_delta": rel,
                "drift": drifted,
                "blame_delta": blame_delta,
            }
            if rec_a.critpath is not None and rec_b.critpath is not None:
                comparison["critpath_delta"] = {
                    key: rec_b.critpath.get(key, 0.0) - rec_a.critpath.get(key, 0.0)
                    for key in sorted(set(rec_a.critpath) | set(rec_b.critpath))
                }
            if rec_a.traffic is not None and rec_b.traffic is not None:
                traffic_delta = {}
                traffic_drift = []
                for key in sorted(set(rec_a.traffic) | set(rec_b.traffic)):
                    t_rel = _rel_delta(
                        rec_a.traffic.get(key, 0.0), rec_b.traffic.get(key, 0.0)
                    )
                    traffic_delta[key] = t_rel
                    if abs(t_rel) > tolerance:
                        traffic_drift.append(key)
                comparison["traffic_delta"] = traffic_delta
                comparison["traffic_drift"] = traffic_drift
                if traffic_drift:
                    drifted = True
                    comparison["drift"] = True
            row[engine] = comparison
            if drifted:
                result.drift.append(f"{workload}/{engine}")
        result.rows[workload] = row
    return result


def render_diff(result: DiffResult, label_a: str = "A", label_b: str = "B") -> str:
    """Deterministic ASCII delta report."""
    from repro.evaluation.report import render_table

    lines = []
    rows = []
    for workload in sorted(result.rows):
        for engine in sorted(result.rows[workload]):
            c = result.rows[workload][engine]
            rel = c["rel_delta"]
            rel_text = "inf" if rel == float("inf") else f"{100.0 * rel:+.3f}%"
            dominant = _dominant_blame_shift(c["blame_delta"])
            rows.append(
                [
                    workload,
                    engine,
                    f"{c['virtual_seconds_a']:.3f}",
                    f"{c['virtual_seconds_b']:.3f}",
                    rel_text,
                    "DRIFT" if c["drift"] else "ok",
                    dominant,
                ]
            )
    lines.append(
        render_table(
            ["workload", "engine", label_a, label_b, "delta", "verdict", "top blame shift"],
            rows,
            title=f"Differential profile ({label_a} -> {label_b}, "
            f"tolerance {100.0 * result.tolerance:g}%)",
        )
    )
    crit_rows = []
    for workload in sorted(result.rows):
        for engine in sorted(result.rows[workload]):
            c = result.rows[workload][engine]
            delta = c.get("critpath_delta")
            if not delta:
                continue
            moved = [
                f"{key} {sec:+.3f}s"
                for key, sec in sorted(delta.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
                if abs(sec) > 1e-9
            ][:3]
            crit_rows.append([workload, engine, ", ".join(moved) or "(unchanged)"])
    if crit_rows:
        lines.append(
            render_table(
                ["workload", "engine", "critical-path composition shift"],
                crit_rows,
                title="Critical-path deltas",
            )
        )
    traffic_rows = []
    for workload in sorted(result.rows):
        for engine in sorted(result.rows[workload]):
            c = result.rows[workload][engine]
            delta = c.get("traffic_delta")
            if delta is None:
                continue
            moved = [
                f"{key} {'inf' if rel == float('inf') else f'{100.0 * rel:+.3f}%'}"
                for key, rel in sorted(
                    delta.items(), key=lambda kv: (-abs(kv[1]), kv[0])
                )
                if abs(rel) > 1e-12
            ][:3]
            traffic_rows.append(
                [
                    workload,
                    engine,
                    "DRIFT" if c.get("traffic_drift") else "ok",
                    ", ".join(moved) or "(unchanged)",
                ]
            )
    if traffic_rows:
        lines.append(
            render_table(
                ["workload", "engine", "verdict", "traffic-matrix total shift"],
                traffic_rows,
                title="Traffic deltas",
            )
        )
    for label, missing in (("only in A", result.only_a), ("only in B", result.only_b)):
        if missing:
            lines.append(f"workloads {label}: {', '.join(missing)}")
    lines.append(
        "verdict: "
        + ("OK — within tolerance" if result.ok else f"DRIFT in {', '.join(sorted(result.drift))}")
    )
    if not result.ok:
        lines.append(
            "hint: run `python -m repro.evaluation explain <journal-A> <journal-B>` "
            "on the drifted rows' run journals for per-operator root-cause "
            "attribution (see `... journal --help`)."
        )
    return "\n\n".join(lines)


def _dominant_blame_shift(blame_delta: dict[str, float]) -> str:
    if not blame_delta:
        return "-"
    bucket, sec = max(blame_delta.items(), key=lambda kv: (abs(kv[1]), kv[0]))
    if abs(sec) < 1e-9:
        return "-"
    return f"{bucket} {sec:+.3f}s"
