"""Perf history: append-only bench rows plus change-point detection.

``BENCH_history.jsonl`` holds one JSON row per bench run — the schema-v5
totals (virtual seconds, stall share, traffic bytes) and the git commit
that produced them — so the perf trajectory is a first-class artifact
instead of a single committed snapshot. Older rows may also carry
``wall_seconds`` and ``host_shares``; they load, and nothing reads them.

The ``trend`` CLI runs robust regression detection over each
workload × engine series: a reference median and MAD band over the
history prefix, and a *sustained shift* verdict when the last
``sustain`` rows all sit outside the band on the same side. Median + MAD
(not mean + stddev) keeps a single outlier run from moving the
reference, matching the run-to-run variance observed on virtualized
Hadoop clusters (arXiv 1411.3811); the sustain requirement keeps one
noisy row from paging anyone. A flagged shift points at ``explain`` for
attribution against the last good run's journal.
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import asdict
from typing import Any, Optional

from repro.obs.runspec import ENGINES, RunSpec
from repro.obs.summary import RunSummary

HISTORY_SCHEMA = "repro.obs.history/v1"
TREND_SCHEMA = "repro.obs.trend/v1"

#: default history file, relative to the repo root / cwd
DEFAULT_HISTORY_PATH = "BENCH_history.jsonl"

#: metrics a history row records per workload × engine
ROW_METRICS = ("virtual_seconds", "stall_share", "traffic_bytes")

#: minimum reference rows before the detector renders a verdict
DEFAULT_MIN_HISTORY = 4
#: band half-width in robust sigmas (1.4826 × MAD)
DEFAULT_THRESHOLD = 4.0
#: relative band floor — |v - median| below this fraction of the median
#: never flags, so near-zero MAD (byte-identical reruns) stays sane
DEFAULT_REL_FLOOR = 0.02
#: consecutive same-side outliers required to call a shift sustained
DEFAULT_SUSTAIN = 2


def resolve_commit() -> Optional[str]:
    """The current git commit (short), or None outside a checkout.

    ``REPRO_GIT_COMMIT`` overrides — CI sets it so history rows written
    in detached worktrees still attribute correctly.
    """
    env = os.environ.get("REPRO_GIT_COMMIT")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None


def history_row(payload: dict, commit: Optional[str] = None) -> dict:
    """One history row from a ``repro.obs.bench/v5`` payload."""
    schema = payload.get("schema", "")
    if not schema.startswith("repro.obs.bench/"):
        raise ValueError(f"not a bench payload (schema {schema!r})")
    rows: dict[str, dict[str, dict]] = {}
    for workload in sorted(payload.get("rows", {})):
        per_engine = payload["rows"][workload]
        for engine in ENGINES:
            entry = per_engine.get(engine)
            if not entry:
                continue
            summary = RunSummary.from_entry(workload, engine, entry)
            rows.setdefault(workload, {})[engine] = {
                "virtual_seconds": summary.makespan,
                "stall_share": summary.stall_share,
                "traffic_bytes": (summary.traffic or {}).get("total_bytes", 0.0),
                # the run's exchange configuration: trend series are keyed
                # on it, so a twolevel sweep never pollutes the direct
                # baseline's shift band
                "fabric": summary.spec.fabric,
                "partitioner": summary.spec.partitioner,
            }
    return {
        "schema": HISTORY_SCHEMA,
        "bench_schema": schema,
        "fidelity": payload.get("fidelity"),
        "commit": commit,
        "rows": rows,
    }


def encode_row(row: dict) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def append_history(row: dict, path: str) -> None:
    """Append one row; the file is never rewritten."""
    with open(path, "a") as fh:
        fh.write(encode_row(row) + "\n")


def load_history(path: str) -> list[dict]:
    """All rows, oldest first; blank lines skipped, schema validated."""
    rows = []
    with open(path) as fh:
        for i, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{i}: malformed history row") from exc
            if row.get("schema") != HISTORY_SCHEMA:
                raise ValueError(
                    f"{path}:{i}: unsupported history schema {row.get('schema')!r}"
                )
            rows.append(row)
    return rows


def series_entries(
    history: list[dict], spec: RunSpec, metric: str
) -> list[tuple[float, Optional[str]]]:
    """``(value, commit)`` of one metric per history row holding the run.

    A series is a full run identity — workload × engine × fabric ×
    partitioner — so cross-fabric runs never mix into one band; rows
    written before fabrics were recorded are default-configuration runs,
    so old history files keep trending.
    """
    out = []
    for row in history:
        entry = row.get("rows", {}).get(spec.workload, {}).get(spec.engine)
        if entry is not None and metric in entry and RunSpec.from_entry(
            spec.workload, spec.engine, entry
        ) == spec:
            out.append((float(entry[metric]), row.get("commit")))
    return out


def series(history: list[dict], spec: RunSpec, metric: str) -> list[float]:
    """One metric's value per history row (rows missing the run skipped)."""
    return [value for value, _commit in series_entries(history, spec, metric)]


# -- change-point detection ---------------------------------------------------------


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def detect_shift(
    values: list[float],
    min_history: int = DEFAULT_MIN_HISTORY,
    threshold: float = DEFAULT_THRESHOLD,
    rel_floor: float = DEFAULT_REL_FLOOR,
    sustain: int = DEFAULT_SUSTAIN,
) -> dict:
    """Sustained-shift detection over one value series.

    Walks the series left to right keeping a clean reference prefix
    (everything before the first outlier of the eventual shift): a value
    is an outlier when it leaves the band ``median ± max(threshold ×
    1.4826 × MAD, rel_floor × |median|)`` computed over the reference. A
    shift is confirmed once ``sustain`` consecutive rows sit outside on
    the same side; the verdict reports the first shifted index.

    Returns ``{"status": "SHORT" | "STABLE" | "SHIFT", ...}`` with the
    reference median/MAD, and for SHIFT the shift index, direction
    (+1 = regression for cost metrics), latest value and delta vs median.
    """
    n = len(values)
    if n < max(min_history + 1, sustain + 1):
        return {"status": "SHORT", "n": n}

    def band(reference: list[float]) -> tuple[float, float]:
        med = _median(reference)
        mad = _median([abs(v - med) for v in reference])
        width = max(threshold * 1.4826 * mad, rel_floor * abs(med))
        return med, width

    streak_start: Optional[int] = None
    streak_side = 0
    med = width = 0.0
    for i in range(min_history, n):
        reference = values[: i if streak_start is None else streak_start]
        med, width = band(reference)
        value = values[i]
        side = 0
        if value > med + width:
            side = 1
        elif value < med - width:
            side = -1
        if side == 0 or (streak_side and side != streak_side):
            streak_start, streak_side = None, 0
            if side:
                streak_start, streak_side = i, side
        elif streak_start is None:
            streak_start, streak_side = i, side
        if streak_start is not None and i - streak_start + 1 >= sustain:
            delta = values[-1] - med
            return {
                "status": "SHIFT",
                "n": n,
                "index": streak_start,
                "direction": streak_side,
                "median": round(med, 6),
                "band": round(width, 6),
                "latest": values[-1],
                "delta_pct": round(100.0 * delta / med, 3) if med else None,
            }
    reference = values[: streak_start if streak_start is not None else n]
    med, width = band(reference)
    return {
        "status": "STABLE",
        "n": n,
        "median": round(med, 6),
        "band": round(width, 6),
        "latest": values[-1],
    }


def trend_report(
    history: list[dict],
    metric: str = "virtual_seconds",
    workloads: Optional[list[str]] = None,
    engines: Optional[list[str]] = None,
    **detect_kwargs: Any,
) -> dict:
    """Shift verdicts for every workload × engine × fabric × partitioner
    series in the history."""
    specs = {
        RunSpec.from_entry(workload, engine, entry)
        for row in history
        for workload, per_engine in row.get("rows", {}).items()
        for engine, entry in per_engine.items()
    }
    results = []
    for spec in sorted(specs):
        if workloads is not None and spec.workload not in workloads:
            continue
        if engines is not None and spec.engine not in engines:
            continue
        verdict = detect_shift(series(history, spec, metric), **detect_kwargs)
        verdict.update(asdict(spec))
        results.append(verdict)
    return {
        "schema": TREND_SCHEMA,
        "metric": metric,
        "rows_total": len(history),
        "results": results,
        "shifts": sum(1 for r in results if r["status"] == "SHIFT"),
    }


def render_trend(report: dict, history_path: Optional[str] = None) -> str:
    """One line per series; every SHIFT row prints the exact ready-to-run
    ``doctor`` command that diagnoses it against the journal corpus."""
    history_path = history_path or DEFAULT_HISTORY_PATH
    lines = [
        f"trend over {report['rows_total']} history rows, metric {report['metric']}",
        f"{'series':<32} {'status':<8} "
        f"{'median':>14} {'latest':>14} shift",
        "-" * 76,
    ]
    doctor_commands = []
    for r in report["results"]:
        # the canonical selector: exactly what `doctor --shift` accepts
        label = str(RunSpec.from_header(r))
        if r["status"] == "SHORT":
            detail = f"(only {r['n']} rows)"
            lines.append(
                f"{label:<32} {r['status']:<8} {'-':>14} {'-':>14} {detail}"
            )
            continue
        shift = "-"
        if r["status"] == "SHIFT":
            arrow = "+" if r["direction"] > 0 else "-"
            pct = f"{abs(r['delta_pct']):.1f}%" if r.get("delta_pct") is not None else "?"
            shift = f"row {r['index']} ({arrow}{pct})"
            doctor_commands.append(
                f"python -m repro.evaluation doctor --shift {label} "
                f"--history {history_path} --metric {report['metric']}"
            )
        lines.append(
            f"{label:<32} {r['status']:<8} "
            f"{r['median']:>14.3f} {r['latest']:>14.3f} {shift}"
        )
    lines.append("-" * 76)
    if report["shifts"]:
        lines.append(
            f"{report['shifts']} sustained shift(s) detected — diagnose with:"
        )
        for command in doctor_commands:
            lines.append(f"  {command}")
    else:
        lines.append("no sustained shifts")
    return "\n".join(lines)
