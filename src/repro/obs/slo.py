"""Declarative per-workload SLOs: what "healthy" means, checked by machine.

An :class:`SLOSpec` states four objectives for one workload × engine run:

- ``makespan_budget`` — the run must finish within this many virtual
  seconds;
- ``max_stall_share`` — flow-control stall blame may take at most this
  share of the run's total blame (task-seconds, so the share is in
  ``[0, 1]`` regardless of parallelism);
- ``traffic_ceiling`` — total exchanged bytes (the drift-gated traffic
  totals) must stay under this ceiling;
- ``max_straggler_cv`` — the coefficient of variation of per-node CPU
  busy-seconds must stay under this bound (live runs only: the committed
  BENCH artifact does not carry per-node timelines).

Any objective may be None (unbounded). :data:`DEFAULT_SLOS` encodes the
committed ``BENCH_obs.json`` baseline (small fidelity) with headroom —
1.25× on makespan and traffic, +0.10 on stall share — so the committed
run passes and a seeded 2× makespan regression breaches.

Specs are evaluated post-run (``slo`` CLI verdict table, exit 1 on any
FAIL) and live (:class:`repro.obs.live.LiveMonitor` escalates a frame to
SLO_BREACH the moment an objective is violated mid-run).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

from repro.obs.summary import RunSummary

SLO_SCHEMA = "repro.obs.slo/v1"

#: objective names, in verdict-table order
OBJECTIVES = ("makespan", "stall_share", "traffic_bytes", "straggler_cv")

#: default straggler bound: per-node CPU busy-seconds CV (population).
#: Clean runs measure up to ~1.56 (tiny naive_bayes on HAMR — sparse
#: stages concentrate on few nodes), so a CV past 2.0 means genuinely
#: skewed placement, not fidelity-induced sparseness.
DEFAULT_MAX_CV = 2.0


@dataclass(frozen=True)
class SLOSpec:
    """Objective bounds for one workload × engine (None = unbounded)."""

    makespan_budget: Optional[float] = None
    max_stall_share: Optional[float] = None
    traffic_ceiling: Optional[float] = None
    max_straggler_cv: Optional[float] = None

    def merged(self, overrides: dict) -> "SLOSpec":
        """A copy with any of the four fields replaced from a dict."""
        known = {f for f in self.__dataclass_fields__}
        bad = set(overrides) - known
        if bad:
            raise ValueError(
                f"unknown SLO fields {sorted(bad)}; pick from {sorted(known)}"
            )
        return replace(self, **overrides)


#: committed-baseline SLOs: BENCH_obs.json (small fidelity) plus headroom
#: (makespan ×1.25, stall share +0.10, traffic ×1.25)
DEFAULT_SLOS: dict[tuple[str, str], SLOSpec] = {
    ("classification", "hamr"): SLOSpec(136.851, 0.1, 470869810213.454, DEFAULT_MAX_CV),
    ("classification", "hadoop"): SLOSpec(1757.786, 0.1, 402653184000.0, DEFAULT_MAX_CV),
    ("histogram_movies", "hamr"): SLOSpec(38.0, 0.1, 47021201798.385, DEFAULT_MAX_CV),
    ("histogram_movies", "hadoop"): SLOSpec(61.31, 0.1, 22550.0, DEFAULT_MAX_CV),
    ("histogram_ratings", "hamr"): SLOSpec(318.285, 0.9, 158589549210.159, DEFAULT_MAX_CV),
    ("histogram_ratings", "hadoop"): SLOSpec(108.46, 0.1, 29750.0, DEFAULT_MAX_CV),
    ("kcliques", "hamr"): SLOSpec(69.35, 0.339, 31338325046.831, DEFAULT_MAX_CV),
    ("kcliques", "hadoop"): SLOSpec(1250.77, 0.1, 35490814043.878, DEFAULT_MAX_CV),
    ("kmeans", "hamr"): SLOSpec(141.37, 0.1, 654918268697.354, DEFAULT_MAX_CV),
    ("kmeans", "hadoop"): SLOSpec(2067.306, 0.1, 402653184000.0, DEFAULT_MAX_CV),
    ("naive_bayes", "hamr"): SLOSpec(56.499, 0.324, 29945692013.333, DEFAULT_MAX_CV),
    ("naive_bayes", "hadoop"): SLOSpec(226.869, 0.1, 16523919213.333, DEFAULT_MAX_CV),
    ("pagerank", "hamr"): SLOSpec(273.849, 0.1, 187904819200.0, DEFAULT_MAX_CV),
    ("pagerank", "hadoop"): SLOSpec(2347.734, 0.1, 363730042880.0, DEFAULT_MAX_CV),
    ("wordcount", "hamr"): SLOSpec(51.53, 0.734, 68405086495.703, DEFAULT_MAX_CV),
    ("wordcount", "hadoop"): SLOSpec(64.463, 0.1, 2903796.25, DEFAULT_MAX_CV),
}


def load_slo_file(path: str) -> dict[str, dict]:
    """Load a spec-override file: ``{"workload:engine": {field: value},
    "*": {field: value}}`` (the wildcard applies to every pair first)."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"SLO spec file {path} must hold a JSON object")
    for key, fields in data.items():
        if not isinstance(fields, dict):
            raise ValueError(f"SLO spec for {key!r} must be an object")
    return data


def spec_for(
    workload: str, engine: str, overrides: Optional[dict[str, dict]] = None
) -> SLOSpec:
    """The effective spec: defaults, then ``*`` overrides, then exact."""
    spec = DEFAULT_SLOS.get((workload, engine), SLOSpec())
    if overrides:
        if "*" in overrides:
            spec = spec.merged(overrides["*"])
        exact = overrides.get(f"{workload}:{engine}")
        if exact:
            spec = spec.merged(exact)
    return spec


# -- evaluation ---------------------------------------------------------------------


def evaluate_measures(spec: SLOSpec, measures: dict[str, Optional[float]]) -> list[dict]:
    """Verdict rows for one run's measures against one spec.

    ``measures`` maps objective name to measured value; None means the
    measure is unavailable in this mode (verdict ``n/a``). Unbounded
    objectives also report ``n/a``. A row FAILs when value > bound.
    """
    bounds = {
        "makespan": spec.makespan_budget,
        "stall_share": spec.max_stall_share,
        "traffic_bytes": spec.traffic_ceiling,
        "straggler_cv": spec.max_straggler_cv,
    }
    rows = []
    for objective in OBJECTIVES:
        bound = bounds[objective]
        value = measures.get(objective)
        if bound is None or value is None:
            verdict = "n/a"
        elif value > bound:
            verdict = "FAIL"
        else:
            verdict = "PASS"
        rows.append(
            {"objective": objective, "value": value, "bound": bound, "verdict": verdict}
        )
    return rows


def evaluate(summary: RunSummary, overrides: Optional[dict] = None) -> dict:
    """Evaluate one run's summary against its spec. A summary decoded
    from a BENCH artifact entry has no straggler statistics (artifacts
    carry no per-node timelines), so its CV objective reports n/a; a
    live or replayed run's summary measures all four."""
    workload, engine = summary.spec.workload, summary.spec.engine
    measures = {
        "makespan": summary.makespan,
        "stall_share": summary.stall_share,
        "traffic_bytes": (summary.traffic or {}).get("total_bytes"),
        "straggler_cv": summary.straggler["cv"] if summary.straggler else None,
    }
    checks = evaluate_measures(spec_for(workload, engine, overrides), measures)
    return {
        "workload": workload,
        "engine": engine,
        "checks": checks,
        "ok": all(c["verdict"] != "FAIL" for c in checks),
    }


def slo_dict(results: list[dict], source: str) -> dict:
    """The ``slo`` CLI's deterministic JSON payload."""
    return {
        "schema": SLO_SCHEMA,
        "source": source,
        "results": results,
        "ok": all(r["ok"] for r in results),
    }


# -- rendering ----------------------------------------------------------------------


def _fmt_value(objective: str, value: Optional[float]) -> str:
    if value is None:
        return "-"
    if objective == "traffic_bytes":
        return f"{value:.0f}"
    return f"{value:.3f}"


def render_slo(results: list[dict]) -> str:
    """The verdict table: one line per workload × engine × objective."""
    lines = [
        f"{'workload':<20} {'engine':<8} {'objective':<14} "
        f"{'value':>16} {'bound':>16} verdict",
        "-" * 84,
    ]
    for result in results:
        for check in result["checks"]:
            lines.append(
                f"{result['workload']:<20} {result['engine']:<8} "
                f"{check['objective']:<14} "
                f"{_fmt_value(check['objective'], check['value']):>16} "
                f"{_fmt_value(check['objective'], check['bound']):>16} "
                f"{check['verdict']}"
            )
    breached = [r for r in results if not r["ok"]]
    lines.append("-" * 84)
    if breached:
        pairs = ", ".join(f"{r['workload']}/{r['engine']}" for r in breached)
        lines.append(f"SLO BREACH: {pairs}")
    else:
        lines.append("all SLOs met")
    return "\n".join(lines)
