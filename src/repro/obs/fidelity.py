"""Model-fidelity audit: does modeled virtual cost track real host cost?

The cost model charges virtual seconds per record/byte
(:class:`repro.cluster.spec.CostModel`); the host profiler
(:mod:`repro.obs.hostprof`) measures real nanoseconds for the same
operators. This module joins the two clocks:

* :func:`fidelity_dict` / :func:`render_fidelity` — per-operator ratio
  tables (host ns per modeled virtual second). The labels of the
  engine-bucket host frames are chosen to match span names
  (``map:words``, ``reduce``, ...), so the join needs no extra mapping.
  An operator whose ratio deviates from the run median by more than a
  tolerance *factor* gets a DRIFT verdict — the loud failure mode for a
  cost constant that no longer tracks real compute (cf. Ivanov et al.,
  PAPERS.md: modeled substrate costs silently diverging from measured).
* :func:`fit_cost_constants` / :func:`calibration_dict` — a least-squares
  re-fit of the per-record/per-byte compute constants from measured
  ``(records, bytes, self_ns)`` samples. The proposal preserves the
  total modeled compute over the measured fleet (the virtual unit is the
  paper's calibration, not ours to move), so calibration corrects the
  record:byte *composition*, never the absolute scale. It is emitted as
  a proposed-constants diff and **never applied**.

Ratios compare host self-ns of an operator's frames against the summed
virtual *durations* of the same-named spans. Span durations include
modeled waits (disk, network, contention), so the interesting signal is
an operator whose ratio is far from its peers', not the absolute value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.obs.blame import ATOMIC, COMPUTE, DISK
from repro.obs.hostprof import DATAPLANE, ENGINE, HOSTPROF_SCHEMA, STORAGE
from repro.obs.runspec import RunSpec
from repro.obs.summary import RunSummary

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.spec import CostModel
    from repro.obs.spans import Tracer

FIDELITY_SCHEMA = "repro.obs.fidelity/v1"
CALIBRATION_SCHEMA = "repro.obs.calibration/v1"

#: default drift tolerance: a factor (not a share) — an operator whose
#: host-per-virtual ratio is >4x or <1/4x the run median draws DRIFT
DEFAULT_RATIO_TOLERANCE = 4.0


# -- fidelity audit ----------------------------------------------------------------


def _virtual_by_operator(tracer: "Tracer") -> dict[str, list[float]]:
    """Sum finished span durations by span name -> [seconds, count]."""
    out: dict[str, list[float]] = {}
    for span in tracer.finished_spans():
        entry = out.setdefault(span.name, [0.0, 0])
        entry[0] += span.duration
        entry[1] += 1
    return out


def fidelity_dict(
    tracer: "Tracer",
    snapshot: dict,
    workload: str,
    engine: str,
    tolerance: float = DEFAULT_RATIO_TOLERANCE,
) -> dict:
    """Join host ns against modeled virtual seconds per operator/bucket."""
    if snapshot.get("schema") != HOSTPROF_SCHEMA:
        raise ValueError(f"not a hostprof snapshot: {snapshot.get('schema')!r}")
    if tolerance <= 1.0:
        raise ValueError(f"ratio tolerance must be > 1 (a factor): {tolerance}")
    virtual = _virtual_by_operator(tracer)
    host_rows = [
        row
        for row in snapshot["flat"]
        if row["bucket"] in (ENGINE, STORAGE, DATAPLANE)
        and not row["label"].startswith("process:")
    ]
    operators = []
    ratios = []
    for row in host_rows:
        vsec, vcount = virtual.get(row["label"], (0.0, 0))
        ratio = (row["self_ns"] / vsec) if vsec > 0 else None
        if ratio is not None and ratio > 0:
            ratios.append(ratio)
        operators.append(
            {
                "operator": row["label"],
                "bucket": row["bucket"],
                "host_ns": row["self_ns"],
                "calls": row["calls"],
                "records": row["records"],
                "virtual_seconds": round(vsec, 6),
                "virtual_spans": vcount,
                "ns_per_virtual_second": round(ratio, 3) if ratio is not None else None,
            }
        )
    ratios.sort()
    median = ratios[len(ratios) // 2] if ratios else 0.0
    drifting = []
    for op in operators:
        ratio = op["ns_per_virtual_second"]
        if ratio is None or median <= 0:
            op["verdict"] = "host-only" if ratio is None else "ok"
            continue
        off = ratio / median if ratio >= median else median / ratio
        op["verdict"] = "DRIFT" if off > tolerance else "ok"
        if op["verdict"] == "DRIFT":
            drifting.append(op["operator"])
    operators.sort(key=lambda op: (-op["host_ns"], op["operator"]))

    # Bucket-level join over every job: virtual compute vs the host buckets
    # that run user + framework code, virtual disk vs host storage staging.
    summary = RunSummary.from_tracer(RunSpec(workload, engine), tracer, tracer.sim.now)
    blame = summary.blame
    host_buckets = snapshot["buckets"]
    compute_like_ns = host_buckets.get(ENGINE, 0) + host_buckets.get(DATAPLANE, 0)
    buckets = {
        "virtual_compute_seconds": round(blame[COMPUTE] + blame[ATOMIC], 6),
        "host_engine_dataplane_ns": compute_like_ns,
        "virtual_disk_seconds": blame[DISK],
        "host_storage_ns": host_buckets.get(STORAGE, 0),
    }
    return {
        "schema": FIDELITY_SCHEMA,
        "workload": workload,
        "engine": engine,
        "tolerance_factor": tolerance,
        "virtual_makespan": summary.makespan,
        "host_total_ns": snapshot["total_ns"],
        "median_ns_per_virtual_second": round(median, 3),
        "drift": sorted(drifting),
        "operators": operators,
        "buckets": buckets,
    }


def render_fidelity(fid: dict) -> str:
    """Deterministic-layout ASCII ratio table (values are host noise)."""
    from repro.evaluation.report import render_table

    rows = []
    for op in fid["operators"]:
        ratio = op["ns_per_virtual_second"]
        rows.append(
            [
                op["operator"],
                op["bucket"],
                str(op["calls"]),
                f"{op['host_ns'] / 1e6:.2f}",
                f"{op['virtual_seconds']:.3f}",
                f"{ratio:,.0f}" if ratio is not None else "-",
                op["verdict"],
            ]
        )
    table = render_table(
        ["operator", "bucket", "calls", "host ms", "virtual s", "ns/vs", "verdict"],
        rows,
        title=(
            f"Model fidelity — {fid['workload']} on {fid['engine']} "
            f"(median {fid['median_ns_per_virtual_second']:,.0f} ns per "
            f"virtual second, drift beyond {fid['tolerance_factor']:g}x)"
        ),
    )
    verdict = (
        "fidelity OK — every joined operator within the tolerance band"
        if not fid["drift"]
        else "DRIFT in " + ", ".join(fid["drift"])
    )
    return f"{table}\n{verdict}"


# -- calibration fitter ------------------------------------------------------------


@dataclass
class CostFit:
    """Measured per-record/per-byte host cost and the proposed constants."""

    ns_per_record: float  # fitted A (host ns per real record)
    ns_per_byte: float  # fitted B (host ns per real logical byte)
    r_squared: float
    samples: int
    records: int
    nbytes: int
    current_cpu_per_record: float
    current_cpu_per_byte: float
    proposed_cpu_per_record: float
    proposed_cpu_per_byte: float
    degenerate: bool = False  # collinear units: ratio kept, only scale fit


def _engine_samples(snapshot: dict) -> list[tuple[int, int, int, str]]:
    """(records, nbytes, self_ns, label) rows usable for the fit."""
    return [
        (row["records"], row["nbytes"], row["self_ns"], row["label"])
        for row in snapshot["flat"]
        if row["bucket"] == ENGINE
        and not row["label"].startswith("process:")
        and (row["records"] > 0 or row["nbytes"] > 0)
    ]


def fit_cost_constants(
    samples: list[tuple[int, int, int, str]], cost: "CostModel"
) -> Optional[CostFit]:
    """Least-squares fit ``self_ns ~ A*records + B*nbytes`` -> proposal.

    Returns None when there is nothing to fit. The proposed constants are
    the fitted (A, B) rescaled by one common factor so the total modeled
    compute over the fitted samples is unchanged — see the module
    docstring for why absolute scale is pinned.
    """
    rows = [(n, b, ns) for n, b, ns, _ in samples if ns > 0 and (n > 0 or b > 0)]
    if not rows:
        return None
    snn = sum(n * n for n, _, _ in rows)
    snb = sum(n * b for n, b, _ in rows)
    sbb = sum(b * b for _, b, _ in rows)
    sny = sum(n * ns for n, _, ns in rows)
    sby = sum(b * ns for _, b, ns in rows)
    det = snn * sbb - snb * snb
    degenerate = det <= 1e-9 * max(snn * sbb, 1.0)
    if not degenerate:
        a = (sbb * sny - snb * sby) / det
        b = (snn * sby - snb * sny) / det
        if a < 0 or b < 0:
            degenerate = True  # collinear-noise artifact: keep the ratio
    if degenerate:
        # Fit a single scalar along the current record:byte composition.
        byte_weight = (
            cost.cpu_per_byte / cost.cpu_per_record if cost.cpu_per_record else 0.0
        )
        x2 = sum((n + b * byte_weight) ** 2 for n, b, _ in rows)
        xy = sum((n + b * byte_weight) * ns for n, b, ns in rows)
        a = xy / x2 if x2 else 0.0
        b = a * byte_weight
    predicted = [a * n + b * bb for n, bb, _ in rows]
    mean = sum(ns for _, _, ns in rows) / len(rows)
    ss_tot = sum((ns - mean) ** 2 for _, _, ns in rows)
    ss_res = sum((ns - p) ** 2 for (_, _, ns), p in zip(rows, predicted))
    r2 = 1.0 - (ss_res / ss_tot) if ss_tot > 0 else 1.0
    # Normalize: keep the total modeled compute over the fitted samples.
    v_cur = sum(
        n * cost.cpu_per_record + bb * cost.cpu_per_byte for n, bb, _ in rows
    )
    v_fit = sum(predicted)
    scale = v_cur / v_fit if v_fit > 0 else 0.0
    return CostFit(
        ns_per_record=a,
        ns_per_byte=b,
        r_squared=r2,
        samples=len(rows),
        records=sum(n for n, _, _ in rows),
        nbytes=sum(bb for _, bb, _ in rows),
        current_cpu_per_record=cost.cpu_per_record,
        current_cpu_per_byte=cost.cpu_per_byte,
        proposed_cpu_per_record=a * scale,
        proposed_cpu_per_byte=b * scale,
        degenerate=degenerate,
    )


def calibration_dict(fit: CostFit, sources: list[str]) -> dict:
    def _rel(cur: float, new: float) -> Optional[float]:
        return round((new - cur) / cur, 6) if cur else None

    return {
        "schema": CALIBRATION_SCHEMA,
        "sources": sorted(sources),
        "samples": fit.samples,
        "records": fit.records,
        "nbytes": fit.nbytes,
        "degenerate": fit.degenerate,
        "r_squared": round(fit.r_squared, 6),
        "measured": {
            "ns_per_record": round(fit.ns_per_record, 6),
            "ns_per_byte": round(fit.ns_per_byte, 9),
        },
        "current": {
            "cpu_per_record": fit.current_cpu_per_record,
            "cpu_per_byte": fit.current_cpu_per_byte,
        },
        "proposed": {
            "cpu_per_record": fit.proposed_cpu_per_record,
            "cpu_per_byte": fit.proposed_cpu_per_byte,
        },
        "rel_change": {
            "cpu_per_record": _rel(
                fit.current_cpu_per_record, fit.proposed_cpu_per_record
            ),
            "cpu_per_byte": _rel(fit.current_cpu_per_byte, fit.proposed_cpu_per_byte),
        },
    }


def render_calibration(cal: dict) -> str:
    """The proposed-constants diff (display only — never applied)."""
    lines = [
        f"calibration over {cal['samples']} operator rows "
        f"({cal['records']:,} records, {cal['nbytes']:,} logical bytes) "
        f"from {len(cal['sources'])} run(s); fit R^2 = {cal['r_squared']:.4f}"
        + (" [degenerate: record/byte units collinear, ratio kept]"
           if cal["degenerate"] else ""),
        f"measured host cost: {cal['measured']['ns_per_record']:.1f} ns/record, "
        f"{cal['measured']['ns_per_byte']:.3f} ns/byte",
        "",
        "proposed CostModel constants "
        "(normalized to preserve total modeled compute — NOT applied):",
        "--- repro/cluster/spec.py CostModel (current)",
        "+++ proposed (measured composition)",
    ]
    for key in ("cpu_per_record", "cpu_per_byte"):
        cur = cal["current"][key]
        new = cal["proposed"][key]
        rel = cal["rel_change"][key]
        rel_text = f"{100.0 * rel:+.1f}%" if rel is not None else "n/a"
        lines.append(f"-    {key}: float = {cur:.6e}")
        lines.append(f"+    {key}: float = {new:.6e}   # {rel_text}")
    return "\n".join(lines)
