"""Regression doctor: one verdict from the whole observability chain.

Diagnosing a regression by hand is a four-tool chain: ``trend`` flags
the shift, someone hunts down the right pair of journals, ``explain``
attributes the makespan delta, and the fidelity/skew/traffic views get
cross-checked one by one. The doctor automates the chain end to end:

1. **Locate** — resolve two run specs (journal paths, corpus
   fingerprint prefixes, or ``workload:engine[@fabric][+partitioner]``
   selectors) against the corpus index (:mod:`repro.obs.corpus`); or,
   in ``--shift`` mode, consume a ``trend`` SHIFT verdict and pick the
   baseline/regressed journals out of the corpus by producing commit
   (falling back to makespan proximity against the trend band).
2. **Diagnose** — replay both journals and chain the differential
   explain (:mod:`repro.obs.explain`), a journal-integrity audit
   (partial footers, trace drops, span balance, critical-path
   coverage), the per-node straggler skew statistics, and the traffic
   totals drift into one report.
3. **Rank** — every blame bucket that moved becomes a root-cause
   candidate, ranked by absolute makespan-delta contribution and
   tagged with a confidence tier (HIGH/MEDIUM/LOW) derived from its
   delta share, corroborating evidence (traffic drift for network,
   skew shifts, a seeded-slowdown marker in the journal footer) and
   the integrity audit. The top candidate gets a ready-to-run
   ``whatif`` counter-scenario: the bucket slowdown that, applied to
   the baseline journal, reproduces the regression.

Everything is derived from the two journals alone, so reports are
byte-deterministic — the seeded-regression self-test in CI (a journal
dilated by ``whatif --emit-journal``) asserts the injected bucket ranks
#1 with the injected delta.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.obs.blame import BUCKETS, NETWORK
from repro.obs.corpus import find_by_fingerprint
from repro.obs.critpath import from_tracer
from repro.obs.explain import ExplainResult, ExplainSide, explain, side_from_critpath
from repro.obs.replay import ReplayedRun
from repro.obs.runspec import RunSpec
from repro.obs.summary import RunSummary

DOCTOR_SCHEMA = "repro.obs.doctor/v1"

#: confidence tiers, strongest first
HIGH, MEDIUM, LOW = "HIGH", "MEDIUM", "LOW"

#: |delta share| thresholds for the base confidence tier
HIGH_SHARE = 0.6
MEDIUM_SHARE = 0.25

#: relative traffic-volume drift that corroborates a network verdict
TRAFFIC_DRIFT = 0.02

#: relative straggler-CV growth that flags a skew shift
CV_DRIFT = 0.2

#: verdicts listed per report
MAX_VERDICTS = 5


class DoctorError(ValueError):
    """A run spec cannot be resolved against the corpus index."""


# -- spec resolution ----------------------------------------------------------------


def _is_hex(text: str) -> bool:
    return len(text) >= 8 and all(c in "0123456789abcdef" for c in text)


def _selector(text: str) -> RunSpec:
    try:
        return RunSpec.parse(text)
    except ValueError as exc:
        raise DoctorError(str(exc)) from None


def _indexed(rows: list[dict], spec: RunSpec) -> list[dict]:
    return [row for row in rows if RunSpec.from_header(row) == spec]


def resolve_spec(rows: list[dict], spec: str, index_path: str) -> str:
    """One journal path for a doctor run spec.

    Accepts a journal path on disk, a corpus fingerprint prefix (>= 8
    hex chars), or a ``workload:engine[@fabric][+partitioner]`` selector
    that matches exactly one indexed run.
    """
    if os.path.exists(spec) or spec.endswith((".jsonl", ".jsonl.gz")):
        return spec
    if _is_hex(spec):
        matched = find_by_fingerprint(rows, spec)
        if not matched:
            raise DoctorError(f"no corpus row matches fingerprint {spec!r}")
        if len(matched) > 1:
            listing = ", ".join(row["fingerprint"][:12] for row in matched)
            raise DoctorError(
                f"fingerprint prefix {spec!r} is ambiguous ({listing})"
            )
        return locate_journal(matched[0], index_path)
    matched = _indexed(rows, _selector(spec))
    if not matched:
        raise DoctorError(f"no corpus row matches {spec!r}")
    if len(matched) > 1:
        listing = ", ".join(row["fingerprint"][:12] for row in matched)
        raise DoctorError(
            f"{spec!r} matches {len(matched)} corpus rows ({listing}) — "
            "pick one by fingerprint prefix"
        )
    return locate_journal(matched[0], index_path)


def locate_journal(row: dict, index_path: str) -> str:
    """The journal file behind a corpus row.

    Paths are stored as ingested; when the cwd has moved, retry relative
    to the index file's own directory.
    """
    path = row["path"]
    if os.path.exists(path):
        return path
    rebased = os.path.join(os.path.dirname(os.path.abspath(index_path)), path)
    if os.path.exists(rebased):
        return rebased
    raise DoctorError(
        f"journal {path!r} for corpus row {row['fingerprint'][:12]} not found "
        "(re-ingest from the journal directory?)"
    )


def resolve_shift(
    history: list[dict],
    corpus_rows: list[dict],
    spec: str,
    metric: str = "virtual_seconds",
    index_path: str = "",
    **detect_kwargs,
) -> tuple[str, str, dict]:
    """Turn a ``trend`` SHIFT verdict into a (baseline, regressed) pair.

    Runs the same detector ``trend`` uses over the selected series, then
    locates the two journals in the corpus: preferring rows whose
    ``commit`` matches the last in-band history row (baseline) and the
    latest history row (regressed), falling back to the rows whose
    makespans sit closest to the reference median / the latest value.
    Returns ``(path_a, path_b, shift_verdict)``.
    """
    from repro.obs.history import detect_shift, series_entries

    selected = _selector(spec)
    entries = series_entries(history, selected, metric)
    verdict = detect_shift([value for value, _commit in entries], **detect_kwargs)
    if verdict.get("status") != "SHIFT":
        raise DoctorError(
            f"no sustained shift in the {spec!r} series "
            f"(status {verdict.get('status')!r}) — nothing to diagnose"
        )
    candidates = _indexed(corpus_rows, selected)
    if not candidates:
        raise DoctorError(f"no corpus rows match the shifted series {spec!r}")
    baseline_commit = entries[verdict["index"] - 1][1] if verdict["index"] else None
    regressed_commit = entries[-1][1]

    def pick(commit: Optional[str], target: float, exclude: Optional[str]) -> dict:
        pool = [row for row in candidates if row["fingerprint"] != exclude]
        if not pool:
            raise DoctorError(
                f"the corpus holds only one {spec!r} run — need a baseline "
                "and a regressed journal to compare"
            )
        if commit is not None:
            by_commit = [row for row in pool if row.get("commit") == commit]
            if by_commit:
                pool = by_commit
        return min(
            pool,
            key=lambda row: (abs(row.get("makespan", 0.0) - target), row["fingerprint"]),
        )

    row_b = pick(regressed_commit, verdict["latest"], exclude=None)
    row_a = pick(baseline_commit, verdict["median"], exclude=row_b["fingerprint"])
    verdict = dict(verdict)
    verdict.update(
        {
            "series": spec,
            "metric": metric,
            "baseline_commit": baseline_commit,
            "regressed_commit": regressed_commit,
        }
    )
    return (
        locate_journal(row_a, index_path),
        locate_journal(row_b, index_path),
        verdict,
    )


# -- diagnosis ----------------------------------------------------------------------


def _audit(run: ReplayedRun, critpath_total: float) -> dict:
    """Journal-integrity verdict for one side: can the numbers be trusted?"""
    footer = run.footer
    opened = footer.get("spans_opened", 0)
    closed = footer.get("spans_closed", 0)
    coverage = critpath_total / run.makespan if run.makespan > 0 else 0.0
    warnings = []
    if run.partial:
        warnings.append("partial journal (synthesized footer)")
    if run.trace_dropped:
        warnings.append(f"{run.trace_dropped} sim-trace records dropped")
    if opened != closed:
        warnings.append(f"{opened - closed} span(s) never closed")
    return {
        "verdict": "WARN" if warnings else "OK",
        "warnings": warnings,
        "partial": run.partial,
        "trace_dropped": run.trace_dropped,
        "spans_opened": opened,
        "spans_closed": closed,
        "critpath_coverage": round(coverage, 6),
    }


def _traffic_drift(a: dict, b: dict) -> list[dict]:
    rows = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key, 0.0), b.get(key, 0.0)
        rows.append(
            {
                "key": key,
                "a": va,
                "b": vb,
                "delta": round(vb - va, 6),
                "rel": round((vb - va) / va, 6) if va else None,
            }
        )
    return rows


def _identity(run: ReplayedRun, summary: RunSummary) -> dict:
    return {
        **asdict(summary.spec),
        "nodes": run.num_nodes,
        "commit": run.header.get("commit"),
        "fidelity": run.fidelity,
        "makespan": summary.makespan,
        "seeded_slowdown": run.footer.get("seeded_slowdown"),
    }


def _seeded_buckets(run: ReplayedRun) -> set:
    marker = run.footer.get("seeded_slowdown") or {}
    if "bucket" in marker:
        return {marker["bucket"]}
    return set(marker.get("buckets", {}))


def _side(run: ReplayedRun, name: str) -> tuple[ExplainSide, RunSummary]:
    """One run's explain side and summary, its critical path built once."""
    path = from_tracer(run.tracer)
    summary = RunSummary.from_tracer(run.spec, run.tracer, run.makespan, critpath=path)
    return side_from_critpath(path, name), summary


@dataclass
class DoctorReport:
    """The chained diagnosis: explain + audit + skew + traffic → verdicts."""

    name_a: str
    name_b: str
    run_a: dict
    run_b: dict
    explain: ExplainResult
    audit_a: dict
    audit_b: dict
    skew_a: dict
    skew_b: dict
    traffic: list[dict]
    verdicts: list[dict]
    whatif: Optional[str] = None
    shift: Optional[dict] = None
    meta: dict = field(default_factory=dict)

    @property
    def makespan_delta(self) -> float:
        return self.explain.makespan_delta

    def to_dict(self) -> dict:
        return {
            "schema": DOCTOR_SCHEMA,
            "a": {"name": self.name_a, **self.run_a, "audit": self.audit_a,
                  "skew": self.skew_a},
            "b": {"name": self.name_b, **self.run_b, "audit": self.audit_b,
                  "skew": self.skew_b},
            "makespan_delta": round(self.makespan_delta, 6),
            "explain": self.explain.to_dict(),
            "traffic_drift": self.traffic,
            "verdicts": self.verdicts,
            "whatif": self.whatif,
            "shift": self.shift,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


def diagnose(
    run_a: ReplayedRun,
    run_b: ReplayedRun,
    name_a: str,
    name_b: str,
    shift: Optional[dict] = None,
) -> DoctorReport:
    """Chain every diagnostic view over two replayed runs."""
    side_a, summary_a = _side(run_a, name_a)
    side_b, summary_b = _side(run_b, name_b)
    result = explain(side_a, side_b)
    audit_a = _audit(run_a, sum(side_a.buckets.values()) - side_a.buckets.get("tail", 0.0))
    audit_b = _audit(run_b, sum(side_b.buckets.values()) - side_b.buckets.get("tail", 0.0))
    skew_a, skew_b = summary_a.straggler, summary_b.straggler
    traffic = _traffic_drift(summary_a.traffic, summary_b.traffic)
    verdicts = _rank_verdicts(
        result, run_a, run_b, audit_a, audit_b, skew_a, skew_b, traffic
    )
    whatif = _suggest_whatif(verdicts, name_a, summary_a.blame)
    return DoctorReport(
        name_a=name_a,
        name_b=name_b,
        run_a=_identity(run_a, summary_a),
        run_b=_identity(run_b, summary_b),
        explain=result,
        audit_a=audit_a,
        audit_b=audit_b,
        skew_a=skew_a,
        skew_b=skew_b,
        traffic=traffic,
        verdicts=verdicts,
        whatif=whatif,
        shift=shift,
    )


def _rank_verdicts(
    result: ExplainResult,
    run_a: ReplayedRun,
    run_b: ReplayedRun,
    audit_a: dict,
    audit_b: dict,
    skew_a: dict,
    skew_b: dict,
    traffic: list[dict],
) -> list[dict]:
    """Confidence-tiered root-cause candidates from the bucket dimension."""
    mk_delta = result.makespan_delta
    seeded = _seeded_buckets(run_a) | _seeded_buckets(run_b)
    total_drift = next(
        (row for row in traffic if row["key"] == "total_bytes"), None
    )
    cv_a, cv_b = skew_a["cv"], skew_b["cv"]
    cv_shifted = abs(cv_b - cv_a) > CV_DRIFT * max(cv_a, 0.05)
    integrity_warn = audit_a["verdict"] != "OK" or audit_b["verdict"] != "OK"

    verdicts = []
    for key, a_sec, b_sec, delta, share in result.rows.get("buckets", []):
        if abs(delta) <= 1e-9:
            continue
        notes = []
        tier = LOW
        if abs(share) >= HIGH_SHARE:
            tier = HIGH
        elif abs(share) >= MEDIUM_SHARE:
            tier = MEDIUM
        if mk_delta != 0.0 and delta * mk_delta < 0:
            tier = LOW
            notes.append("moves against the overall makespan shift")
        if key in seeded:
            tier = HIGH
            notes.append("matches the journal's seeded-slowdown marker")
        if key == NETWORK and total_drift is not None:
            rel = total_drift["rel"]
            if rel is not None and abs(rel) >= TRAFFIC_DRIFT:
                notes.append(
                    f"corroborated by traffic volume ({100.0 * rel:+.1f}% bytes)"
                )
            else:
                notes.append(
                    "traffic volume flat — cost-per-byte change, not more bytes"
                )
        if key in BUCKETS and cv_shifted:
            notes.append(
                f"straggler CV moved {cv_a:.3f} -> {cv_b:.3f}"
            )
        if integrity_warn and tier == HIGH:
            tier = MEDIUM
            notes.append("demoted: integrity audit raised warnings")
        verdicts.append(
            {
                "bucket": key,
                "a_seconds": round(a_sec, 6),
                "b_seconds": round(b_sec, 6),
                "delta": round(delta, 6),
                "share": round(share, 6),
                "confidence": tier,
                "notes": notes,
            }
        )
        if len(verdicts) >= MAX_VERDICTS:
            break
    return verdicts


def _suggest_whatif(verdicts: list[dict], name_a: str, blame_a: dict) -> Optional[str]:
    """The counter-scenario confirming the top verdict, as a whatif command.

    A bucket slowed by factor ``F`` inserts ``(F - 1) x`` the baseline's
    charged seconds into the timeline, so the observed makespan-delta
    contribution solves to ``F = 1 + delta / blame_a[bucket]`` — for a
    seeded bucket dilation this recovers the injected
    factor exactly. ``whatif`` bucket values are *speed* multipliers
    and record dilation is only exact in the slow-down direction
    (inserted time always fits the timeline; removed time can exceed
    the critical-path overlap), so the emitted command runs the
    *baseline* journal with the bucket at ``1/F`` speed: if the verdict
    is right it reproduces the regressed makespan, and ``--emit-journal``
    makes the claim byte-checkable against the regressed run.
    """
    for verdict in verdicts:
        bucket = verdict["bucket"]
        if bucket not in BUCKETS:
            continue
        base = blame_a.get(bucket, 0.0)
        if base <= 0.0:
            continue
        factor = 1.0 + verdict["delta"] / base
        if factor <= 1.0:
            continue
        return (
            f"python -m repro.evaluation whatif {name_a} "
            f"--scenario {bucket}={1.0 / factor:.4f}"
        )
    return None


# -- rendering ----------------------------------------------------------------------


def _render_side(tag: str, name: str, run: dict, audit: dict, skew: dict) -> list[str]:
    seeded = run.get("seeded_slowdown")
    lines = [
        f"{tag}: {name}",
        f"   run {run.get('workload')}:{run.get('engine')}"
        f"@{run.get('fabric')}+{run.get('partitioner')} "
        f"nodes={run.get('nodes')} commit={run.get('commit') or '-'} "
        f"makespan={run.get('makespan', 0.0):.3f}s"
        + (f" seeded={json.dumps(seeded, sort_keys=True)}" if seeded else ""),
        f"   audit {audit['verdict']}"
        + (f" ({'; '.join(audit['warnings'])})" if audit["warnings"] else "")
        + f", critpath coverage {100.0 * audit['critpath_coverage']:.1f}%",
        f"   skew cv={skew['cv']:.4f} max/mean={skew['max_mean_ratio']:.4f} "
        f"stragglers={skew['stragglers']}",
    ]
    return lines


def render_doctor(report: DoctorReport, max_traffic_rows: int = 6) -> str:
    """Deterministic ASCII diagnosis report."""
    delta = report.makespan_delta
    mk_a = report.run_a.get("makespan", 0.0)
    rel = f" ({100.0 * delta / mk_a:+.2f}%)" if mk_a > 0 else ""
    lines = [f"== doctor: A={report.name_a} vs B={report.name_b} =="]
    if report.shift:
        lines.append(
            f"shift: {report.shift.get('series')} {report.shift.get('metric')} "
            f"row {report.shift.get('index')} "
            f"({report.shift.get('delta_pct'):+.1f}% vs median "
            f"{report.shift.get('median'):.3f})"
        )
    lines.extend(
        _render_side("A", report.name_a, report.run_a, report.audit_a, report.skew_a)
    )
    lines.extend(
        _render_side("B", report.name_b, report.run_b, report.audit_b, report.skew_b)
    )
    lines.append(f"makespan delta {delta:+.3f}s{rel}")
    lines.append("")
    lines.append("-- traffic drift --")
    moved = [row for row in report.traffic if abs(row["delta"]) > 1e-9]
    for row in moved[:max_traffic_rows]:
        rel_s = f"{100.0 * row['rel']:+.1f}%" if row["rel"] is not None else "new"
        lines.append(
            f"  {row['key']:<18} {row['a']:>14.1f} -> {row['b']:>14.1f}  ({rel_s})"
        )
    if not moved:
        lines.append("  (no traffic movement)")
    lines.append("")
    lines.append("-- ranked root-cause verdicts --")
    if report.verdicts:
        for i, verdict in enumerate(report.verdicts, start=1):
            lines.append(
                f"  {i}. {verdict['bucket']:<8} {verdict['delta']:+10.3f}s  "
                f"share {100.0 * verdict['share']:+7.1f}%  "
                f"confidence {verdict['confidence']}"
            )
            for note in verdict["notes"]:
                lines.append(f"       - {note}")
    else:
        lines.append("  (no bucket moved — identical runs?)")
    if report.whatif:
        lines.append("")
        lines.append(f"counter-scenario: {report.whatif}")
    return "\n".join(lines)
