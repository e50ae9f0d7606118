"""Run result: what one run measured, derived once from its tracer.

A :class:`RunSummary` is the paper's result for one run — the makespan
and where the task-seconds went — plus the critical-path rollup, the
drift-gated traffic totals and the per-node CPU straggler statistics.
``from_tracer`` is the one derivation (a live tracer or a replayed
journal's), ``from_entry`` / ``entry`` the one codec of the bench
engine-entry shape (``repro.obs.bench/v3``–``v5``). A bench entry, a
corpus row, a history row, an ``slo`` verdict, a ``diff`` row and the
doctor's per-side numbers are encodings of it plus their envelope
(fingerprint, path, commit, fidelity).

It replaces ``bench_obs._engine_entry`` (which kept only the first job's
blame), the blame loop and ``_straggler_section`` of
``corpus.summarize_records``, ``doctor._blame_totals`` and ``_skew``,
the per-entry derivation of ``history.history_row``,
``slo.evaluate_entry`` and ``evaluate_tracer``, ``diff.EngineRecord`` and
the summation of ``_blame_from_report``, and the first-job bucket join of
``fidelity`` (DESIGN.md §6.4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from repro.obs import critpath as _critpath
from repro.obs.blame import BUCKETS, STALL
from repro.obs.runspec import RunSpec
from repro.obs.telemetry import build_skew_report

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.spans import Tracer


def _rounded(values: Mapping[str, float]) -> dict[str, float]:
    return {key: round(values[key], 6) for key in sorted(values)}


@dataclass(frozen=True)
class RunSummary:
    """One run's result. Every float is rounded to 6 decimals once, here;
    ``straggler`` is None when decoded from an artifact entry, which
    carries no per-node timeline."""

    spec: RunSpec
    makespan: float
    blame: dict[str, float]  # bucket -> task-seconds, summed over every job
    blame_total: float
    critpath: Optional[dict[str, float]] = None  # rollup key -> path seconds
    traffic: Optional[dict[str, float]] = None  # drift-gated traffic totals
    straggler: Optional[dict] = None  # cv, max_mean_ratio, stragglers

    @classmethod
    def from_jobs(
        cls,
        spec: RunSpec,
        makespan: float,
        jobs: Iterable[tuple[Mapping[str, float], float]],
        rollup: Optional[Mapping[str, float]] = None,
        traffic: Optional[dict[str, float]] = None,
        straggler: Optional[dict] = None,
    ) -> "RunSummary":
        """Sum per-job ``(buckets, total)`` pairs, given in sorted job
        order, each from 0.0, then round: the one summation order, so a
        single-job run keeps its ledger's exact values."""
        blame = {bucket: 0.0 for bucket in BUCKETS}
        blame_total = 0.0
        for buckets, total in jobs:
            for bucket in BUCKETS:
                blame[bucket] += buckets.get(bucket, 0.0)
            blame_total += total
        critpath = _rounded(rollup) if rollup is not None else None
        return cls(
            spec, round(makespan, 6), _rounded(blame), round(blame_total, 6),
            critpath, traffic, straggler,
        )

    @classmethod
    def from_tracer(
        cls,
        spec: RunSpec,
        tracer: Tracer,
        makespan: float,
        critpath: Optional[_critpath.CriticalPath] = None,
    ) -> "RunSummary":
        """The derivation. ``critpath`` hands over a path the caller has
        already extracted from this tracer, so no run's path is built twice."""
        ledger = tracer.blame
        skew = build_skew_report(tracer.timeline, tracer.traffic_matrices())
        stats = skew.sections.get("cpu_busy_seconds", {}).get("stats", {})
        if critpath is None:
            critpath = _critpath.from_tracer(tracer)
        return cls.from_jobs(
            spec,
            makespan,
            [(ledger.job_summary(job), ledger.job_total(job)) for job in ledger.jobs()],
            rollup=critpath.rollup,
            traffic=dict(sorted(tracer.traffic_totals().items())),
            straggler={
                "cv": round(stats.get("cv", 0.0), 6),
                "max_mean_ratio": round(stats.get("max_mean_ratio", 0.0), 6),
                "stragglers": [int(node) for node in skew.stragglers],
            },
        )

    @classmethod
    def from_entry(cls, workload: str, engine: str, entry: dict) -> "RunSummary":
        """Decode a bench engine entry (``rows[workload][engine]``). A key
        an older entry lacks decodes as None; missing blame as empty, its
        total as 0.0."""
        critpath = entry.get("critpath")
        traffic = entry.get("telemetry", {}).get("traffic")
        return cls(
            spec=RunSpec.from_entry(workload, engine, entry),
            makespan=entry.get("virtual_seconds"),
            blame=dict(entry.get("blame", {})),
            blame_total=entry.get("blame_total", 0.0),
            critpath=dict(critpath) if critpath is not None else None,
            traffic=dict(traffic) if traffic is not None else None,
        )

    def entry(self) -> dict:
        """The bench engine entry, off-default exchange fields stamped."""
        entry = {
            "virtual_seconds": self.makespan,
            "blame": dict(self.blame),
            "blame_total": self.blame_total,
        }
        if self.critpath is not None:
            entry["critpath"] = dict(self.critpath)
        if self.traffic is not None:
            # traffic totals are drift-gated (schema v4): shuffle-volume
            # regressions fail the perf gate just like makespan regressions
            entry["telemetry"] = {"traffic": dict(self.traffic)}
        return self.spec.stamp(entry)

    @property
    def stall_share(self) -> float:
        """Stall blame over total blame, from the rounded values (0.0 for
        an idle ledger)."""
        if self.blame_total <= 0:
            return 0.0
        return round(self.blame.get(STALL, 0.0) / self.blame_total, 6)
