"""Per-run views shared by the live commands and ``replay``.

A view knows how one run prints (``text``), what it contributes to the
JSON document (``entry``) and how the document wraps the entries
(``document``). ``run`` is an :class:`~repro.evaluation.cli.runs.
EngineRun` or a :class:`~repro.obs.replay.ReplayedRun`; that both go
through the same three methods is what keeps ``replay`` byte-identical
to the live command it reconstructs.
"""

from __future__ import annotations

from repro.evaluation.cli.present import export, show
from repro.evaluation.obsreport import REPORT_SCHEMA, render_report, report_dict
from repro.evaluation.telemetryreport import (
    TIMELINE_SCHEMA,
    render_telemetry,
    telemetry_dict,
)
from repro.obs.live import LIVE_SCHEMA, STATUS_RUNNING, STATUS_STALLED, render_watch


def subject(run, engine: "str | None" = None) -> str:
    """``WordCount (16 GB) on hamr`` — off-default runs say ``hamr@fabric+partitioner``."""
    return f"{run.label} ({run.data_size}) on {engine or run.spec.engine_label}"


def heading(run, detail: "str | None" = None) -> str:
    return f"== {subject(run)} — {detail or f'makespan {run.makespan:.3f}s'} =="


def _by_workload(schema: str, run, entries: dict) -> dict:
    document = {"schema": schema, "fidelity": run.fidelity, "workloads": entries}
    return run.spec.stamp(document)


class ReportView:
    def text(self, run) -> str:
        return render_report(
            run.tracer, title=heading(run), trace_dropped=run.trace_dropped
        ) + "\n"

    def entry(self, run) -> dict:
        return report_dict(
            run.tracer, run.workload, run.engine, trace_dropped=run.trace_dropped
        )

    def document(self, run, entries: dict) -> dict:
        document = {
            "schema": REPORT_SCHEMA,
            "workload": run.workload,
            "engines": entries[run.workload],
        }
        return run.spec.stamp(document)


class TimelineView:
    def __init__(self, bins: int):
        self.bins = bins

    def text(self, run) -> str:
        return render_telemetry(run.tracer, title=heading(run), bins=self.bins) + "\n"

    def entry(self, run) -> dict:
        return telemetry_dict(run.tracer, run.workload, run.engine, bins=self.bins)

    def document(self, run, entries: dict) -> dict:
        return _by_workload(TIMELINE_SCHEMA, run, entries)


class WatchView:
    """The live dashboard: ``run.frames`` under ``run.watch_config``."""

    @staticmethod
    def _config(run) -> tuple[float, float]:
        config = run.watch_config or {}
        return config.get("interval", 0.0), config.get("window", 0.0)

    def text(self, run) -> str:
        return render_watch(subject(run), self._config(run), run.frames) + "\n"

    def entry(self, run) -> dict:
        interval, window = self._config(run)
        frames = run.frames
        return {
            "interval": interval,
            "window": window,
            "frames": frames,
            "status": frames[-1]["status"] if frames else STATUS_RUNNING,
            "stalled_frames": sum(1 for f in frames if f["status"] == STATUS_STALLED),
            "makespan": run.makespan,
        }

    def document(self, run, entries: dict) -> dict:
        return _by_workload(LIVE_SCHEMA, run, entries)


def present_runs(args, runs, view):
    """Print each run's text as it arrives, then export one document over
    all of them; returns the first run (the one ``--chrome`` traces)."""
    entries: dict[str, dict] = {}
    first = None
    for run in runs:
        first = first or run
        show(args, lambda: view.text(run))
        if args.json:
            entries.setdefault(run.workload, {})[run.engine] = view.entry(run)
    export(args, lambda: view.document(first, entries))
    return first
