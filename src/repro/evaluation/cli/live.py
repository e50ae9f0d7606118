"""Commands that execute workloads: report, timeline, profile, calibrate,
journal, watch, slo."""

from __future__ import annotations

import json
import os

from repro.evaluation.cli import CLIError
from repro.evaluation.cli.present import export, present, show, write_chrome, wrote
from repro.evaluation.cli.runs import ENGINES, journal_writers, live_runs
from repro.evaluation.cli.views import (
    ReportView,
    TimelineView,
    WatchView,
    heading,
    present_runs,
)


def report(args) -> None:
    """Run one traced workload and print/export the observability report."""
    if args.workload == "all":
        args.usage_error("report supports a single --workload (not `all`)")
    first = present_runs(args, live_runs(args, obs=True), ReportView())
    if args.chrome:
        # engines run on separate virtual clusters, so one trace file holds
        # the first traced engine (use --engine to pick)
        write_chrome(args.chrome, first.tracer, f"{first.engine} run")


def timeline(args) -> None:
    """Run traced workload(s) and print/export the telemetry report."""
    first = present_runs(args, live_runs(args, obs=True), TimelineView(args.bins))
    if args.chrome:
        write_chrome(args.chrome, first.tracer, f"{first.workload} on {first.engine}")


def profile(args) -> None:
    """Run workload(s) with the dual clock on; print host profile + fidelity."""
    from repro.evaluation.profilereport import profile_payload, render_hostprof
    from repro.obs.fidelity import fidelity_dict, render_fidelity

    entries: dict[str, dict] = {}
    first = None
    for run in live_runs(args, obs=True, profile=True):
        first = first or run
        snap = run.hostprof
        fid = fidelity_dict(run.tracer, snap, run.workload, run.engine)
        title = heading(
            run,
            f"virtual makespan {run.makespan:.3f}s, host {snap['total_ns'] / 1e6:.1f}ms",
        )
        show(
            args,
            lambda: f"{render_hostprof(snap, title=title)}\n\n{render_fidelity(fid)}\n",
        )
        entries.setdefault(run.workload, {})[run.engine] = {
            "hostprof": snap,
            "fidelity": fid,
        }
    export(args, lambda: profile_payload(args.fidelity, entries))
    if args.chrome:
        write_chrome(
            args.chrome, first.tracer, f"{first.workload} on {first.engine}",
            hostprof=first.hostprof,
        )


def calibrate(args) -> None:
    """Re-fit compute-cost constants from measured host time (proposal only)."""
    from repro.cluster.spec import CostModel
    from repro.obs.fidelity import (
        _engine_samples,
        calibration_dict,
        fit_cost_constants,
        render_calibration,
    )

    samples, sources = [], []
    for run in live_runs(args, obs=True, profile=True):
        samples.extend(_engine_samples(run.hostprof))
        sources.append(f"{run.workload}/{run.engine}")
    fit = fit_cost_constants(samples, CostModel())
    if fit is None:
        raise CLIError(
            "no engine-bucket samples with recorded work units — nothing to fit"
        )
    cal = calibration_dict(fit, sources)
    present(args, lambda: render_calibration(cal), lambda: cal)


def _journal_path(args, out: str, run) -> str:
    """Output path for one run's journal under the ``--out`` prefix: a
    prefix ending in ``.jsonl``/``.jsonl.gz`` with a single workload and
    engine selected is the exact path (``.gz`` writes gzip)."""
    if (
        out.endswith((".jsonl", ".jsonl.gz"))
        and args.workload != "all"
        and args.engine != "both"
    ):
        return out
    stem = out.removesuffix(".gz").removesuffix(".jsonl").removesuffix(".journal")
    return f"{stem}.{run.workload}.{run.engine}.journal.jsonl"


def _save_journal(args, out: str, run, note: str = "") -> None:
    path = _journal_path(args, out, run)
    run.journal.save(path)
    wrote(path, note)


def journal(args) -> None:
    """Run workload(s) with journaling on; write one JSONL file per run."""
    for run in live_runs(args, journal=journal_writers(args)):
        _save_journal(args, args.out or "run", run, f"{run.journal.events} events")


def _slo_overrides(args) -> "dict | None":
    from repro.obs.slo import load_slo_file

    if not args.slo_spec:
        return None
    try:
        return load_slo_file(args.slo_spec)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


def _positional_filters(args, workload, engine) -> None:
    """``watch``/``slo`` take WORKLOAD and ENGINE positionally as well."""
    args.workload = workload or args.workload
    args.engine = engine or args.engine


def watch(args) -> None:
    """Run workload(s) with the live progress engine; print the dashboard.

    Frames are journaled (``wcfg``/``fr`` records), so with ``--out`` the
    saved journal replays the dashboard byte-identically via ``replay
    --view watch`` — also after ``whatif --emit-journal`` has dilated it
    (ETAs and watchdog verdicts recomputed on the slowed timeline).
    """
    from repro.obs.live import LiveMonitor, WatchConfig
    from repro.obs.slo import spec_for

    _positional_filters(args, args.workload_arg, args.engine_arg)
    overrides = _slo_overrides(args)
    config = WatchConfig(interval=args.interval, window=args.stall_window)

    def monitored(name):
        return {
            "watch": lambda engine, tracer: LiveMonitor(
                tracer, config=config, slo=spec_for(name, engine, overrides)
            )
        }

    def watched():
        for run in live_runs(args, monitored, journal=journal_writers(args)):
            run.watch_config = {"interval": config.interval, "window": config.window}
            run.frames = run.monitor.frames
            yield run
            if args.out:
                _save_journal(args, args.out, run)

    present_runs(args, watched(), WatchView())


def _artifact_results(path: str, overrides) -> list[dict]:
    """SLO verdicts for every workload × engine row of a BENCH artifact."""
    from repro.obs.slo import evaluate
    from repro.obs.summary import RunSummary

    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CLIError(f"{path}: {exc}") from exc
    schema = payload.get("schema", "") if isinstance(payload, dict) else ""
    if not schema.startswith("repro.obs.bench/"):
        raise CLIError(f"{path} is not a BENCH artifact (schema {schema!r})")
    rows = payload.get("rows", {})
    results = [
        evaluate(RunSummary.from_entry(workload, engine, rows[workload][engine]), overrides)
        for workload in sorted(rows)
        for engine in ENGINES
        if isinstance(rows[workload].get(engine), dict)
    ]
    if not results:
        raise CLIError(f"{path} holds no workload × engine rows")
    return results


def slo(args) -> int:
    """Check a BENCH artifact — or live run(s) — against the SLO specs.

    ``slo BENCH.json`` evaluates every workload × engine row the artifact
    holds (straggler CV reports n/a — artifacts carry no per-node
    timelines); ``slo [WORKLOAD] [ENGINE]`` runs the workload traced and
    evaluates the live tracer (CV measurable). Exits 1 on any FAIL.
    """
    from repro.obs.slo import evaluate, render_slo, slo_dict
    from repro.obs.summary import RunSummary

    overrides = _slo_overrides(args)
    target = args.target
    if target and (os.path.exists(target) or target.endswith(".json")):
        results, source = _artifact_results(target, overrides), target
    else:
        _positional_filters(args, target, args.engine_arg)
        results = [
            evaluate(RunSummary.from_tracer(run.spec, run.tracer, run.makespan), overrides)
            for run in live_runs(args, obs=True)
        ]
        source = f"live:{args.fidelity}"
    present(args, lambda: render_slo(results), lambda: slo_dict(results, source))
    return 0 if all(r["ok"] for r in results) else 1
