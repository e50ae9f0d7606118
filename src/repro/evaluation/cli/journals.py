"""Commands that read one or two run journals: replay, explain, whatif.

``explain`` and ``whatif`` also take ``workload:engine`` specs, executed
live through the same loop as the live commands.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro.evaluation.cli import CLIError, views
from repro.evaluation.cli.present import present, write_chrome, wrote
from repro.evaluation.cli.runs import (
    ENGINES,
    EngineRun,
    announce,
    journal_errors,
    journal_writers,
    load_run,
    parse_ref,
    run_spec,
    warn_recorded,
)
from repro.evaluation.runner import run_workload
from repro.evaluation.workloads import TABLE2_ORDER, workload_by_name
from repro.obs.journal import (
    dilate_bucket_charges,
    encode_record,
    iter_journal,
    iter_journal_file,
    journal_open,
)


def replay(args) -> None:
    """Reconstruct report/timeline/critpath/watch output from a journal alone."""
    run = load_run(args.journal, args.allow_partial, covers="views")
    if args.view == "critpath":
        from repro.obs.critpath import from_tracer, render_critpath

        cp = from_tracer(run.tracer)
        title = f"Critical path — {views.subject(run, run.engine)}"
        present(args, lambda: render_critpath(cp, title=title), cp.to_dict)
    else:
        if args.view == "watch" and run.watch_config is None and not run.frames:
            raise CLIError(
                f"{args.journal} was not recorded with live monitoring "
                "(no wcfg/fr records) — re-record with `watch --out`"
            )
        view = {
            "report": views.ReportView,
            "timeline": lambda: views.TimelineView(args.bins),
            "watch": views.WatchView,
        }[args.view]()
        views.present_runs(args, [run], view)
    if args.chrome:
        write_chrome(
            args.chrome, run.tracer, f"{run.workload} on {run.engine}, replayed"
        )


def _explain_side(args, ref: str, spec):
    """One explain side from a journal path or a parsed workload:engine spec."""
    from repro.obs.explain import side_from_tracer

    if spec is None:
        run = load_run(ref, args.allow_partial)
        seeded = run.footer.get("seeded_slowdown")
    else:
        run, seeded = run_spec(args, spec, obs=True), None
    meta = {
        "workload": run.workload,
        "engine": run.engine,
        "fidelity": run.fidelity,
        "seeded_slowdown": seeded,
    }
    meta = {key: value for key, value in meta.items() if value is not None}
    return side_from_tracer(run.tracer, ref, meta=run.spec.stamp(meta))


def explain(args) -> None:
    """Differential root-cause attribution between two runs."""
    from repro.obs.explain import explain as explain_runs
    from repro.obs.explain import render_explain

    refs = (args.a, args.b)
    specs = [parse_ref(ref) for ref in refs]  # reject a bad B before running A
    sides = [_explain_side(args, ref, spec) for ref, spec in zip(refs, specs)]
    result = explain_runs(*sides)
    present(args, lambda: render_explain(result), result.to_dict)


def _executor(args, model):
    """``scenario -> measured makespan`` for whatif's self-audit, or None
    where the scenario cannot be executed. Re-runs the recorded workload on
    the recorded fabric/partitioner/racks, not on this invocation's flags."""
    spec = model.run.spec
    fidelity = model.run.fidelity or args.fidelity

    def execute(sc):
        if spec.workload not in TABLE2_ORDER or spec.engine not in ENGINES:
            return None
        if not sc.bucket_only and (sc.serde_speed is not None or sc.bucket_speeds):
            return None  # no serde knob; mixed structural + bucket: not executable
        print(
            f"  executing {sc.describe()} on {spec.workload}:{spec.engine} ...",
            file=sys.stderr,
            flush=True,
        )
        wl = workload_by_name(spec.workload, fidelity)
        if sc.nodes is not None:
            wl.num_workers = sc.nodes - 1
        target = replace(spec, fabric=sc.fabric or spec.fabric)
        rack_size = model.rack_size or None
        if sc.racks is not None:
            rack_size = wl.spec().rack_size_for(target.fabric, sc.racks)
        fresh = EngineRun(
            run_workload(
                wl, engines=spec.engine, journal=sc.bucket_only, fabric=target.fabric,
                partitioner=spec.partitioner, rack_size=rack_size,
            ),
            target, fidelity,
        )
        if sc.bucket_only:
            # Independent end-to-end check: a fresh run, dilated by the
            # same transform the scenario journal is made with.
            records = fresh.journal.records
            return dilate_bucket_charges(records, sc.time_factors)[-1].get("makespan")
        return fresh.makespan

    return execute


def whatif(args) -> int:
    """Counterfactual capacity planning from a run journal.

    Loads the journal (or runs ``workload:engine`` live to record one),
    predicts the scenario's makespan with bounds, optionally sweeps a
    knob into a capacity curve, and — the self-auditing half — executes
    scenarios for real to report the prediction error (``--execute`` for
    the requested one, ``--validate`` for the whole matrix), gated by
    ``--max-error``.
    """
    from repro.obs.whatif import (
        WhatIfModel,
        parse_scenario,
        parse_sweep,
        render_sweep,
        render_validation,
        render_whatif,
        scenario_journal,
        validate,
        whatif_dict,
    )

    scenario = parse_scenario(args.scenario)
    if args.emit_journal and not (scenario.bucket_only or scenario.is_identity):
        raise CLIError(
            "--emit-journal needs a bucket-only (or identity) scenario — "
            f"{scenario.describe()!r} changes cluster structure, which has "
            "no journal transform"
        )
    sweep_spec = parse_sweep(args.sweep) if args.sweep else None
    ref = args.run
    spec = parse_ref(ref)
    with journal_errors(ref):
        if spec is None:
            records = iter_journal_file(ref, allow_partial=args.allow_partial)
        else:
            announce(ref)
            writer = run_spec(args, spec, journal=journal_writers(args)).journal
            records = iter_journal(writer.iter_lines())
        if args.emit_journal:
            # The one output that is a whole journal: decode the input once,
            # as a list the model and the transform both read.
            records = list(records)
        model = WhatIfModel(records)
    warn_recorded(model.run, ref, covers="predictions")

    predictions = [model.predict(scenario)]
    sweep_out = None
    if sweep_spec is not None:
        key, values = sweep_spec
        sweep_out = (key, model.sweep(key, values, scenario))
    rows = None
    if args.validate:
        rows = validate(model, _executor(args, model))
    elif args.execute:
        rows = validate(model, _executor(args, model), scenarios=[scenario])

    if args.emit_journal:
        out_records = records if scenario.is_identity else scenario_journal(records, scenario)
        with journal_open(args.emit_journal, "w") as fh:
            fh.writelines(encode_record(record) + "\n" for record in out_records)
        wrote(args.emit_journal, scenario.describe())

    def text() -> str:
        parts = [render_whatif(model, predictions)]
        if sweep_out is not None:
            parts.append(render_sweep(model, *sweep_out))
        if rows is not None:
            parts.append(render_validation(rows))
        return "\n\n".join(parts)

    present(
        args, text,
        lambda: whatif_dict(model, predictions, sweep=sweep_out, validation=rows),
    )
    if args.max_error is not None and rows is not None:
        worst = max(
            (abs(row.error) for row in rows if row.error is not None), default=0.0
        )
        if worst > args.max_error:
            print(
                f"FAIL: worst prediction error {worst:.1%} exceeds "
                f"--max-error {args.max_error:.1%}",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: worst prediction error {worst:.1%} within "
            f"--max-error {args.max_error:.1%}",
            file=sys.stdout if args.json != "-" else sys.stderr,
        )
    return 0
