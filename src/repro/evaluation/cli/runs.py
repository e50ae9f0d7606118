"""Where a command's runs come from: executed live, or loaded from a journal.

:class:`EngineRun` gives one engine's column of a live
:class:`~repro.evaluation.runner.BenchmarkRow` the attribute surface of
:class:`~repro.obs.replay.ReplayedRun` (spec, workload, label, data_size,
engine, fidelity, makespan, tracer), so the views
print either without asking which it is.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from repro.evaluation.cli import CLIError
from repro.evaluation.runner import run_workload
from repro.evaluation.workloads import TABLE2_ORDER, workload_by_name
from repro.obs.journal import JournalError, JournalWriter, load_journal
from repro.obs.replay import ReplayedRun, replay_records
from repro.obs.runspec import ENGINES, RunSpec


def announce(what: str) -> None:
    print(f"  running {what} ...", file=sys.stderr, flush=True)


# -- live runs ----------------------------------------------------------------------


def expand_filters(args) -> tuple[list[str], list[str]]:
    """Validate ``--workload``/``--engine`` and expand them to lists."""
    if args.workload not in (*TABLE2_ORDER, "all"):
        raise CLIError(
            f"unknown workload {args.workload!r} "
            f"(choose from: {', '.join(TABLE2_ORDER)}, all)"
        )
    if args.engine not in ("both", *ENGINES):
        raise CLIError(
            f"unknown engine {args.engine!r} (choose from: both, hamr, hadoop)"
        )
    workloads = list(TABLE2_ORDER) if args.workload == "all" else [args.workload]
    engines = list(ENGINES) if args.engine == "both" else [args.engine]
    return workloads, engines


def journal_writers(args):
    """The ``journal=`` factory of a journaled live run: one writer per
    engine, the fidelity preset into its header."""
    return lambda engine: JournalWriter(meta={"fidelity": args.fidelity})


class EngineRun:
    """One engine's column of a live BenchmarkRow: the run ``spec`` names."""

    def __init__(self, row, spec: RunSpec, fidelity: str):
        engine = spec.engine
        self.workload, self.label, self.data_size = row.name, row.label, row.data_size
        self.spec, self.engine, self.fidelity = spec, engine, fidelity
        self.makespan = row.hamr_seconds if engine == "hamr" else row.idh_seconds
        self.tracer = getattr(row, f"{engine}_obs")
        self.hostprof = getattr(row, f"{engine}_hostprof")
        self.journal = getattr(row, f"{engine}_journal")
        self.monitor = getattr(row, f"{engine}_watch")


def live_runs(args, per_workload=None, **options):
    """The one live-run loop: for each selected workload, announce it (when
    there are several), execute it under the fabric flags, and yield an
    :class:`EngineRun` per selected engine. ``options`` go to ``run_workload`` as given;
    ``per_workload(name)`` adds the ones that depend on the workload.
    """
    workloads, engines = expand_filters(args)
    for name in workloads:
        if len(workloads) > 1:
            announce(name)
        workload = workload_by_name(name, args.fidelity)
        row = run_workload(
            workload,
            engines=args.engine,
            fabric=args.fabric,
            partitioner=args.partitioner,
            rack_size=workload.spec().rack_size_for(args.fabric, args.racks),
            **options,
            **(per_workload(name) if per_workload else {}),
        )
        for engine in engines:
            spec = RunSpec(name, engine, args.fabric, args.partitioner)
            yield EngineRun(row, spec, args.fidelity)


# -- run references: a journal path, or a workload:engine spec to execute -----------


def parse_ref(ref: str) -> "RunSpec | None":
    """``None`` for a journal path, else the live spec's workload and engine.

    A live spec is exactly ``workload:engine`` with a Table 2 workload; the
    run's exchange configuration comes from ``--fabric``/``--partitioner``.
    Doctor's corpus selectors share the grammar but mean "look the run up",
    not "execute it" (:func:`repro.obs.doctor.resolve_spec`).
    """
    if os.path.exists(ref) or ref.endswith((".jsonl", ".jsonl.gz")):
        return None
    try:
        spec = RunSpec.parse(ref)
    except ValueError:
        spec = None
    if spec is None or spec.workload not in TABLE2_ORDER or ref != (
        f"{spec.workload}:{spec.engine}"
    ):
        raise CLIError(
            f"{ref!r} is neither a journal file nor a <workload>:<engine> spec "
            f"(workloads: {', '.join(TABLE2_ORDER)}; engines: {', '.join(ENGINES)})"
        )
    return spec


def run_spec(args, spec: RunSpec, **options) -> EngineRun:
    """Execute one parsed ``workload:engine`` spec through the live-run loop."""
    selected = argparse.Namespace(
        **{**vars(args), "workload": spec.workload, "engine": spec.engine}
    )
    return next(live_runs(selected, **options))


@contextmanager
def journal_errors(path: str):
    """Unreadable or malformed journals name the file they came from."""
    try:
        yield
    except (OSError, JournalError) as exc:
        raise CLIError(f"{path}: {exc}") from exc


def warn_recorded(run: ReplayedRun, path: str, covers: "str | None" = None) -> None:
    """What a loaded journal's footer says the reader must know: it was
    truncated (``covers`` names what a one-journal command derives from
    it)."""
    if run.partial and covers:
        print(
            "WARNING: journal is partial (reconstructed footer) — "
            f"{covers} cover the recorded prefix only",
            file=sys.stderr,
        )
    elif run.partial:
        print(f"WARNING: {path} is partial (reconstructed footer)", file=sys.stderr)


def load_run(path: str, allow_partial: bool, covers: "str | None" = None) -> ReplayedRun:
    """The one journal loader: decode, replay, warn."""
    with journal_errors(path):
        run = replay_records(load_journal(path, allow_partial=allow_partial))
    warn_recorded(run, path, covers)
    return run
