"""Observability benchmark: traced Table 2 runs -> ``BENCH_obs.json``.

Run as a script (what the CI perf-regression gate uses)::

    python benchmarks/bench_obs.py --fidelity small --out BENCH_obs.json
    python benchmarks/bench_obs.py --workloads wordcount,naive_bayes

Every selected Table 2 workload runs once per engine with tracing
enabled; the artifact (schema ``repro.obs.bench/v5``) holds each row's
virtual seconds, blame buckets summed over every job of the run (plus
their ledger total, for the bucket-sum invariant), critical-path rollup
and telemetry traffic-matrix totals (total/remote/per-mode exchange
bytes, payload and record counts), so later runs can be diffed with
``python -m repro.evaluation diff`` — where the task-seconds (and the
bytes) went, not just how many there were. Each engine entry is
:meth:`repro.obs.summary.RunSummary.entry` of the run's tracer, the
same summary the corpus, ``slo`` and ``doctor`` read.

The artifact holds the virtual clock only: two runs of the same code
write byte-identical files, so the perf gate is ``cmp`` against the
committed file. Host time is measured by ``benchmarks/perf``;
``--profile`` turns the host profiler on and writes its snapshots to a
side file, never into the artifact.

``--append-history [PATH]`` additionally appends one compact perf-history
row (schema ``repro.obs.history/v1``: the v5 totals and the producing git
commit) to ``BENCH_history.jsonl`` — the append-only series
``python -m repro.evaluation trend`` scans for sustained regressions.
"""

import argparse
import json
import pathlib
import sys

from repro.core.engine import PARTITIONERS
from repro.dataplane.fabrics import FABRICS
from repro.evaluation.runner import run_workload
from repro.evaluation.workloads import TABLE2_ORDER, workload_by_name
from repro.obs.history import DEFAULT_HISTORY_PATH, append_history, history_row, resolve_commit
from repro.obs.runspec import RunSpec
from repro.obs.summary import RunSummary

BENCH_SCHEMA = "repro.obs.bench/v5"
DEFAULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_obs.json"

_snapshots: dict[str, dict] = {}  # workload -> engine -> full hostprof snapshot


def run_row(
    name: str, fidelity: str, engines: str = "both",
    journal_stem: str | None = None, fabric: str = RunSpec.fabric,
    partitioner: str = RunSpec.partitioner, profile: bool = False,
) -> dict:
    """Run one traced workload row and build its artifact entry.

    ``journal_stem`` additionally writes one durable run journal per
    engine to ``<journal_stem>.<name>.<engine>.journal.jsonl`` (see
    :mod:`repro.obs.journal`) — replayable via
    ``python -m repro.evaluation replay`` with byte-identical output.

    ``fabric`` and ``partitioner`` select the exchange configuration for
    both engines (fabric sweeps); off-default entries carry it, so the
    diff gate keys them ``engine@fabric+partitioner`` and never compares
    them against a default baseline row.

    ``profile`` attaches the host profiler and keeps its snapshots for
    ``--profile``; the entry is byte-identical either way.
    """
    journal = None
    if journal_stem is not None:
        from repro.obs.journal import JournalWriter

        journal = lambda engine: JournalWriter(meta={"fidelity": fidelity})  # noqa: E731
    workload = workload_by_name(name, fidelity)
    row = run_workload(
        workload, engines=engines, obs=True, profile=profile, journal=journal,
        fabric=fabric, partitioner=partitioner,
    )
    if journal_stem is not None:
        for engine, writer in (
            ("hamr", row.hamr_journal), ("hadoop", row.hadoop_journal)
        ):
            if writer is not None:
                journal_path = f"{journal_stem}.{name}.{engine}.journal.jsonl"
                writer.save(journal_path)
                print(f"wrote {journal_path}", file=sys.stderr)
    entry = {
        "data_size": workload.data_size,
        "speedup": round(row.speedup, 4) if engines == "both" else None,
    }
    for engine, tracer, seconds in (
        ("hamr", row.hamr_obs, row.hamr_seconds), ("hadoop", row.hadoop_obs, row.idh_seconds)
    ):
        if engines in ("both", engine):
            spec = RunSpec(name, engine, fabric, partitioner)
            entry[engine] = RunSummary.from_tracer(spec, tracer, seconds).entry()
    snaps = {}
    if row.hamr_hostprof is not None:
        snaps["hamr"] = {"hostprof": row.hamr_hostprof}
    if row.hadoop_hostprof is not None:
        snaps["hadoop"] = {"hostprof": row.hadoop_hostprof}
    _snapshots[name] = snaps
    return entry


def build_payload(rows: dict[str, dict], fidelity: str) -> dict:
    ordered = [name for name in TABLE2_ORDER if name in rows]
    return {
        "schema": BENCH_SCHEMA,
        "fidelity": fidelity,
        "rows": {name: rows[name] for name in ordered},
    }


def write_payload(payload: dict, path: pathlib.Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Traced Table 2 bench artifact (repro.obs.bench/v5)."
    )
    parser.add_argument(
        "--fidelity",
        default="small",
        choices=["tiny", "small", "medium"],
    )
    parser.add_argument(
        "--workloads",
        default="",
        help="comma-separated subset of Table 2 workloads (default: all)",
    )
    parser.add_argument(
        "--engines", default="both", choices=["both", "hamr", "hadoop"]
    )
    parser.add_argument(
        "--fabric",
        default=RunSpec.fabric,
        choices=FABRICS,
        help="exchange fabric for both engines (fabric sweeps; non-direct "
        "entries are keyed engine@fabric by the diff gate)",
    )
    parser.add_argument(
        "--partitioner",
        default=RunSpec.partitioner,
        choices=PARTITIONERS,
        help="partition-ownership strategy for both engines (non-hash "
        "entries are stamped so trend series never mix strategies)",
    )
    parser.add_argument(
        "--out", default=str(DEFAULT_PATH), help="artifact output path"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run with the host profiler on and write its full snapshots "
        "(flat/tree/clock) to <out-stem>.hostprof.json",
    )
    parser.add_argument(
        "--journal",
        action="store_true",
        help="also write one durable run journal per workload x engine "
        "to <out-stem>.<workload>.<engine>.journal.jsonl",
    )
    parser.add_argument(
        "--append-history",
        nargs="?",
        const=DEFAULT_HISTORY_PATH,
        default=None,
        metavar="PATH",
        help="also append one perf-history row (totals + git commit) to "
        f"PATH (default {DEFAULT_HISTORY_PATH}; see "
        "`python -m repro.evaluation trend`)",
    )
    args = parser.parse_args(argv)

    selected = [w for w in args.workloads.split(",") if w] or list(TABLE2_ORDER)
    unknown = sorted(set(selected) - set(TABLE2_ORDER))
    if unknown:
        parser.error(f"unknown workloads {unknown}; pick from {TABLE2_ORDER}")

    journal_stem = None
    if args.journal:
        out_path = pathlib.Path(args.out)
        journal_stem = str(out_path.parent / out_path.stem)
    rows = {}
    for name in selected:
        print(f"  running {name} ({args.fidelity}, {args.engines}) ...", file=sys.stderr)
        rows[name] = run_row(
            name, args.fidelity, args.engines, journal_stem=journal_stem,
            fabric=args.fabric, partitioner=args.partitioner, profile=args.profile,
        )
    path = pathlib.Path(args.out)
    payload = build_payload(rows, args.fidelity)
    write_payload(payload, path)
    print(f"wrote {path}")
    if args.append_history is not None:
        append_history(history_row(payload, resolve_commit()), args.append_history)
        print(f"appended history row to {args.append_history}")
    if args.profile:
        from repro.evaluation.profilereport import profile_payload

        prof_path = path.with_suffix(".hostprof.json")
        prof_path.write_text(
            json.dumps(
                profile_payload(
                    args.fidelity, {name: _snapshots.get(name, {}) for name in selected}
                ),
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"wrote {prof_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
