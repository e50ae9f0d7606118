"""Command-line harness: the command table of ``python -m repro.evaluation``.

Each command is one subparser that declares its own positionals and only
the flags it reads (shared groups come from parent parsers), and names
its handler in :mod:`repro.evaluation.cli`, imported when dispatched.
``python -m repro.evaluation <command> --help`` is the usage reference;
README "CLI contract" has the table of commands.

Exit codes: 0 ok; 1 a gate failed (``diff --fail-on-drift``, ``slo``,
``trend --fail-on-shift``, ``whatif --max-error``, ``analytics``); 2 bad
input — argparse's own usage errors, and everything a handler rejects,
which leaves through the one ``error: ...`` line :func:`main` prints.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from repro.core.engine import PARTITIONERS
from repro.dataplane.fabrics import FABRICS
from repro.evaluation.cli import CLIError
from repro.evaluation.workloads import TABLE2_ORDER
from repro.obs.history import ROW_METRICS
from repro.obs.runspec import RunSpec

#: flags that must be positive wherever a command accepts them
POSITIVE = ("trace_max_records", "racks", "bins", "interval", "window", "workers")


def _group(*flags) -> argparse.ArgumentParser:
    """A parent parser holding one shared group of flags."""
    parent = argparse.ArgumentParser(add_help=False)
    for flag, options in flags:
        parent.add_argument(flag, **options)
    return parent


def _shared_groups() -> dict[str, argparse.ArgumentParser]:
    return {
        "fidelity": _group(("--fidelity", dict(
            default="small", choices=["tiny", "small", "medium"],
            help="real-data budget (small = reference; see DESIGN.md §7)",
        ))),
        "select": _group(
            ("--workload", dict(
                default="wordcount",
                help="Table 2 workload to run (`all` = every one; default wordcount)",
            )),
            ("--engine", dict(default="both", help="engine(s) to run: both, hamr, or hadoop")),
        ),
        "fabric": _group(
            ("--fabric", dict(
                default=RunSpec.fabric, choices=FABRICS,
                help="exchange fabric; direct is the legacy byte-identical path "
                "(DESIGN.md §7.3). Off-direct runs are labelled engine@fabric and "
                "stamp the fabric into journals and JSON documents",
            )),
            ("--partitioner", dict(
                default=RunSpec.partitioner, choices=PARTITIONERS,
                help="partition ownership: hash (owner = partition %% workers) or "
                "shard (locality-first: owners are the nodes holding input shards)",
            )),
            ("--racks", dict(
                type=int, default=None, metavar="N",
                help="split the workers into N racks of contiguous workers "
                "(twolevel defaults to 4 racks when unset)",
            )),
        ),
        "trace": _group(("--trace-max-records", dict(
            type=int, default=None, metavar="N",
            help="bound the sim-trace ring buffer (oldest records are evicted past "
            "N; evictions are a WARNING and are counted in journal footers)",
        ))),
        "json": _group(("--json", dict(
            metavar="PATH",
            help="also write the result as JSON (`-` = JSON to stdout, no text report)",
        ))),
        "chrome": _group(("--chrome", dict(
            metavar="PATH", help="write a Chrome/Perfetto trace-event file"
        ))),
        "partial": _group(("--allow-partial", dict(
            action="store_true",
            help="accept a truncated (footer-less) journal and reconstruct a "
            "best-effort footer up to the last complete event",
        ))),
        "bins": _group(("--bins", dict(
            type=int, default=60, help="time bins per telemetry heatmap row (default 60)"
        ))),
        "out": _group(("--out", dict(
            default=None, metavar="PREFIX",
            help="write PREFIX.<workload>.<engine>.journal.jsonl per run; a PREFIX "
            "ending in .jsonl or .jsonl.gz with one workload and one engine is the "
            "exact path (.gz compresses)",
        ))),
        "slo": _group(("--slo-spec", dict(
            metavar="PATH",
            help='JSON SLO overrides ({"workload:engine": {"makespan_budget": ...}, '
            '"*": {...}})',
        ))),
        "index": _group(("--index", dict(
            default=None, metavar="PATH", help="the corpus index file (default corpus.jsonl)"
        ))),
        "where": _group(("--where", dict(
            default=None, metavar="COL=VAL,...",
            help="keep only index rows matching every column=value constraint "
            "(values parsed as JSON, else strings)",
        ))),
        "detector": _group(
            ("--metric", dict(
                default="virtual_seconds",
                choices=ROW_METRICS,
                help="history metric to scan (default virtual_seconds)",
            )),
            ("--min-history", dict(
                type=int, default=4, metavar="N",
                help="reference rows required before verdicts (default 4)",
            )),
            ("--sustain", dict(
                type=int, default=2, metavar="N",
                help="consecutive out-of-band rows that confirm a shift (default 2)",
            )),
            ("--mad-threshold", dict(
                type=float, default=4.0, metavar="K",
                help="band half-width in robust sigmas (default 4.0)",
            )),
        ),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation",
        description="Regenerate the HAMR paper's tables and figures, and record, "
        "replay, explain and diagnose the runs behind them.",
        epilog="`<command> --help` documents each command. Exit codes: 0 ok, "
        "1 a gate failed, 2 bad input.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")
    shared = _shared_groups()

    def command(name, handler, groups="", into=commands, **options):
        """Declare one command: ``handler`` is ``module:function`` under
        :mod:`repro.evaluation.cli`, ``groups`` the shared flag groups."""
        sub = into.add_parser(
            name, parents=[shared[g] for g in groups.split()],
            description=options.get("help"), **options,
        )
        sub.set_defaults(handler=handler, usage_error=sub.error)
        return sub

    live = "fidelity select fabric"
    command("table1", "paper:table1", help="Table 1: the simulated cluster")
    for name, what in (
        ("table2", "Table 2: the eight benchmarks, IDH vs HAMR"),
        ("table3", "Table 3: the combiner on HAMR"),
        ("fig3a", "Figure 3(a): speedup bars, feature-friendly apps"),
        ("fig3b", "Figure 3(b): speedup bars, IO-intensive apps"),
        ("all", "Tables 2 and 3 and both figures from one Table 2 sweep"),
    ):
        command(name, "paper:sweep", "fidelity", help=what)
    command(
        "bench", "paper:bench", "fidelity fabric", help="run one Table 2 row",
    ).add_argument("name", metavar="NAME", choices=TABLE2_ORDER, help="the workload")

    command(
        "report", "live:report", f"{live} trace json chrome",
        help="run one workload traced; print its observability report "
        "(Gantt, blame, utilization, critical path)",
    )
    command(
        "timeline", "live:timeline", f"{live} trace bins json chrome",
        help="run workload(s) traced; print resource heatmaps, traffic matrices and skew",
    )
    command(
        "profile", "live:profile", f"{live} json chrome",
        help="run workload(s) with the host clock on; print where host time "
        "went and the virtual-vs-host fidelity audit",
    )
    command(
        "calibrate", "live:calibrate", f"{live} json",
        help="re-fit the compute-cost constants from measured host time (a proposal)",
    )
    command(
        "journal", "live:journal", f"{live} trace out",
        help="run workload(s) journaled; write one durable JSONL journal per "
        "workload x engine (PREFIX defaults to `run`)",
    )
    sub = command(
        "watch", "live:watch", f"{live} trace out slo json",
        help="run workload(s) with the live progress engine; print the "
        "dashboard frames (journaled, so `replay --view watch` re-renders them)",
    )
    sub.add_argument("workload_arg", nargs="?", metavar="WORKLOAD", help="same as --workload")
    sub.add_argument("engine_arg", nargs="?", metavar="ENGINE", help="same as --engine")
    sub.add_argument(
        "--interval", type=float, default=25.0, metavar="SECONDS",
        help="virtual seconds between dashboard frames (default 25)",
    )
    sub.add_argument(
        "--stall-window", type=float, default=300.0, metavar="SECONDS",
        help="flag STALLED when no tracked counter advances for this many "
        "virtual seconds (default 300)",
    )
    sub = command(
        "slo", "live:slo", f"{live} trace slo json",
        help="check a BENCH artifact, or live run(s), against the per-workload "
        "SLO specs; exit 1 on any breach",
    )
    sub.add_argument(
        "target", nargs="?", metavar="BENCH.json|WORKLOAD",
        help="a BENCH artifact to check, or the workload to run (same as --workload)",
    )
    sub.add_argument("engine_arg", nargs="?", metavar="ENGINE", help="same as --engine")

    sub = command(
        "replay", "journals:replay", "bins json chrome partial",
        help="reconstruct a run's report/timeline/critpath/watch output from "
        "its journal alone, byte-identical to the live command",
    )
    sub.add_argument("journal", metavar="JOURNAL", help="a .jsonl or .jsonl.gz run journal")
    sub.add_argument(
        "--view", default="report", choices=["report", "timeline", "critpath", "watch"],
        help="which derived view to reconstruct (default report)",
    )
    sub = command(
        "explain", "journals:explain", "fidelity fabric trace json partial",
        help="align two runs and attribute their makespan delta to blame "
        "buckets, operators and nodes",
        epilog="A and B are journal files or workload:engine specs (run live first).",
    )
    sub.add_argument("a", metavar="A", help="baseline run")
    sub.add_argument("b", metavar="B", help="candidate run")
    sub = command(
        "whatif", "journals:whatif", "fidelity fabric trace json partial",
        help="predict a run's makespan under a counterfactual scenario, with bounds",
        epilog="Bucket-only scenarios are exact: --emit-journal writes the dilated "
        "journal, which is also how a regression is seeded (disk=0.5: disk work "
        "takes 2x).",
    )
    sub.add_argument("run", metavar="RUN", help="a journal file, or workload:engine to run first")
    sub.add_argument(
        "--scenario", default=None, metavar="SPEC",
        help="comma-separated counterfactual, e.g. net=2.0,disk=0.5,nodes=16,"
        "fabric=rdma — bucket values are SPEED multipliers (2.0 = twice as "
        "fast); empty/`identity` predicts the journal's own makespan exactly",
    )
    sub.add_argument(
        "--sweep", default=None, metavar="KEY=RANGE",
        help="capacity curve over one knob: `nodes=4..32` (doubling), "
        "`nodes=4..16:4` (linear step), `disk=0.25,0.5,2` (explicit list)",
    )
    sub.add_argument(
        "--execute", action="store_true",
        help="re-run the requested scenario for real and report the prediction error",
    )
    sub.add_argument(
        "--validate", action="store_true",
        help="run the whole executable validation matrix (dilations, node "
        "rescales, fabric swaps) and report per-scenario prediction error",
    )
    sub.add_argument(
        "--max-error", type=float, default=None, metavar="F",
        help="exit 1 when any executed scenario's |prediction error| exceeds F "
        "(e.g. 0.35 = 35%%)",
    )
    sub.add_argument(
        "--emit-journal", default=None, metavar="PATH",
        help="write the scenario-transformed journal (bucket-only scenarios; "
        "`.gz` compresses)",
    )

    sub = command(
        "diff", "fleet:diff", "json",
        help="compare two BENCH/report artifacts; explain drift via blame, "
        "critical-path and traffic deltas",
    )
    sub.add_argument("a", metavar="A.json", help="baseline artifact")
    sub.add_argument("b", metavar="B.json", help="candidate artifact")
    sub.add_argument(
        "--tolerance", type=float, default=0.01,
        help="relative virtual-seconds drift tolerance (default 1%%)",
    )
    sub.add_argument(
        "--fail-on-drift", action="store_true",
        help="exit 1 when any workload drifts beyond tolerance",
    )
    sub = command(
        "trend", "fleet:trend", "detector json",
        help="median+MAD change-point detection over the perf history",
    )
    sub.add_argument(
        "history", nargs="?", metavar="HISTORY", help="default BENCH_history.jsonl"
    )
    sub.add_argument(
        "--window", type=int, default=None, metavar="N",
        help="only scan the last N history rows (default: all)",
    )
    sub.add_argument(
        "--fail-on-shift", action="store_true",
        help="exit 1 when a sustained shift is detected",
    )
    corpus = command(
        "corpus", None, help="the journal warehouse: a fingerprint-deduplicated index of runs",
    ).add_subparsers(dest="corpus_command", required=True, metavar="ingest|ls|show")
    command(
        "ingest", "fleet:corpus_ingest", "index partial", into=corpus,
        help="scan for *.jsonl[.gz] journals and merge their summary rows into "
        "the index (idempotent; --allow-partial also skips undecodable files)",
    ).add_argument("path", metavar="PATH", help="a directory (scanned recursively) or a journal")
    command(
        "ls", "fleet:corpus_ls", "index where json", into=corpus, help="list indexed runs",
    )
    command(
        "show", "fleet:corpus_show", "index json", into=corpus, help="one indexed run in full",
    ).add_argument("fingerprint", metavar="FINGERPRINT", help="a fingerprint prefix")
    sub = command(
        "doctor", "fleet:doctor", "index detector json partial",
        help="diagnose a regression between two runs: ranked root causes with "
        "confidence tiers and a ready-to-run whatif counter-scenario",
        epilog="A and B are journal paths, corpus fingerprint prefixes (>= 8 hex) "
        "or unique workload:engine[@fabric][+partitioner] selectors. With --shift, "
        "A is the shifted series and the baseline/regressed pair is picked from "
        "the history.",
    )
    sub.add_argument("a", metavar="A", help="baseline run (or the shifted series with --shift)")
    sub.add_argument("b", nargs="?", metavar="B", help="regressed run")
    sub.add_argument(
        "--shift", action="store_true",
        help="re-run the trend detector over --history for series A and "
        "auto-pick the baseline/regressed journal pair",
    )
    sub.add_argument(
        "--history", default=None, metavar="PATH",
        help="the BENCH history file (default BENCH_history.jsonl)",
    )
    command(
        "analytics", "fleet:analytics", "index where json",
        help="run the canned fleet SQL queries over the corpus on both engines; "
        "exit 1 if their results diverge",
    ).add_argument(
        "--workers", type=int, default=3, metavar="N",
        help="simulated workers per engine cluster (default 3)",
    )
    return parser


def _input_errors() -> tuple:
    """What ``main`` reports as bad input rather than as a bug. Evaluated
    only once a handler has raised, so the imports cost nothing otherwise."""
    from repro.obs.doctor import DoctorError
    from repro.obs.journal import JournalError
    from repro.obs.whatif import ScenarioError

    return (CLIError, OSError, JournalError, ScenarioError, DoctorError)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for dest in POSITIVE:
            value = getattr(args, dest, None)
            if value is not None and value <= 0:
                flag = dest.replace("_", "-")
                raise CLIError(f"--{flag} must be positive (got {value:g})")
        module, function = args.handler.split(":")
        handler = getattr(importlib.import_module(f"repro.evaluation.cli.{module}"), function)
        return handler(args) or 0
    except _input_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "code", 2)


if __name__ == "__main__":
    raise SystemExit(main())
