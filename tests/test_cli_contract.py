"""The evaluation CLI's contract: exit codes, error lines, ``--help``, goldens.

Three tables pin what ``python -m repro.evaluation`` promises:

* :data:`BAD_INPUT` — ``argv -> (exit code, start of the final stderr
  line)`` for every command's usage and bad-input paths (0 ok / 1 gate
  failed / 2 bad input; README "CLI contract");
* every subcommand answers ``--help`` with exit 0;
* :data:`GOLDEN_STEPS` — a chain of tiny-fidelity invocations whose
  stdout and written files are compared byte for byte with
  ``tests/golden/cli/`` (captured at the commit before the CLI became a
  command table). Outputs over :data:`INLINE_LIMIT` bytes are pinned by
  sha256 + length instead of verbatim. The BENCH inputs are frozen copies
  under ``tests/golden/cli/inputs`` so regenerating ``BENCH_obs.json`` or
  appending a history row does not invalidate the set.

Regenerate (only when an output change is intended)::

    PYTHONPATH=src python tests/test_cli_contract.py --regen
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

import repro.evaluation.runner as runner
from repro.evaluation.__main__ import main

GOLDEN = Path(__file__).parent / "golden" / "cli"
INLINE_LIMIT = 32 * 1024

WL = "histogram_movies"  # the smallest tiny-fidelity journal of Table 2
LIVE = ["--workload", WL, "--engine", "hamr", "--fidelity", "tiny"]
JOURNAL = f"run.{WL}.hamr.journal.jsonl"


def _commands(parser=None, prefix=()):
    """Every command path the parser declares, nested ones included."""
    import argparse

    if parser is None:
        from repro.evaluation.__main__ import build_parser

        parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield " ".join((*prefix, name))
                yield from _commands(sub, (*prefix, name))


def run_cli(argv):
    """``main(argv)`` -> (exit code, stdout, stderr); SystemExit counts as
    its code (argparse's own usage errors leave that way)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# -- exit codes and error lines -----------------------------------------------------

USAGE = "python -m repro.evaluation"

#: argv -> (exit code, how the final stderr line starts)
BAD_INPUT = [
    # argparse's own usage errors (exit 2 through SystemExit)
    (["table9"], 2, f"{USAGE}: error: argument "),
    (["bench"], 2, f"{USAGE} bench: error: "),
    (["bench", "nope"], 2, f"{USAGE} bench: error: argument NAME: invalid choice"),
    (["diff", "only-one.json"], 2, f"{USAGE} diff: error: "),
    (["replay"], 2, f"{USAGE} replay: error: "),
    (["explain", "wordcount:hamr"], 2, f"{USAGE} explain: error: "),
    (["whatif"], 2, f"{USAGE} whatif: error: "),
    (["corpus"], 2, f"{USAGE} corpus: error: "),
    (["corpus", "frobnicate"], 2, f"{USAGE} corpus: error: argument "),
    (["corpus", "ingest"], 2, f"{USAGE} corpus ingest: error: "),
    (["corpus", "show"], 2, f"{USAGE} corpus show: error: "),
    (["doctor"], 2, f"{USAGE} doctor: error: "),
    (["doctor", "a:hamr"], 2, f"{USAGE} doctor: error: doctor requires two run specs"),
    (["doctor", "a:hamr", "b:hamr", "--shift"], 2,
     f"{USAGE} doctor: error: doctor --shift takes exactly one"),
    (["report", "--workload", "all"], 2,
     f"{USAGE} report: error: report supports a single --workload"),
    # a flag its command never read is now a usage error
    (["table1", "--fidelity", "tiny"], 2, f"{USAGE}: error: unrecognized arguments"),
    (["diff", "a.json", "b.json", "--bins", "5"], 2,
     f"{USAGE}: error: unrecognized arguments"),
    (["trend", "--workload", "wordcount"], 2,
     f"{USAGE}: error: unrecognized arguments"),
    (["report", "--trace-max-records", "0"], 2,
     f"{USAGE}: error: unrecognized arguments: --trace-max-records 0"),
    # bad input caught by the handlers (exit 2, one `error: ...` line)
    (["report", "--workload", "nope"], 2, "error: unknown workload 'nope'"),
    (["report", "--engine", "warp"], 2, "error: unknown engine 'warp'"),
    (["report", "--racks", "0"], 2, "error: --racks must be positive (got 0)"),
    (["bench", "wordcount", "--racks", "-1"], 2,
     "error: --racks must be positive (got -1)"),
    (["timeline", "--workload", "nope"], 2, "error: unknown workload 'nope'"),
    (["timeline", "--bins", "0"], 2, "error: --bins must be positive (got 0)"),
    (["profile", "--workload", "nope"], 2, "error: unknown workload 'nope'"),
    (["calibrate", "--engine", "warp"], 2, "error: unknown engine 'warp'"),
    (["journal", "--workload", "nope"], 2, "error: unknown workload 'nope'"),
    (["watch", "nope", "hamr"], 2, "error: unknown workload 'nope'"),
    (["watch", "wordcount", "nope"], 2, "error: unknown engine 'nope'"),
    (["watch", "wordcount", "hamr", "--interval", "0"], 2,
     "error: --interval must be positive (got 0)"),
    (["watch", "--slo-spec", "no-such-spec.json"], 2, "error: [Errno 2]"),
    (["slo", "nope", "hamr"], 2, "error: unknown workload 'nope'"),
    (["slo", "no-such-bench.json"], 2, "error: no-such-bench.json: [Errno 2]"),
    (["slo", "--slo-spec", "no-such-spec.json"], 2, "error: [Errno 2]"),
    (["trend", "no-such-history.jsonl"], 2, "error: [Errno 2]"),
    (["trend", "--window", "0"], 2, "error: --window must be positive (got 0)"),
    (["diff", "no-such-a.json", "no-such-b.json"], 2, "error: [Errno 2]"),
    (["replay", "no-such.journal.jsonl"], 2, "error: no-such.journal.jsonl: [Errno 2]"),
    (["replay", "no-such.journal.jsonl", "--bins", "-3"], 2,
     "error: --bins must be positive (got -3)"),
    (["explain", "nope:hamr", "wordcount:hadoop"], 2,
     "error: 'nope:hamr' is neither a journal file nor a <workload>:<engine> spec"),
    (["explain", "missing.journal.jsonl", "wordcount:hamr"], 2,
     "error: missing.journal.jsonl: [Errno 2]"),
    (["whatif", "no_such.journal.jsonl"], 2, "error: no_such.journal.jsonl: [Errno 2]"),
    (["whatif", "wordcount:spark"], 2,
     "error: 'wordcount:spark' is neither a journal file nor a <workload>:<engine> spec"),
    (["whatif", "wordcount:hamr", "--scenario", "gpu=2"], 2,
     "error: unknown scenario key 'gpu'"),
    (["whatif", "wordcount:hamr", "--sweep", "nodes=0..8"], 2,
     "error: nodes must be >= 2"),
    (["corpus", "ingest", "no-such-dir"], 2, "error: no such path: no-such-dir"),
    (["corpus", "ls", "--index", "no-such-index.jsonl"], 2, "error: [Errno 2]"),
    (["corpus", "show", "abcdef12", "--index", "no-such-index.jsonl"], 2,
     "error: [Errno 2]"),
    (["doctor", "nope:hamr", "also-nope:hamr"], 2, "error: no corpus row matches 'nope:hamr'"),
    (["doctor", "wordcount:hamr", "--shift", "--history", "no-such-history.jsonl"], 2,
     "error: [Errno 2]"),
    (["analytics", "--workers", "0"], 2, "error: --workers must be positive (got 0)"),
    (["analytics", "--index", "no-such-index.jsonl"], 2, "error: [Errno 2]"),
]


@pytest.mark.parametrize(
    "argv,code,line", BAD_INPUT, ids=[" ".join(case[0]) for case in BAD_INPUT]
)
def test_bad_input_exit_code_and_error_line(argv, code, line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative no-such-* paths resolve nowhere
    got, out, err = run_cli(argv)
    assert got == code
    assert out == ""
    assert err.strip().splitlines()[-1].startswith(line), err


def test_explain_rejects_a_bad_second_spec_before_running_the_first(monkeypatch):
    from repro.evaluation.cli import runs

    def boom(*args, **kwargs):
        raise AssertionError("ran a workload before validating both specs")

    monkeypatch.setattr(runs, "run_workload", boom)
    code, _out, err = run_cli(["explain", "wordcount:hamr", "wordcount:spark"])
    assert code == 2
    assert "'wordcount:spark' is neither a journal file" in err


@pytest.mark.parametrize("command", ["", *_commands()])
def test_every_command_answers_help(command):
    code, out, err = run_cli(command.split() + ["--help"])
    assert code == 0
    assert out.startswith(f"usage: {USAGE} {command}".rstrip() + " [-h]")
    assert err == ""


def test_the_command_table_is_the_documented_one():
    assert sorted(_commands()) == sorted([
        "table1", "table2", "table3", "fig3a", "fig3b", "all", "bench",
        "report", "timeline", "diff", "profile", "calibrate", "journal",
        "replay", "explain", "watch", "slo", "trend", "whatif", "doctor",
        "analytics", "corpus", "corpus ingest", "corpus ls", "corpus show",
    ])


# -- satellites: tracebacks that became exit 2 --------------------------------------


@pytest.fixture(scope="module")
def tiny_journal(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "tiny.journal.jsonl"
    assert main(["journal", *LIVE, "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("bins", ["0", "-4"])
def test_replay_timeline_rejects_non_positive_bins(tiny_journal, bins):
    code, out, err = run_cli(
        ["replay", tiny_journal, "--view", "timeline", "--bins", bins]
    )
    assert (code, out) == (2, "")
    assert err == f"error: --bins must be positive (got {bins})\n"


def test_corpus_ingest_reports_a_malformed_index(tiny_journal, tmp_path):
    index = tmp_path / "corpus.jsonl"
    index.write_text("this is not a corpus row\n")
    code, _out, err = run_cli(["corpus", "ingest", tiny_journal, "--index", str(index)])
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert index.read_text() == "this is not a corpus row\n"  # left untouched


@pytest.mark.parametrize(
    "argv",
    [
        ["replay", "{journal}", "--json", "{missing}/out.json"],
        ["replay", "{journal}", "--chrome", "{missing}/trace.json"],
        ["whatif", "{journal}", "--emit-journal", "{missing}/out.jsonl"],
        ["journal", *LIVE, "--out", "{missing}/run"],
    ],
    ids=["json", "chrome", "emit-journal", "out"],
)
def test_unwritable_output_path_exits_2(argv, tiny_journal, tmp_path):
    missing = tmp_path / "no-such-dir"
    argv = [a.format(journal=tiny_journal, missing=missing) for a in argv]
    code, _out, err = run_cli(argv)
    assert code == 2
    assert err.strip().splitlines()[-1].startswith("error: [Errno 2]")


# -- golden outputs -----------------------------------------------------------------


def _first_fingerprint(_tmp):
    with open("corpus.jsonl") as fh:
        return json.loads(fh.readline())["fingerprint"][:12]


#: (case id, argv (or callable -> argv), files the step writes).
#: Steps run in order in one scratch cwd; later steps read earlier files.
GOLDEN_STEPS = [
    ("table1", ["table1"], []),
    # Table 2, Table 3 and both Figure 3 panels off one shared Table 2 sweep
    ("all", ["all", "--fidelity", "tiny"], []),
    ("bench", ["bench", WL, "--fidelity", "tiny"], []),
    ("report", ["report", "--workload", WL, "--engine", "both", "--fidelity", "tiny",
                "--json", "report.json"], ["report.json"]),
    ("report_stdout_json", ["report", *LIVE, "--json", "-"], []),
    ("timeline", ["timeline", *LIVE, "--json", "timeline.json",
                  "--chrome", "timeline_trace.json"],
     ["timeline.json", "timeline_trace.json"]),
    ("journal", ["journal", *LIVE, "--out", "run"], [JOURNAL]),
    ("journal_seeded", ["whatif", JOURNAL, "--scenario", "disk=0.5",
                        "--emit-journal", "seeded.jsonl"], ["seeded.jsonl"]),
    ("replay_report", ["replay", JOURNAL, "--json", "-"], []),
    ("replay_report_text", ["replay", JOURNAL, "--chrome", "replay_trace.json"],
     ["replay_trace.json"]),
    ("replay_timeline", ["replay", JOURNAL, "--view", "timeline",
                         "--json", "replay_timeline.json"], ["replay_timeline.json"]),
    ("replay_critpath", ["replay", JOURNAL, "--view", "critpath",
                         "--json", "critpath.json"], ["critpath.json"]),
    ("watch", ["watch", WL, "hamr", "--fidelity", "tiny", "--interval", "5",
               "--out", "watched.jsonl", "--json", "watch.json"],
     ["watch.json", "watched.jsonl"]),
    ("replay_watch", ["replay", "watched.jsonl", "--view", "watch",
                      "--json", "replay_watch.json"], ["replay_watch.json"]),
    ("explain", ["explain", JOURNAL, "seeded.jsonl", "--json", "explain.json"],
     ["explain.json"]),
    ("whatif", ["whatif", JOURNAL, "--scenario", "disk=0.5", "--sweep", "nodes=4..16",
                "--emit-journal", "predicted.jsonl", "--json", "whatif.json"],
     ["whatif.json", "predicted.jsonl"]),
    # --allow-partial: the scratch cwd also holds BENCH_history.jsonl (skipped)
    ("corpus_ingest", ["corpus", "ingest", ".", "--index", "corpus.jsonl",
                       "--allow-partial"], ["corpus.jsonl"]),
    ("corpus_ls", ["corpus", "ls", "--index", "corpus.jsonl", "--where", "engine=hamr",
                   "--json", "corpus_ls.json"], ["corpus_ls.json"]),
    ("corpus_show", lambda tmp: ["corpus", "show", _first_fingerprint(tmp),
                                 "--index", "corpus.jsonl"], []),
    ("doctor", ["doctor", JOURNAL, "seeded.jsonl", "--json", "doctor.json"],
     ["doctor.json"]),
    ("diff", ["diff", "BENCH_obs.json", "BENCH_obs.json", "--fail-on-drift",
              "--json", "diff.json"], ["diff.json"]),
    ("slo", ["slo", "BENCH_obs.json", "--json", "slo.json"], ["slo.json"]),
    ("slo_live", ["slo", WL, "hamr", "--fidelity", "tiny"], []),
    ("trend", ["trend", "BENCH_history.jsonl", "--json", "trend.json"],
     ["trend.json"]),
]


def _pin(data: bytes) -> bytes:
    """What the golden directory stores for one output."""
    if len(data) <= INLINE_LIMIT:
        return data
    return f"sha256 {hashlib.sha256(data).hexdigest()} bytes {len(data)}\n".encode()


def run_golden_chain(workdir: Path) -> dict[str, bytes]:
    """Execute GOLDEN_STEPS in ``workdir``; golden file name -> pinned bytes."""
    for name in ("BENCH_obs.json", "BENCH_history.jsonl"):
        shutil.copy(GOLDEN / "inputs" / name, workdir / name)
    produced: dict[str, bytes] = {}
    exits: list[str] = []
    cwd = os.getcwd()
    os.chdir(workdir)
    # Journal headers carry the producing commit, resolved once per process
    # (REPRO_GIT_COMMIT or git) and memoized: pin the memo, not the variable,
    # because an earlier test may already have filled it.
    commit_memo = runner._COMMIT_CACHE[:]
    runner._COMMIT_CACHE[:] = ["golden"]
    try:
        for case, argv, files in GOLDEN_STEPS:
            if callable(argv):
                argv = argv(workdir)
            code, out, _err = run_cli(argv)
            exits.append(f"{case} {code}\n")
            produced[f"{case}.stdout"] = _pin(out.encode())
            for name in files:
                produced[f"{case}.{name}"] = _pin((workdir / name).read_bytes())
    finally:
        runner._COMMIT_CACHE[:] = commit_memo
        os.chdir(cwd)
    produced["exit_codes.txt"] = "".join(exits).encode()
    return produced


@pytest.fixture(scope="module")
def golden_chain(tmp_path_factory):
    return run_golden_chain(tmp_path_factory.mktemp("golden"))


def _golden_names():
    return sorted(p.name for p in GOLDEN.iterdir() if p.is_file())


@pytest.mark.parametrize("name", _golden_names())
def test_output_matches_golden(golden_chain, name):
    assert name in golden_chain, f"golden {name} has no step producing it"
    assert golden_chain[name] == (GOLDEN / name).read_bytes()


def test_every_step_has_goldens(golden_chain):
    assert sorted(golden_chain) == _golden_names()


def test_replay_goldens_equal_the_live_ones(golden_chain):
    """The replay-vs-live identity, restated over the pinned outputs."""
    assert golden_chain["replay_report.stdout"] == golden_chain["report_stdout_json.stdout"]
    assert golden_chain["replay_timeline.replay_timeline.json"] == (
        golden_chain["timeline.timeline.json"]
    )
    assert golden_chain["replay_watch.stdout"] == golden_chain["watch.stdout"]
    assert golden_chain["replay_watch.replay_watch.json"] == golden_chain["watch.watch.json"]


@pytest.mark.parametrize("command,schema", [
    ("profile", "repro.obs.hostprof/v1"), ("calibrate", "repro.obs.calibration/v1"),
])
def test_host_time_commands_keep_their_schema(command, schema):
    # profile/calibrate print host time: schema only, no golden bytes
    code, out, _err = run_cli([command, *LIVE, "--json", "-"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == schema
    if command == "profile":
        assert set(payload["workloads"][WL]["hamr"]) == {"hostprof", "fidelity"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        raise SystemExit(__doc__)
    import tempfile

    for stale in GOLDEN.iterdir():
        if stale.is_file():
            stale.unlink()
    with tempfile.TemporaryDirectory() as scratch:
        for name, data in run_golden_chain(Path(scratch)).items():
            (GOLDEN / name).write_bytes(data)
            print(f"wrote {GOLDEN / name} ({len(data)} bytes)")
