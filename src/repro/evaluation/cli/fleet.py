"""Commands over artifacts of many runs: diff, trend, corpus, doctor, analytics."""

from __future__ import annotations

import os
import sys

from repro.evaluation.cli import CLIError
from repro.evaluation.cli.present import present
from repro.evaluation.cli.runs import load_run
from repro.obs.corpus import (
    CORPUS_SCHEMA,
    DEFAULT_INDEX_PATH,
    filter_rows,
    find_by_fingerprint,
    ingest,
    load_corpus,
    parse_where,
    render_corpus,
    render_row,
    save_corpus,
)
from repro.obs.history import DEFAULT_HISTORY_PATH, load_history


def _artifact(path: str) -> dict:
    from repro.obs.diff import ArtifactError, load_artifact

    try:
        return load_artifact(path)
    except ArtifactError as exc:  # names the file itself
        raise CLIError(str(exc)) from exc
    except ValueError as exc:  # not JSON
        raise CLIError(f"{path}: {exc}") from exc


def diff(args) -> int:
    """Compare two observability artifacts; optionally gate on drift."""
    from repro.obs.diff import diff_artifacts, render_diff

    result = diff_artifacts(_artifact(args.a), _artifact(args.b), tolerance=args.tolerance)
    if not any(result.rows.values()):
        raise CLIError(
            "the two artifacts share no workload × engine rows — nothing to compare"
        )
    present(
        args,
        lambda: render_diff(result, label_a=args.a, label_b=args.b),
        result.to_dict,
    )
    return 1 if args.fail_on_drift and not result.ok else 0


def _history(path: str) -> list[dict]:
    try:
        return load_history(path)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


def trend(args) -> int:
    """Change-point detection over the perf history; optional CI gate."""
    from repro.obs.history import render_trend, trend_report

    path = args.history or DEFAULT_HISTORY_PATH
    history = _history(path)
    if not history:
        raise CLIError(f"{path} holds no history rows")
    if args.window is not None:
        history = history[-args.window:]
    report = trend_report(
        history,
        metric=args.metric,
        min_history=args.min_history,
        threshold=args.mad_threshold,
        sustain=args.sustain,
    )
    present(args, lambda: render_trend(report, history_path=path), lambda: report)
    return 1 if args.fail_on_shift and report["shifts"] else 0


# -- the journal warehouse ----------------------------------------------------------


def _index_rows(args) -> list[dict]:
    try:
        return load_corpus(args.index or DEFAULT_INDEX_PATH)
    except OSError as exc:
        raise CLIError(f"{exc} (build the index with `corpus ingest <dir>`)") from exc


def _where(args) -> dict:
    try:
        return parse_where(args.where) if args.where else {}
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


def corpus_ingest(args) -> None:
    index = args.index or DEFAULT_INDEX_PATH
    if not os.path.exists(args.path):
        raise CLIError(f"no such path: {args.path}")
    existing = load_corpus(index) if os.path.exists(index) else []
    rows, stats = ingest(
        [args.path], existing, allow_partial=args.allow_partial, exclude=[index]
    )
    save_corpus(rows, index)
    print(
        f"{index}: {stats['scanned']} journal(s) scanned, "
        f"{stats['added']} added, {stats['duplicates']} duplicate(s), "
        f"{stats['skipped']} skipped — {len(rows)} run(s) indexed",
        file=sys.stderr,
    )


def corpus_ls(args) -> None:
    rows = filter_rows(_index_rows(args), _where(args))
    present(
        args, lambda: render_corpus(rows), lambda: {"schema": CORPUS_SCHEMA, "rows": rows}
    )


def corpus_show(args) -> None:
    matched = find_by_fingerprint(_index_rows(args), args.fingerprint)
    if not matched:
        raise CLIError(f"no corpus row matches fingerprint {args.fingerprint!r}")
    if len(matched) > 1:
        listing = ", ".join(row["fingerprint"][:12] for row in matched)
        raise CLIError(
            f"fingerprint prefix {args.fingerprint!r} is ambiguous ({listing})"
        )
    present(args, lambda: render_row(matched[0]), lambda: matched[0])


def doctor(args) -> None:
    """Automated regression diagnosis over two corpus-resolved journals."""
    from repro.obs.doctor import diagnose, render_doctor, resolve_shift, resolve_spec

    if args.shift and args.b:
        args.usage_error(
            "doctor --shift takes exactly one shifted series spec "
            "(workload:engine[@fabric][+partitioner])"
        )
    if not args.shift and not args.b:
        args.usage_error(
            "doctor requires two run specs (journal paths, corpus fingerprints "
            "or workload:engine selectors), or --shift with one series spec"
        )
    index = args.index or DEFAULT_INDEX_PATH
    rows = _index_rows(args) if os.path.exists(index) else []
    shift = None
    if args.shift:
        path_a, path_b, shift = resolve_shift(
            _history(args.history or DEFAULT_HISTORY_PATH),
            rows,
            args.a,
            metric=args.metric,
            index_path=index,
            min_history=args.min_history,
            threshold=args.mad_threshold,
            sustain=args.sustain,
        )
    else:  # both specs resolve before either journal is replayed
        path_a, path_b = (resolve_spec(rows, spec, index) for spec in (args.a, args.b))
    run_a, run_b = (load_run(path, args.allow_partial) for path in (path_a, path_b))
    report = diagnose(run_a, run_b, path_a, path_b, shift=shift)
    present(args, lambda: render_doctor(report), report.to_dict)


def analytics(args) -> int:
    """Fleet SQL over the corpus, reference-checked across both engines."""
    from repro.obs.analytics import render_analytics, run_analytics

    rows = filter_rows(_index_rows(args), _where(args))
    if not rows:
        raise CLIError(
            "the corpus index holds no matching runs — ingest journals first "
            "(`corpus ingest <dir>`)"
        )
    report = run_analytics(rows, num_workers=args.workers)
    present(args, lambda: render_analytics(report), lambda: report)
    if not report["all_match"]:
        print(
            "FAIL: engine results diverged on at least one canned query",
            file=sys.stderr,
        )
        return 1
    return 0
