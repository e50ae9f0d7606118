"""Journal corpus: a deterministic warehouse over a fleet of run journals.

Every tool below this layer (``replay``, ``explain``, ``whatif``) takes
one or two journal files by path; at fleet scale (hundreds of runs a
day) the missing tier is an *index* — which journals exist, what run
each one describes, and the headline numbers that let you pick the two
worth comparing without replaying everything.

``ingest`` scans a directory (or explicit paths) for ``*.jsonl`` /
``*.jsonl.gz`` journals, replays each one once, and distills a compact
summary row: run identity (workload, engine, fabric, partitioner,
cluster shape, producing commit), footer counters, and the run's
:class:`~repro.obs.summary.RunSummary` — the makespan, blame-bucket
seconds summed over every job, the critical-path rollup, the
drift-gated traffic totals, and the per-node CPU straggler
statistics. Rows are deduplicated by **run fingerprint** — the SHA-256
of the journal's canonical record encoding — so re-ingesting the same
directory (or the same journal under two names) is idempotent, and the
index file is byte-identical across reruns (schema
:data:`CORPUS_SCHEMA`, canonical JSONL, deterministic sort order).

The index is the substrate for two consumers: the ``doctor`` verb
(:mod:`repro.obs.doctor`) resolves run specs against it to auto-locate
regression/baseline journal pairs, and the fleet-analytics layer
(:mod:`repro.obs.analytics`) exports it as SQL tables for aggregate
queries over the whole fleet.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from typing import Iterable, Optional

from repro.obs.journal import JournalError, encode_record, load_journal
from repro.obs.replay import replay_records
from repro.obs.summary import RunSummary

CORPUS_SCHEMA = "repro.obs.corpus/v1"

#: default index file, relative to the repo root / cwd
DEFAULT_INDEX_PATH = "corpus.jsonl"

#: journal filename suffixes ``scan_journals`` picks up
JOURNAL_SUFFIXES = (".jsonl", ".jsonl.gz")


def journal_fingerprint(records: list[dict]) -> str:
    """SHA-256 over the canonical record encoding: the run's identity.

    Canonical encoding (sorted keys, compact separators) means the
    fingerprint is invariant under gzip, renames and re-serialization —
    two files holding the same run always collide into one corpus row.
    """
    digest = hashlib.sha256()
    for record in records:
        digest.update(encode_record(record).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def summarize_records(
    records: list[dict], path: str, fingerprint: Optional[str] = None
) -> dict:
    """One corpus row from validated journal records: the run's
    :class:`RunSummary` plus its envelope."""
    run = replay_records(records)
    summary = RunSummary.from_tracer(run.spec, run.tracer, run.makespan)
    return {
        "schema": CORPUS_SCHEMA,
        "fingerprint": fingerprint or journal_fingerprint(records),
        "path": path,
        **asdict(summary.spec),
        "label": run.label,
        "data_size": run.data_size,
        "fidelity": run.fidelity,
        "nodes": run.num_nodes,
        "rack_size": run.rack_size,
        "commit": run.header.get("commit"),
        "partial": run.partial,
        "seeded_slowdown": run.footer.get("seeded_slowdown"),
        "makespan": summary.makespan,
        "virtual_end": round(run.virtual_end, 6),
        "events": run.footer.get("events", 0),
        "trace_dropped": run.trace_dropped,
        "blame": summary.blame,
        "blame_total": summary.blame_total,
        "critpath": summary.critpath,
        "traffic": summary.traffic,
        "straggler_cv": summary.straggler["cv"],
        "straggler_max_mean_ratio": summary.straggler["max_mean_ratio"],
        "stragglers": summary.straggler["stragglers"],
    }


def summarize_journal(path: str, *, allow_partial: bool = False) -> dict:
    """Load, replay and summarize one journal file into a corpus row."""
    records = load_journal(path, allow_partial=allow_partial)
    return summarize_records(records, path)


# -- the index file -----------------------------------------------------------------


def encode_row(row: dict) -> str:
    """Canonical one-line encoding — same contract as journal records:
    encode→decode→re-encode is byte-identical."""
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def decode_row(line: str) -> dict:
    try:
        row = json.loads(line)
    except ValueError as exc:
        raise JournalError(f"malformed corpus row: {line[:80]!r}") from exc
    if not isinstance(row, dict) or row.get("schema") != CORPUS_SCHEMA:
        raise JournalError(
            f"not a corpus row (expected schema {CORPUS_SCHEMA!r}): {line[:80]!r}"
        )
    return row


def row_sort_key(row: dict) -> tuple:
    """Deterministic index order: run identity first, fingerprint last."""
    return (
        row.get("workload") or "",
        row.get("engine") or "",
        row.get("fabric") or "",
        row.get("partitioner") or "",
        row.get("fingerprint") or "",
    )


def merge_rows(existing: list[dict], new: list[dict]) -> list[dict]:
    """Dedup by fingerprint (first occurrence wins) and sort canonically.

    ``existing`` rows take precedence, so re-ingesting never rewrites a
    row that is already indexed — the property that makes two
    independent ingests of the same journal set byte-identical.
    """
    seen: dict[str, dict] = {}
    for row in list(existing) + list(new):
        seen.setdefault(row["fingerprint"], row)
    return sorted(seen.values(), key=row_sort_key)


def load_corpus(path: str) -> list[dict]:
    """All index rows; blank lines skipped, schema validated per line."""
    rows = []
    with open(path) as fh:
        for i, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rows.append(decode_row(line))
            except JournalError as exc:
                raise JournalError(f"{path}:{i}: {exc}") from None
    return rows


def save_corpus(rows: list[dict], path: str) -> None:
    """Rewrite the index canonically (sorted, deduped, one row per line)."""
    with open(path, "w") as fh:
        for row in merge_rows(rows, []):
            fh.write(encode_row(row) + "\n")


def scan_journals(target: str) -> list[str]:
    """Journal paths under a directory (recursive), or the path itself.

    Sorted for deterministic ingest order; the corpus index never
    depends on filesystem enumeration order.
    """
    if os.path.isdir(target):
        found = []
        for dirpath, dirnames, filenames in os.walk(target):
            dirnames.sort()
            for filename in sorted(filenames):
                if filename.endswith(JOURNAL_SUFFIXES):
                    found.append(os.path.join(dirpath, filename))
        return sorted(found)
    return [target]


def ingest(
    targets: Iterable[str],
    existing: Optional[list[dict]] = None,
    *,
    allow_partial: bool = False,
    exclude: Iterable[str] = (),
) -> tuple[list[dict], dict]:
    """Scan targets, summarize every journal, merge into the index rows.

    Returns ``(rows, stats)`` where stats counts scanned/added/duplicate/
    skipped files. Unreadable or non-journal files raise unless
    ``allow_partial`` — partial tolerance extends to *files*: a journal
    that cannot be decoded at all is skipped (and counted) instead of
    aborting the whole ingest. ``exclude`` paths are never scanned (the
    CLI passes the index file itself, which shares the ``.jsonl``
    suffix and may sit inside the scanned directory).
    """
    existing = list(existing or [])
    known = {row["fingerprint"] for row in existing}
    excluded = {os.path.abspath(path) for path in exclude}
    new: list[dict] = []
    stats = {"scanned": 0, "added": 0, "duplicates": 0, "skipped": 0}
    for target in targets:
        for path in scan_journals(target):
            if os.path.abspath(path) in excluded:
                continue
            stats["scanned"] += 1
            try:
                records = load_journal(path, allow_partial=allow_partial)
            except (OSError, JournalError):
                if not allow_partial:
                    raise
                stats["skipped"] += 1
                continue
            fingerprint = journal_fingerprint(records)
            if fingerprint in known:
                stats["duplicates"] += 1
                continue
            known.add(fingerprint)
            new.append(summarize_records(records, path, fingerprint=fingerprint))
            stats["added"] += 1
    return merge_rows(existing, new), stats


# -- queries over the index ---------------------------------------------------------


def filter_rows(rows: list[dict], where: Optional[dict] = None) -> list[dict]:
    """Rows matching every ``column == value`` constraint in ``where``."""
    if not where:
        return list(rows)
    out = []
    for row in rows:
        if all(row.get(key) == value for key, value in where.items()):
            out.append(row)
    return out


def find_by_fingerprint(rows: list[dict], prefix: str) -> list[dict]:
    """Rows whose fingerprint starts with ``prefix`` (hex, any length)."""
    return [row for row in rows if row["fingerprint"].startswith(prefix)]


def parse_where(spec: str) -> dict:
    """Parse ``--where workload=wordcount,engine=hamr,...`` filters."""
    where: dict = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep or not key:
            raise ValueError(
                f"bad --where clause {part!r} (expected column=value)"
            )
        if value == "":
            parsed: object = None
        else:
            try:
                parsed = json.loads(value)
            except ValueError:
                parsed = value
        where[key] = parsed
    return where


# -- rendering ----------------------------------------------------------------------


def render_corpus(rows: list[dict]) -> str:
    """The ``corpus ls`` table: one line per indexed run."""
    lines = [
        f"{'fingerprint':<12} {'workload':<20} {'engine':<8} {'fabric':<9} "
        f"{'part':<6} {'commit':<10} {'makespan':>12} flags",
        "-" * 88,
    ]
    for row in rows:
        flags = []
        if row.get("partial"):
            flags.append("partial")
        if row.get("seeded_slowdown"):
            flags.append("seeded")
        if row.get("trace_dropped"):
            flags.append(f"dropped={row['trace_dropped']}")
        lines.append(
            f"{row['fingerprint'][:12]:<12} {(row.get('workload') or '-'):<20} "
            f"{(row.get('engine') or '-'):<8} {(row.get('fabric') or '-'):<9} "
            f"{(row.get('partitioner') or '-'):<6} "
            f"{(row.get('commit') or '-'):<10} "
            f"{row.get('makespan', 0.0):>12.3f} {','.join(flags) or '-'}"
        )
    lines.append("-" * 88)
    lines.append(f"{len(rows)} run(s) indexed")
    return "\n".join(lines)


def render_row(row: dict) -> str:
    """The ``corpus show`` detail view for one indexed run."""
    lines = [
        f"== corpus row {row['fingerprint'][:12]} ==",
        f"path        {row.get('path')}",
        f"run         {row.get('workload')}:{row.get('engine')} "
        f"fabric={row.get('fabric')} partitioner={row.get('partitioner')} "
        f"nodes={row.get('nodes')} rack_size={row.get('rack_size')}",
        f"provenance  commit={row.get('commit') or '-'} "
        f"fidelity={row.get('fidelity') or '-'} "
        f"partial={bool(row.get('partial'))} "
        f"trace_dropped={row.get('trace_dropped', 0)}",
        f"makespan    {row.get('makespan', 0.0):.3f}s "
        f"(virtual end {row.get('virtual_end', 0.0):.3f}s, "
        f"{row.get('events', 0)} events)",
    ]
    if row.get("seeded_slowdown"):
        lines.append(f"seeded      {json.dumps(row['seeded_slowdown'], sort_keys=True)}")
    blame = row.get("blame", {})
    total = row.get("blame_total", 0.0)
    parts = [
        f"{bucket}={blame[bucket]:.3f}s"
        for bucket in sorted(blame)
        if blame[bucket] > 0.0
    ]
    lines.append(f"blame       {' '.join(parts) or '-'} (total {total:.3f}s)")
    critpath = row.get("critpath", {})
    parts = [
        f"{key}={critpath[key]:.3f}s"
        for key in sorted(critpath)
        if critpath[key] > 0.0
    ]
    lines.append(f"critpath    {' '.join(parts) or '-'}")
    traffic = row.get("traffic", {})
    lines.append(
        f"traffic     total={traffic.get('total_bytes', 0.0):.0f}B "
        f"remote={traffic.get('remote_bytes', 0.0):.0f}B "
        f"shuffle={traffic.get('shuffle_bytes', 0.0):.0f}B "
        f"records={traffic.get('records', 0.0):.0f}"
    )
    lines.append(
        f"skew        cv={row.get('straggler_cv', 0.0):.4f} "
        f"max/mean={row.get('straggler_max_mean_ratio', 0.0):.4f} "
        f"stragglers={row.get('stragglers', [])}"
    )
    return "\n".join(lines)
