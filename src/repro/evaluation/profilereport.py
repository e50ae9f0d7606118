"""Render host-time profiles: bucket summary, flat hot list, top-down tree.

The layout is deterministic (sorted by self/total host-ns, then label) —
the *values* are host noise by nature. Host time is gated only by
``benchmarks/perf`` (paired runs, bounded metrics), never by a committed
artifact.
"""

from __future__ import annotations

from repro.obs.hostprof import HOSTPROF_SCHEMA

__all__ = ["HOSTPROF_SCHEMA", "render_hostprof", "profile_payload"]


def _ms(ns: int) -> str:
    return f"{ns / 1e6:.2f}"


def render_hostprof(snapshot: dict, title: str = "", top: int = 20) -> str:
    """ASCII views of one hostprof snapshot (buckets, flat, tree)."""
    from repro.evaluation.report import render_table

    if snapshot.get("schema") != HOSTPROF_SCHEMA:
        raise ValueError(f"not a hostprof snapshot: {snapshot.get('schema')!r}")
    lines = []
    if title:
        lines.append(title)

    total = snapshot["total_ns"]
    bucket_rows = [
        [bucket, _ms(ns), f"{100.0 * snapshot['shares'][bucket]:.1f}%"]
        for bucket, ns in snapshot["buckets"].items()
    ]
    bucket_rows.append(["TOTAL", _ms(total), "100.0%" if total else "0.0%"])
    lines.append(
        render_table(
            ["bucket", "host ms", "share"],
            bucket_rows,
            title="Host time by subsystem bucket (self ns; buckets sum to total)",
        )
    )

    flat = sorted(snapshot["flat"], key=lambda r: (-r["self_ns"], r["bucket"], r["label"]))
    flat_rows = [
        [
            row["bucket"],
            row["label"],
            str(row["calls"]),
            _ms(row["self_ns"]),
            _ms(row["total_ns"]),
            f"{row['self_ns'] / row['calls']:,.0f}" if row["calls"] else "-",
        ]
        for row in flat[:top]
    ]
    lines.append(
        render_table(
            ["bucket", "label", "calls", "self ms", "total ms", "ns/call"],
            flat_rows,
            title=f"Flat profile — hottest {min(top, len(flat))} of {len(flat)} rows",
        )
    )

    tree = sorted(
        snapshot["tree"],
        key=lambda r: (r["path"][0], -r["total_ns"], r["path"]),
    )
    # Top-down: parents before children, children ordered by total desc.
    by_parent: dict[tuple, list[dict]] = {}
    for node in tree:
        by_parent.setdefault(tuple(node["path"][:-1]), []).append(node)
    tree_rows: list[list[str]] = []

    def _walk(prefix: tuple, depth: int) -> None:
        for node in sorted(
            by_parent.get(prefix, []), key=lambda r: (-r["total_ns"], r["path"])
        ):
            label = "  " * depth + node["path"][-1]
            tree_rows.append(
                [label, str(node["calls"]), _ms(node["total_ns"]), _ms(node["self_ns"])]
            )
            _walk(tuple(node["path"]), depth + 1)

    _walk((), 0)
    lines.append(
        render_table(
            ["frame (bucket/label)", "calls", "total ms", "self ms"],
            tree_rows,
            title="Top-down tree",
        )
    )
    return "\n\n".join(lines)


def profile_payload(
    fidelity: str, entries: dict[str, dict[str, dict]]
) -> dict:
    """Assemble the ``profile`` subcommand's JSON document.

    ``entries`` maps workload -> engine -> {"hostprof": snapshot,
    "fidelity": fidelity_dict}. The top-level schema is the hostprof
    schema: the per-run snapshots are the payload, the fidelity join is
    derived from them.
    """
    return {
        "schema": HOSTPROF_SCHEMA,
        "fidelity": fidelity,
        "workloads": entries,
    }
