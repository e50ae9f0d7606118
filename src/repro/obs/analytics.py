"""Fleet analytics: the journal corpus as SQL tables, on both engines.

The corpus index (:mod:`repro.obs.corpus`) is one summary row per run;
fleet questions — which fabric actually saves inter-rack bytes, how the
blame composition drifts across commits, which workload straggles worst
— are *aggregations* over that index. This module exports the index as
relational tables (``runs``, ``blame``, ``traffic``, ``critpath``,
``stragglers``) and ships a set of canned SELECTs answering exactly
those questions.

Because the simulator has two engines, the canned queries are also a
workload: every query runs through the HAMR flowlet compiler
(:class:`repro.sql.SQLSession`) **and** the MapReduce executor
(:class:`repro.sql.mr.MRSQLSession`) on fresh simulated clusters, the
result rows are reference-checked against each other, and the paired
virtual makespans land in a BENCH row — SQL-on-telemetry as a Table 2
style dual-engine comparison (the BigBench direction §7 sketches).

Float caveat: the two engines fold aggregate sums in different orders
(HAMR combines per-worker partials; MR folds the shuffle stream), so
result equality is checked on canonically rounded values (6 decimals)
with a last-bit tolerance, and reported rows are the rounded HAMR side.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from repro.obs.blame import BUCKETS

ANALYTICS_SCHEMA = "repro.obs.analytics/v1"

#: exported table name → column tuple (declared schemas: a table like
#: ``stragglers`` may legitimately be empty for a well-balanced fleet)
TABLE_COLUMNS = {
    "runs": (
        "fingerprint", "workload", "engine", "fabric", "partitioner",
        "nodes", "rack_size", "commit", "data_size", "fidelity",
        "partial", "seeded", "makespan", "virtual_end", "events",
        "blame_total", "straggler_cv", "straggler_max_mean_ratio",
        "straggler_count",
    ),
    "blame": (
        "fingerprint", "workload", "engine", "fabric", "commit",
        "bucket", "seconds", "share",
    ),
    "traffic": (
        "fingerprint", "workload", "engine", "fabric", "partitioner",
        "total_bytes", "remote_bytes", "inter_rack_bytes",
        "shuffle_bytes", "local_bytes", "broadcast_bytes",
        "records", "payloads",
    ),
    "critpath": (
        "fingerprint", "workload", "engine", "bucket", "seconds",
    ),
    "stragglers": (
        "fingerprint", "workload", "engine", "node",
    ),
}


def _text(value: Optional[str]) -> str:
    """SQL-safe string cell: comparisons/sorts need no-None columns."""
    return value if value is not None else "-"


def corpus_tables(rows: Iterable[dict]) -> dict[str, list[dict]]:
    """The corpus index exploded into the relational tables above.

    Row order follows the (already canonical) index order, so the
    tables — and every deterministic query over them — are stable
    across re-exports.
    """
    tables: dict[str, list[dict]] = {name: [] for name in TABLE_COLUMNS}
    for row in rows:
        ident = {
            "fingerprint": row["fingerprint"],
            "workload": _text(row.get("workload")),
            "engine": _text(row.get("engine")),
        }
        fabric = _text(row.get("fabric"))
        partitioner = _text(row.get("partitioner"))
        commit = _text(row.get("commit"))
        tables["runs"].append(
            {
                **ident,
                "fabric": fabric,
                "partitioner": partitioner,
                "nodes": row.get("nodes") or 0,
                "rack_size": row.get("rack_size") or 0,
                "commit": commit,
                "data_size": _text(row.get("data_size")),
                "fidelity": _text(row.get("fidelity")),
                "partial": int(bool(row.get("partial"))),
                "seeded": int(bool(row.get("seeded_slowdown"))),
                "makespan": row.get("makespan", 0.0),
                "virtual_end": row.get("virtual_end", 0.0),
                "events": row.get("events", 0),
                "blame_total": row.get("blame_total", 0.0),
                "straggler_cv": row.get("straggler_cv", 0.0),
                "straggler_max_mean_ratio": row.get(
                    "straggler_max_mean_ratio", 0.0
                ),
                "straggler_count": len(row.get("stragglers") or []),
            }
        )
        blame = row.get("blame", {})
        blame_total = row.get("blame_total", 0.0)
        for bucket in BUCKETS:
            seconds = blame.get(bucket, 0.0)
            tables["blame"].append(
                {
                    **ident,
                    "fabric": fabric,
                    "commit": commit,
                    "bucket": bucket,
                    "seconds": seconds,
                    "share": round(seconds / blame_total, 6) if blame_total else 0.0,
                }
            )
        traffic = row.get("traffic", {})
        tables["traffic"].append(
            {
                **ident,
                "fabric": fabric,
                "partitioner": partitioner,
                "total_bytes": traffic.get("total_bytes", 0.0),
                "remote_bytes": traffic.get("remote_bytes", 0.0),
                "inter_rack_bytes": traffic.get("inter_rack_bytes", 0.0),
                "shuffle_bytes": traffic.get("shuffle_bytes", 0.0),
                "local_bytes": traffic.get("local_bytes", 0.0),
                "broadcast_bytes": traffic.get("broadcast_bytes", 0.0),
                "records": traffic.get("records", 0.0),
                "payloads": traffic.get("payloads", 0.0),
            }
        )
        for bucket, seconds in sorted(row.get("critpath", {}).items()):
            tables["critpath"].append(
                {**ident, "bucket": bucket, "seconds": seconds}
            )
        for node in row.get("stragglers") or []:
            tables["stragglers"].append({**ident, "node": int(node)})
    # every row must carry the full declared column set, in order
    for name, table in tables.items():
        columns = TABLE_COLUMNS[name]
        tables[name] = [{col: row[col] for col in columns} for row in table]
    return tables


#: (name, description, sql) — order is the report/render order
CANNED_QUERIES = (
    (
        "fabric_traffic",
        "per-fabric exchange volume: does rack-awareness cut inter-rack bytes?",
        "SELECT fabric, COUNT(*) AS runs, SUM(remote_bytes) AS remote_bytes, "
        "SUM(inter_rack_bytes) AS inter_rack_bytes "
        "FROM traffic GROUP BY fabric ORDER BY fabric",
    ),
    (
        "blame_share_by_commit",
        "blame composition per commit: which bucket grew across history?",
        "SELECT commit, bucket, SUM(seconds) AS seconds, AVG(share) AS avg_share "
        "FROM blame GROUP BY commit, bucket "
        "HAVING seconds > 0 ORDER BY commit, bucket",
    ),
    (
        "straggler_leaderboard",
        "worst per-node CPU skew by workload x engine",
        "SELECT workload, engine, MAX(straggler_cv) AS worst_cv, "
        "COUNT(*) AS runs FROM runs GROUP BY workload, engine "
        "ORDER BY worst_cv DESC, workload, engine",
    ),
    (
        "makespan_by_engine",
        "mean virtual makespan by workload x engine (the fleet's Table 2)",
        "SELECT workload, engine, AVG(makespan) AS mean_makespan, "
        "COUNT(*) AS runs FROM runs GROUP BY workload, engine "
        "ORDER BY workload, engine",
    ),
    (
        "critpath_profile",
        "fleet-wide critical-path composition, dominant buckets first",
        "SELECT bucket, SUM(seconds) AS seconds FROM critpath "
        "GROUP BY bucket HAVING seconds > 0 ORDER BY seconds DESC, bucket",
    ),
    (
        "slowest_runs",
        "the fleet's slowest complete runs (map-only projection query)",
        "SELECT workload, engine, fabric, makespan FROM runs "
        "WHERE partial = 0 ORDER BY makespan DESC, workload, engine, fabric "
        "LIMIT 10",
    ),
)


def canonical_rows(rows: list[dict]) -> list[dict]:
    """Floats rounded to 6 decimals — the cross-engine comparison domain."""
    out = []
    for row in rows:
        out.append(
            {
                key: round(value, 6) if isinstance(value, float) else value
                for key, value in row.items()
            }
        )
    return out


def rows_match(a: list[dict], b: list[dict]) -> bool:
    """Ordered row-set equality with last-bit float tolerance."""
    if len(a) != len(b):
        return False
    for row_a, row_b in zip(a, b):
        if set(row_a) != set(row_b):
            return False
        for key in row_a:
            va, vb = row_a[key], row_b[key]
            if isinstance(va, float) or isinstance(vb, float):
                if not math.isclose(va, vb, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif va != vb:
                return False
    return True


def run_analytics(
    corpus_rows: list[dict],
    *,
    num_workers: int = 3,
    queries: Optional[Iterable[str]] = None,
) -> dict:
    """Run the canned queries on both engines over fresh clusters.

    One :class:`AppEnv` per engine (so neither engine's jobs perturb the
    other's virtual clock), the same exported tables registered into
    each, every query executed twice and reference-checked. Returns the
    report dict (schema :data:`ANALYTICS_SCHEMA`) with per-query rows,
    paired makespans and the match verdict.
    """
    from repro.apps.base import AppEnv
    from repro.cluster import small_cluster_spec
    from repro.sql import Catalog, SQLSession
    from repro.sql.mr import MRSQLSession

    tables = corpus_tables(corpus_rows)
    wanted = set(queries) if queries is not None else None
    selected = [q for q in CANNED_QUERIES if wanted is None or q[0] in wanted]
    if wanted is not None:
        unknown = wanted - {name for name, _desc, _sql in CANNED_QUERIES}
        if unknown:
            raise ValueError(f"unknown analytics queries: {sorted(unknown)}")

    hamr_env = AppEnv(small_cluster_spec(num_workers=num_workers))
    catalog = Catalog()
    for name, table in tables.items():
        catalog.register(name, table, columns=TABLE_COLUMNS[name])
    hamr = SQLSession(hamr_env.hamr, catalog)

    hadoop_env = AppEnv(small_cluster_spec(num_workers=num_workers))
    hadoop = MRSQLSession(hadoop_env)
    for name, table in tables.items():
        hadoop.register(name, table, columns=TABLE_COLUMNS[name])

    results = []
    for name, description, sql in selected:
        res_a = hamr.run(sql)
        res_b = hadoop.run(sql)
        rows_a = canonical_rows(res_a.rows)
        rows_b = canonical_rows(res_b.rows)
        results.append(
            {
                "name": name,
                "description": description,
                "sql": sql,
                "names": res_a.names,
                "rows": rows_a,
                "row_count": len(rows_a),
                "hamr_seconds": round(res_a.makespan, 6),
                "hadoop_seconds": round(res_b.makespan, 6),
                "match": rows_match(rows_a, rows_b),
            }
        )
    return {
        "schema": ANALYTICS_SCHEMA,
        "corpus_runs": len(list(corpus_rows)),
        "tables": {name: len(table) for name, table in sorted(tables.items())},
        "num_workers": num_workers,
        "queries": results,
        "all_match": all(r["match"] for r in results),
    }


def render_analytics(report: dict, *, max_rows: int = 12) -> str:
    """Deterministic ASCII report: per-query result table + engine check."""
    tables = " ".join(
        f"{name}={count}" for name, count in sorted(report["tables"].items())
    )
    lines = [
        f"== obs-analytics over {report['corpus_runs']} corpus run(s) "
        f"({report['num_workers']} workers/engine) ==",
        f"tables      {tables}",
    ]
    for query in report["queries"]:
        verdict = "ok" if query["match"] else "ENGINE MISMATCH"
        lines.append("")
        lines.append(f"-- {query['name']}: {query['description']}")
        lines.append(f"   {query['sql']}")
        lines.append(
            f"   hamr {query['hamr_seconds']:.3f}s  "
            f"hadoop {query['hadoop_seconds']:.3f}s  "
            f"rows {query['row_count']}  engines {verdict}"
        )
        header = "  ".join(f"{name:>18s}" for name in query["names"])
        lines.append(f"   {header}")
        for row in query["rows"][:max_rows]:
            cells = "  ".join(f"{str(row[name]):>18s}" for name in query["names"])
            lines.append(f"   {cells}")
        if query["row_count"] > max_rows:
            lines.append(f"   ... {query['row_count'] - max_rows} more row(s)")
    lines.append("")
    status = "identical" if report["all_match"] else "DIVERGED"
    lines.append(
        f"{len(report['queries'])} quer(ies) run on both engines — results {status}"
    )
    return "\n".join(lines)
