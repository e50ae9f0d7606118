"""Names, units and bounds of everything the perf benchmark reports.

``BENCHMARK.json`` at the repo root is the driver's copy of these tables
(``test_harness.py`` asserts they agree); the extra columns here — which
end-to-end metric a layer metric should move, on which workload, and
where it must *not* move — are the map ISSUE 11 asks for and the README
prints. The driver's schema has no room for them.
"""

from __future__ import annotations

#: packages under ``src/repro/`` = layers; ``data`` (generators and the
#: user functions' parsers) is charged to ``apps``
LAYERS = (
    "sim", "cluster", "common", "dataplane", "core", "mapreduce",
    "storage", "obs", "sql", "apps", "evaluation",
)

#: name -> one-line reason the workload exists (which layer it isolates)
WORKLOADS = {
    "wc_hamr": "WordCount on HAMR: per-record emit/Bin.add/pair_size/fnv1a chain under the sim kernel (core+sim+common)",
    "wc_hadoop": "same records on Hadoop: common sizing/hashing plus dataplane partition_batch, almost no sim (common+dataplane)",
    "nb_hamr": "NaiveBayes on HAMR: one layer does the work, logical_sizeof re-sizing vector accumulators (common.sizeof)",
    "kmeans_hadoop": "K-Means on Hadoop: bypasses sizing/hashing, stresses the sim kernel and user functions (sim+apps)",
    "wc_hamr_journal": "wc_hamr with the journal on and saved: the obs write side, tracer+telemetry+encode (observer tax)",
    "diagnose": "replay, two whatifs and doctor on recorded journals: the obs read side, decode+rebuild+dilate",
}

#: (name, unit, better, bound) — what a user of the tool waits for or
#: pays. ``bound`` is the share of the parent's median a later PR may
#: lose. ISSUE 11 asked for 10 % on the three timings; ten runs of one
#: commit on the 2-core sandbox spread 5-9 % (q3 - q1 over the median: the
#: host drifts over tens of seconds, inside one process too), and a bound
#: has to be three times the spread to mean anything. ``failed_share`` and
#: ``virtual_drift`` (the issue's sixth and seventh metric) are 0 by
#: construction, which the driver's schema does not allow for a bounded
#: metric; they are printed by the suite and reach the driver as
#: ``failed``/``correct`` instead.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("records_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)
ZERO_GATES = (("failed_share", "ratio"), ("virtual_drift", "count"))

_TIME = "wall_s cpu_s records_per_s"


def _rows(names, unit, better, moves, on, not_on):
    return [(n, unit, better, moves, on, not_on) for n in names.split()]


#: (name, unit, better, end-to-end metrics it should move, on which
#: workloads, workloads where it must not move) — written down before
#: measuring. With one thread and nothing contending, a faster layer
#: saves at most its self share of the pass.
_ATTRIBUTED = (
    # attribution pass: cProfile self time and exact call counts per layer
    _rows("common.self_share", "ratio", "lower", _TIME, "nb_hamr wc_hadoop", "kmeans_hadoop diagnose")
    + _rows("core.self_share", "ratio", "lower", "wall_s", "wc_hamr", "kmeans_hadoop")
    + _rows("dataplane.self_share mapreduce.self_share", "ratio", "lower", "wall_s", "wc_hadoop", "wc_hamr nb_hamr")
    + _rows("sim.self_share cluster.self_share", "ratio", "lower", "wall_s", "kmeans_hadoop wc_hamr", "wc_hadoop")
    + _rows("obs.self_share", "ratio", "lower", "wall_s peak_rss_mb", "wc_hamr_journal diagnose", "wc_hamr")
    + _rows("storage.self_share sql.self_share apps.self_share evaluation.self_share", "ratio", "lower", "setup_s", "any", "every wall_s")
    + _rows(" ".join(f"{layer}.calls" for layer in LAYERS), "count", "lower", "wall_s", "see <layer>.self_share", "")
    + _rows("trace.overhead_ratio", "ratio", "lower", "", "", "")
    # exact counts from the same pass
    + _rows("common.sizeof.calls", "count", "lower", _TIME, "nb_hamr", "kmeans_hadoop diagnose")
    + _rows("common.partitioner.hash_calls core.emit.calls", "count", "lower", "wall_s", "wc_hamr wc_hadoop", "kmeans_hadoop")
    + _rows("mapreduce.emit.calls dataplane.partition_batch.calls", "count", "lower", "wall_s", "wc_hadoop", "wc_hamr nb_hamr")
    + _rows("sim.events", "count", "lower", "wall_s", "kmeans_hadoop wc_hamr", "wc_hadoop")
    + _rows("sim.host_us_per_event", "us", "lower", "wall_s", "kmeans_hadoop wc_hamr", "wc_hadoop")
    + _rows("obs.journal.events", "count", "lower", "wall_s peak_rss_mb", "wc_hamr_journal diagnose", "wc_hamr")
    + _rows("obs.journal.mb", "MB", "lower", "wall_s peak_rss_mb", "wc_hamr_journal diagnose", "wc_hamr")
    + _rows("obs.journal.bytes_per_event", "B", "lower", "wall_s peak_rss_mb", "wc_hamr_journal diagnose", "wc_hamr")
    # the program's own profiler (run_workload(profile=True))
    + _rows("hostprof.engine.share hostprof.dataplane.share hostprof.sim-kernel.share hostprof.storage.share",
            "ratio", "lower", "wall_s", "the four engine workloads", "diagnose")
)
#: isolated probes on the workloads' real record shapes (skipped by --quick)
_PROBED = (
    _rows("common.sizeof.flat_mb_per_s", "MB/s", "higher", _TIME, "wc_hamr wc_hadoop", "kmeans_hadoop diagnose")
    + _rows("common.sizeof.nested_mb_per_s", "MB/s", "higher", _TIME, "nb_hamr", "kmeans_hadoop diagnose")
    + _rows("common.partitioner.keys_per_s", "1/s", "higher", "wall_s", "wc_hamr wc_hadoop", "kmeans_hadoop")
    + _rows("dataplane.partition_batch.records_per_s dataplane.chunk_records.records_per_s", "1/s", "higher", "wall_s", "wc_hadoop", "wc_hamr nb_hamr")
    + _rows("sim.timeout.events_per_s sim.resource.ops_per_s sim.queue.ops_per_s", "1/s", "higher", "wall_s", "kmeans_hadoop wc_hamr", "wc_hadoop")
    + _rows("cluster.fresh_env_ms", "ms", "lower", "wall_s", "kmeans_hadoop wc_hamr", "wc_hadoop")
    + _rows("storage.dfs_ingest.records_per_s storage.local_ingest.records_per_s", "1/s", "higher", "setup_s", "any", "every wall_s")
    + _rows("obs.journal.encode_events_per_s", "1/s", "higher", "wall_s peak_rss_mb", "wc_hamr_journal", "wc_hamr")
    + _rows("obs.tax.tracer_ratio obs.tax.journal_ratio obs.tax.hostprof_ratio", "ratio", "lower", "wall_s peak_rss_mb", "wc_hamr_journal", "wc_hamr")
    + _rows("obs.journal.decode_events_per_s", "1/s", "higher", "wall_s records_per_s", "diagnose", "the four engine workloads")
    + _rows("obs.journal.load_s obs.replay.rebuild_s obs.whatif.model_s obs.whatif.dilate_s obs.doctor.diagnose_s",
            "s", "lower", "wall_s records_per_s", "diagnose", "the four engine workloads")
    + _rows("sql.parse_compile.us_per_query", "us", "lower", "setup_s", "any", "every wall_s")
    + _rows("evaluation.cli_import_ms", "ms", "lower", "setup_s", "any", "every wall_s")
)

PER_LAYER = _ATTRIBUTED + _PROBED
PROBE_NAMES = tuple(row[0] for row in _PROBED)

#: layer metrics that are counts made by the program: they repeat exactly
#: and two sets of runs must agree on them to the digit
EXACT_COUNTS = tuple(
    name for name, unit, *_ in PER_LAYER if unit == "count"
) + ("obs.journal.mb",)
