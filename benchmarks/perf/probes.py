"""The traced run's third source: isolated probes of single layers.

Direct calls into public functions on the workloads' real record shapes,
all observers off. Each probe repeats its call until ``MIN_SECONDS`` have
passed, five times, and reports the median; calls that take seconds are
repeated as often as ``SLOW_BUDGET`` allows instead.
"""

from __future__ import annotations

import gc
import itertools
import os
import statistics
import subprocess
import sys
import time

from repro.apps.base import AppEnv
from repro.apps.naive_bayes import index_instances
from repro.cluster import small_cluster_spec
from repro.common.partitioner import HashPartitioner
from repro.common.sizeof import pair_size
from repro.dataplane.batch import chunk_records
from repro.dataplane.exchange import partition_batch
from repro.evaluation.runner import run_workload
from repro.evaluation.workloads import workload_by_name
from repro.obs.analytics import CANNED_QUERIES, TABLE_COLUMNS
from repro.obs.doctor import diagnose
from repro.obs.journal import (
    decode_record,
    dilate_bucket_charges,
    encode_record,
    load_journal,
)
from repro.obs.replay import replay_records
from repro.obs.whatif import WhatIfModel
from repro.sim import QueueClosed, Resource, SimQueue, Simulator
from repro.sql import Catalog, SQLSession

from workloads import journaled_run

REPEATS = 5
MIN_SECONDS = 0.1
SLOW_BUDGET = 1.5
SAMPLE = 20_000


def per_second(fn, units):
    """Median over REPEATS of ``units`` per second, each repeat >= MIN_SECONDS."""
    rates = []
    for _ in range(REPEATS):
        calls, t0 = 0, time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= MIN_SECONDS:
                break
        rates.append(units * calls / elapsed)
    return statistics.median(rates)


def seconds_per_call(fn):
    """Median seconds of one call; as many repeats (<= REPEATS) as SLOW_BUDGET buys."""
    samples, spent = [], 0.0
    while len(samples) < REPEATS and (not samples or spent + samples[-1] <= SLOW_BUDGET):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
        spent += samples[-1]
    return statistics.median(samples)


class _Collect:
    """Stand-in task context: keeps what a user function emits."""

    def __init__(self):
        self.pairs = []

    def emit(self, key, value):
        self.pairs.append((key, value))


def _common_and_dataplane(out, wordcount, naive_bayes):
    pairs = [
        (word, 1) for _off, line in wordcount.records for word in line.split()
    ][:SAMPLE]
    flat_mb = sum(pair_size(k, v) for k, v in pairs) / 1e6
    out["common.sizeof.flat_mb_per_s"] = per_second(
        lambda: [pair_size(k, v) for k, v in pairs], flat_mb
    )
    # the per-label count vectors _fold_bin re-sizes after every bin
    ctx = _Collect()
    for offset, line in naive_bayes.records:
        index_instances(ctx, offset, line)
    accs: dict = {}
    for label, vector in ctx.pairs:
        acc = accs.setdefault(label, {})
        for feature, weight in vector.items():
            acc[feature] = acc.get(feature, 0) + weight
    vectors = list(accs.items())
    nested_mb = sum(pair_size(k, v) for k, v in vectors) / 1e6
    out["common.sizeof.nested_mb_per_s"] = per_second(
        lambda: [pair_size(k, v) for k, v in vectors], nested_mb
    )
    workers = wordcount.spec().num_nodes - 1
    partition = HashPartitioner(workers).partition
    out["common.partitioner.keys_per_s"] = per_second(
        lambda: [partition(k) for k, _v in pairs], len(pairs)
    )
    partitioner = HashPartitioner(workers)
    out["dataplane.partition_batch.records_per_s"] = per_second(
        lambda: partition_batch(pairs, partitioner), len(pairs)
    )
    lines = wordcount.records[:SAMPLE]
    out["dataplane.chunk_records.records_per_s"] = per_second(
        lambda: chunk_records(lines, 16 * 1024), len(lines)
    )


def _sim(out):
    """The three kernel loops of ``benchmarks/bench_simulator.py``."""

    def timeouts():
        sim = Simulator()

        def ticker(n):
            for _ in range(n):
                yield 0.001

        for _ in range(10):
            sim.spawn(ticker(2_000))
        sim.run()

    def resource():
        sim = Simulator()
        pool = Resource(sim, capacity=8)

        def worker():
            for _ in range(500):
                yield pool.acquire()
                yield 0.01
                pool.release()

        for _ in range(32):
            sim.spawn(worker())
        sim.run()

    def queue():
        sim = Simulator()
        q = SimQueue(sim, capacity=64)

        def producer():
            for i in range(5_000):
                yield q.put(i)
            q.close()

        def consumer():
            try:
                while True:
                    yield q.get()
            except QueueClosed:
                return

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()

    out["sim.timeout.events_per_s"] = per_second(timeouts, 10 * 2_000)
    out["sim.resource.ops_per_s"] = per_second(resource, 32 * 500)
    out["sim.queue.ops_per_s"] = per_second(queue, 5_000)


def _cluster_and_storage(out, wordcount):
    out["cluster.fresh_env_ms"] = 1e3 / per_second(wordcount.fresh_env, 1)
    records = wordcount.records[:SAMPLE]
    for metric, ingest in (
        ("storage.dfs_ingest.records_per_s", "ingest_dfs"),
        ("storage.local_ingest.records_per_s", "ingest_local"),
    ):
        env, serial = wordcount.fresh_env(), itertools.count()
        out[metric] = per_second(
            lambda: getattr(env, ingest)(f"probe-{next(serial)}", records), len(records)
        )


def _journal_fixture(naive_bayes, workdir):
    row = journaled_run(naive_bayes, "small")
    path = os.path.join(workdir, "probe.journal.jsonl")
    row.hamr_journal.save(path)
    return path


def _obs_read_side(out, journal_path):
    """The pieces of a ``diagnose`` pass, one at a time, on J_mid."""
    out["obs.journal.load_s"] = seconds_per_call(lambda: load_journal(journal_path))
    records = load_journal(journal_path)
    sample = records[:SAMPLE]
    lines = [encode_record(rec) for rec in sample]
    out["obs.journal.encode_events_per_s"] = per_second(
        lambda: [encode_record(rec) for rec in sample], len(sample)
    )
    out["obs.journal.decode_events_per_s"] = per_second(
        lambda: [decode_record(line) for line in lines], len(lines)
    )
    out["obs.replay.rebuild_s"] = seconds_per_call(lambda: replay_records(records))
    out["obs.whatif.model_s"] = seconds_per_call(lambda: WhatIfModel(records))
    slow = []
    out["obs.whatif.dilate_s"] = seconds_per_call(
        lambda: slow.append(dilate_bucket_charges(records, {"network": 1.5}))
    )
    run_a, run_b = replay_records(records), replay_records(slow[-1])
    out["obs.doctor.diagnose_s"] = seconds_per_call(lambda: diagnose(run_a, run_b, "a", "b"))


def _obs_tax(out, seed):
    """WordCount/HAMR with one observer on, against the same pass with none.

    Tiny fidelity, three interleaved rounds, median of the per-round
    ratios: the full-size ratio is ``wc_hamr_journal`` wall_s / ``wc_hamr``
    wall_s, this probe is the cheap tracker of the same code.
    """
    workload = workload_by_name("wordcount", "tiny", seed=seed)
    variants = {
        "obs.tax.tracer_ratio": {"obs": True},
        "obs.tax.journal_ratio": {"journal": True},
        "obs.tax.hostprof_ratio": {"profile": True},
    }

    def timed(**kwargs):
        gc.collect()
        t0 = time.perf_counter()
        run_workload(workload, engines="hamr", **kwargs)
        return time.perf_counter() - t0

    timed()
    ratios = {metric: [] for metric in variants}
    for _round in range(3):
        plain = timed()
        for metric, kwargs in variants.items():
            ratios[metric].append(timed(**kwargs) / plain)
    for metric, values in ratios.items():
        out[metric] = statistics.median(values)


def _sql(out):
    catalog = Catalog()
    for name, columns in TABLE_COLUMNS.items():
        catalog.register(name, [], columns=columns)
    session = SQLSession(AppEnv(small_cluster_spec(num_workers=3)).hamr, catalog)
    queries = [sql for _name, _description, sql in CANNED_QUERIES]
    out["sql.parse_compile.us_per_query"] = 1e6 / per_second(
        lambda: [session.explain(sql) for sql in queries], len(queries)
    )


def _cli_import(out, src_dir):
    env = dict(os.environ, PYTHONPATH=src_dir)

    def fresh_interpreter():
        subprocess.run(
            [sys.executable, "-c", "import repro.evaluation.__main__"],
            env=env, check=True, timeout=60,
        )

    fresh_interpreter()
    out["evaluation.cli_import_ms"] = 1e3 * seconds_per_call(fresh_interpreter)


def run_probes(seed, workdir, src_dir, journal_path=None):
    """Every probe metric. ``journal_path`` is a small-fidelity
    naive_bayes:hamr journal if the workload already wrote one."""
    out: dict = {}
    wordcount = workload_by_name("wordcount", "small", seed=seed)
    naive_bayes = workload_by_name("naive_bayes", "small", seed=seed)
    _common_and_dataplane(out, wordcount, naive_bayes)
    _sim(out)
    _cluster_and_storage(out, wordcount)
    _obs_read_side(out, journal_path or _journal_fixture(naive_bayes, workdir))
    _obs_tax(out, seed)
    _sql(out)
    _cli_import(out, src_dir)
    return out
