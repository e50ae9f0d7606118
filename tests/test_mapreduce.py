"""Tests for the Hadoop-style baseline engine."""

import gc
import inspect
import tracemalloc
import weakref
from collections import namedtuple

import pytest

from repro.apps import wordcount
from repro.common.errors import JobError
from repro.cluster import Cluster, small_cluster_spec
from repro.core.combiner import sum_combiner
from repro.evaluation.workloads import workload_by_name
from repro.mapreduce import HadoopEngine, Mapper, MRContext, MRJob, Reducer, run_chain
from repro.mapreduce.chain import chain_makespan
from repro.storage import DFS


LINES = [
    (0, "the quick brown fox"),
    (1, "the lazy dog"),
    (2, "the quick dog"),
]
EXPECTED = {"the": 3, "quick": 2, "dog": 2, "brown": 1, "fox": 1, "lazy": 1}
Pair = namedtuple("Pair", "key value")


def make_engine(num_workers=4, **kw):
    cluster = Cluster(small_cluster_spec(num_workers=num_workers, **kw))
    dfs = DFS(cluster)
    return HadoopEngine(cluster, dfs)


def tokenize(ctx, _offset, line):
    for word in line.split():
        ctx.emit(word, 1)


def wordcount_job(input_file="in.txt", output_file="out", combiner=None):
    return MRJob(
        "wordcount",
        input_file,
        output_file,
        mapper=Mapper(fn=tokenize),
        reducer=Reducer(fn=lambda ctx, k, vs: ctx.emit(k, sum(vs))),
        combiner=combiner,
    )


class TestWordCount:
    def test_counts_correct(self):
        engine = make_engine()
        engine.dfs.ingest("in.txt", LINES)
        result = engine.run(wordcount_job())
        assert dict(result.outputs) == EXPECTED
        assert result.metrics == {"map_tasks": 1, "reduce_tasks": 4, "shuffled_bytes": 157.0}
        assert result.makespan == 11.016071783123722

    def test_output_written_to_dfs(self):
        engine = make_engine()
        engine.dfs.ingest("in.txt", LINES)
        engine.run(wordcount_job())
        assert engine.dfs.exists("out")
        assert dict(engine.dfs.get_file("out").records()) == EXPECTED

    def test_combiner_preserves_result(self):
        engine = make_engine()
        engine.dfs.ingest("in.txt", LINES)
        result = engine.run(wordcount_job(combiner=sum_combiner()))
        assert dict(result.outputs) == EXPECTED
        assert result.metrics == {"map_tasks": 1, "reduce_tasks": 4, "shuffled_bytes": 95.0}
        assert result.makespan == 11.016066399257506

    def test_combiner_reduces_shuffle(self):
        lines = [(i, "alpha beta " * 20) for i in range(200)]
        plain = make_engine()
        plain.dfs.ingest("in.txt", lines)
        r_plain = plain.run(wordcount_job())
        combined = make_engine()
        combined.dfs.ingest("in.txt", lines)
        r_comb = combined.run(wordcount_job(combiner=sum_combiner()))
        assert r_comb.metrics["shuffled_bytes"] < r_plain.metrics["shuffled_bytes"]

    def test_job_startup_floor(self):
        engine = make_engine()
        engine.dfs.ingest("in.txt", LINES)
        result = engine.run(wordcount_job())
        cost = engine.cluster.cost
        assert result.makespan >= cost.hadoop_job_startup + cost.hadoop_task_startup

    def test_determinism(self):
        def run_once():
            engine = make_engine()
            engine.dfs.ingest("in.txt", LINES)
            result = engine.run(wordcount_job())
            return result.makespan, sorted(result.outputs)

        assert run_once() == run_once()

    def test_counters(self):
        engine = make_engine()
        engine.dfs.ingest("in.txt", LINES)
        job = MRJob(
            "count-lines",
            "in.txt",
            "out",
            mapper=Mapper(fn=lambda ctx, k, v: ctx.counter("lines")),
            reducer=Reducer(fn=lambda ctx, k, vs: None),
        )
        result = engine.run(job)
        assert result.counters["lines"] == 3


class TestMapOnly:
    def test_map_only_job(self):
        engine = make_engine()
        engine.dfs.ingest("in.txt", [(i, i * i) for i in range(10)])
        job = MRJob(
            "square",
            "in.txt",
            "out",
            mapper=Mapper(fn=lambda ctx, k, v: ctx.emit(k, v + 1)),
        )
        result = engine.run(job)
        # partition order, each partition sorted by key
        expected = [(k, k * k + 1) for k in (0, 4, 8, 1, 5, 9, 2, 6, 3, 7)]
        assert result.outputs == expected
        assert list(engine.dfs.get_file("out").records()) == expected
        assert result.metrics == {"map_tasks": 1, "reduce_tasks": 0}
        assert result.makespan == 11.012019314697266


class TestChains:
    def test_two_job_chain(self):
        engine = make_engine()
        engine.dfs.ingest("in.txt", LINES)
        job1 = wordcount_job("in.txt", "counts")
        # second job: bucket counts by frequency
        job2 = MRJob(
            "bucket",
            "counts",
            "buckets",
            mapper=Mapper(fn=lambda ctx, word, count: ctx.emit(count, word)),
            reducer=Reducer(fn=lambda ctx, count, words: ctx.emit(count, sorted(words))),
        )
        results = run_chain(engine, [job1, job2])
        assert len(results) == 2
        buckets = dict(results[1].outputs)
        assert buckets[3] == ["the"]
        assert set(buckets[2]) == {"dog", "quick"}
        # chain pays two job startups
        assert chain_makespan(results) >= 2 * engine.cluster.cost.hadoop_job_startup

    def test_chain_missing_input_rejected(self):
        engine = make_engine()
        engine.dfs.ingest("in.txt", LINES)
        bad = wordcount_job("missing.txt", "out")
        with pytest.raises(JobError):
            run_chain(engine, [bad])

    def test_empty_chain_rejected(self):
        with pytest.raises(JobError):
            run_chain(make_engine(), [])


class TestCostStructure:
    def test_more_blocks_more_map_tasks(self):
        # High scale → more modeled blocks → more map tasks.
        engine = make_engine(num_workers=4, scale=2e6)
        lines = [(i, "x" * 100) for i in range(2000)]  # ~200KB real → ~400GB modeled
        engine.dfs.ingest("in.txt", lines)
        result = engine.run(wordcount_job())
        assert result.metrics["map_tasks"] > 100

    def test_reduce_barrier_orders_phases(self):
        # Map and reduce JVM startups overlap (reducers launch at job
        # start), so the hard floor is startup + one task startup, and the
        # reduce path must add fetch + merge + DFS write on top of it.
        engine = make_engine()
        engine.dfs.ingest("in.txt", LINES)
        result = engine.run(wordcount_job())
        cost = engine.cluster.cost
        assert result.makespan > cost.hadoop_job_startup + cost.hadoop_task_startup

    def test_reducer_side_spill_under_pressure(self):
        # Fetched shuffle segments overflow the per-reduce-task container
        # heap (1GB modeled) when the scale multiplier makes them huge.
        engine = make_engine(num_workers=2, scale=2e7)
        lines = [(i, f"w{i % 40} " * 30) for i in range(300)]
        engine.dfs.ingest("in.txt", lines)
        result = engine.run(wordcount_job())
        total = sum(v for _, v in result.outputs)
        assert total == 300 * 30
        assert result.metrics.get("reduce_spills", 0) > 0


def sum_reducer():
    return Reducer(fn=lambda ctx, k, vs: ctx.emit(k, sum(vs)))


class TestSortAndCombine:
    """The map side's synchronous half (map loop, partition, sort,
    combine) at its edges. Makespans and metrics are pinned exactly: the
    virtual clock is charged from its byte and pair counts."""

    @pytest.mark.parametrize("combiner", [None, sum_combiner], ids=["plain", "combined"])
    def test_attempt_that_emits_nothing(self, combiner):
        engine = make_engine()
        engine.dfs.ingest("in.txt", LINES)
        job = MRJob(
            "silent", "in.txt", "out",
            mapper=Mapper(fn=lambda ctx, k, v: None),
            reducer=sum_reducer(),
            combiner=combiner and combiner(),
        )
        result = engine.run(job)
        assert result.outputs == []
        assert result.metrics == {"map_tasks": 1, "reduce_tasks": 4, "shuffled_bytes": 0}
        assert result.makespan == 11.0120020486263

    @pytest.mark.parametrize(
        "combiner, makespan, metrics",
        [
            (None, 722.6361407663985, {"reduce_spills": 12, "shuffled_bytes": 6600.0}),
            (sum_combiner, 68.5389304221537, {"shuffled_bytes": 0.0008579999999999993}),
        ],
        ids=["plain", "combined"],
    )
    def test_some_attempts_emit_nothing(self, combiner, makespan, metrics):
        # ~1.6 lines per modeled block: every block inside a run of "x"
        # lines is a map task with no output at all
        engine = make_engine(scale=2e6)
        lines = [(i, "x" * 100 if (i // 50) % 2 else "alpha beta") for i in range(400)]
        engine.dfs.ingest("in.txt", lines)

        def words_only(ctx, offset, line):
            if not line.startswith("x"):
                tokenize(ctx, offset, line)

        job = MRJob(
            "sparse", "in.txt", "out",
            mapper=Mapper(fn=words_only),
            reducer=sum_reducer(),
            combiner=combiner and combiner(),
        )
        result = engine.run(job)
        assert dict(result.outputs) == {"alpha": 200, "beta": 200}
        assert result.metrics == {
            "map_spill_merges": 52, "map_tasks": 248, "reduce_tasks": 4, **metrics
        }
        assert result.makespan == makespan


def tokenize_fresh(ctx, _offset, line):
    """WordCount's map function with a new ``(word, 1)`` tuple per word."""
    ctx.emit_many([(word, 1) for word in line.split()])


class TestMapSideMemory:
    def test_raw_map_output_dies_at_the_spill(self):
        """Tiny WordCount's traced host peak stays below its whole raw map
        output plus a quarter.

        The job maps with a new tuple per word, so its raw output is as
        large as it can be; the bound's base is all the maps' raw pairs
        held at once, built here by tokenizing the same input. A map
        attempt that kept its raw pairs alive until it returned would hold
        nearly all of them together with the combined output the reducers
        fetch (about 1.8x the bound's base). One that drops them when the
        sort and combine return holds the combined output and at most one
        task's raw pairs (about 1.0x).
        """
        workload = workload_by_name("wordcount", "tiny")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ctx = MRContext()
            for offset, line in workload.records:
                tokenize_fresh(ctx, offset, line)
            raw = tracemalloc.get_traced_memory()[0] - before
            del ctx
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            env = workload.fresh_env()
            env.ingest_dfs(wordcount.INPUT, workload.records)
            result = env.hadoop.run(MRJob(
                "wordcount", wordcount.INPUT, "wordcount-out",
                mapper=Mapper(fn=tokenize_fresh, compute_factor=wordcount.TOKENIZE_FACTOR),
                reducer=sum_reducer(),
                combiner=sum_combiner(),
                aggregated_output=True,
            ))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert dict(result.outputs) == wordcount.reference(workload.records)
        assert peak < raw * 1.25, f"traced peak {peak} B vs raw map output {raw} B"

    def test_each_job_has_its_own_pairs_and_drops_them(self):
        workload = workload_by_name("wordcount", "tiny")
        env = workload.fresh_env()
        env.ingest_dfs(wordcount.INPUT, workload.records)
        first, second = (
            wordcount.build_hadoop_job(workload.params) for _ in range(2)
        )
        pairs = [
            inspect.getclosurevars(job.mapper._fn).nonlocals["pairs"] for job in (first, second)
        ]
        result = env.hadoop.run(first)
        assert dict(result.outputs) == wordcount.reference(workload.records)
        assert sorted(pairs[0]) == sorted(dict(result.outputs))
        assert pairs[1] == {}
        dropped = weakref.ref(pairs[0])
        del first, result, pairs
        gc.collect()
        assert dropped() is None


class TestMRContextKeepsPairs:
    """``MRContext.emit_many`` stores an exact 2-tuple as itself and
    re-packs anything else; ``emit`` builds its own tuple."""

    def test_an_exact_tuple_is_stored_as_itself(self):
        ctx = MRContext()
        pairs = [("a", 1), ("b", [2])]
        ctx.emit_many(pairs)
        assert all(got is pair for got, pair in zip(ctx.take(), pairs, strict=True))

    def test_any_other_pair_is_stored_as_a_new_tuple(self):
        ctx = MRContext()
        ctx.emit_many([["a", 1], Pair("b", 2), "cd"])
        stored = ctx.take()
        assert stored == [("a", 1), ("b", 2), ("c", "d")]
        assert [type(p) for p in stored] == [tuple] * 3

    @pytest.mark.parametrize("item", [(1, 2, 3), 5], ids=["3-tuple", "scalar"])
    def test_a_non_pair_raises_the_unpacking_error(self, item):
        with pytest.raises((ValueError, TypeError)) as unpacking:
            key, value = item
        with pytest.raises(unpacking.type) as emitting:
            MRContext().emit_many([("ok", 1), item])
        assert str(emitting.value) == str(unpacking.value)

    def test_a_generator_is_iterated_once(self):
        pulled = []

        def stream():
            for i in range(5):
                pulled.append(i)
                yield f"k{i}", i

        ctx = MRContext()
        ctx.emit_many(stream())
        assert ctx.take() == [(f"k{i}", i) for i in range(5)]
        assert pulled == list(range(5))
