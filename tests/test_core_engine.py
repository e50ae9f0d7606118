"""End-to-end tests of the HAMR flowlet engine on small jobs."""

import gc
import inspect
import tracemalloc
import weakref
from collections import namedtuple
from types import SimpleNamespace

import pytest

from repro.apps import wordcount
from repro.cluster import Cluster, small_cluster_spec
from repro.common.partitioner import HashPartitioner
from repro.core import (
    CollectionSource,
    DFSSource,
    Edge,
    EdgeMode,
    FlowletGraph,
    HamrEngine,
    KVStoreSource,
    Loader,
    Map,
    PartialReduce,
    PerNodeSource,
    Reduce,
    StreamSource,
    TimedBatch,
    sum_combiner,
)
from repro.core.bins import BinPacker
from repro.core.context import TaskContext
from repro.evaluation.runner import run_workload
from repro.evaluation.workloads import workload_by_name
from repro.storage import DFS


def make_engine(num_workers=4, **kw):
    cluster = Cluster(small_cluster_spec(num_workers=num_workers, **kw))
    return HamrEngine(cluster)


def wordcount_graph(source, use_partial=True, combiner=None):
    g = FlowletGraph("wordcount")
    loader = g.add(Loader("lines", source))
    tokenize = g.add(
        Map(
            "tokenize",
            fn=lambda ctx, _off, line: [ctx.emit(w, 1) for w in line.split()] and None,
        )
    )
    if use_partial:
        count = g.add(
            PartialReduce("count", initial=lambda k: 0, combine=lambda a, v: a + v)
        )
    else:
        count = g.add(Reduce("count", fn=lambda ctx, k, vs: ctx.emit(k, sum(vs))))
    g.connect(loader, tokenize)
    g.connect(tokenize, count, combiner=combiner)
    return g


LINES = [
    (0, "the quick brown fox"),
    (1, "the lazy dog"),
    (2, "the quick dog"),
]
EXPECTED = {"the": 3, "quick": 2, "dog": 2, "brown": 1, "fox": 1, "lazy": 1}


class TestWordCount:
    def test_partial_reduce_counts(self):
        engine = make_engine()
        result = engine.run(wordcount_graph(CollectionSource(LINES)))
        assert dict(result.output("count")) == EXPECTED
        assert result.makespan > 0

    def test_full_reduce_counts(self):
        engine = make_engine()
        result = engine.run(wordcount_graph(CollectionSource(LINES), use_partial=False))
        assert dict(result.output("count")) == EXPECTED

    def test_combiner_preserves_result(self):
        engine = make_engine()
        result = engine.run(
            wordcount_graph(CollectionSource(LINES), combiner=sum_combiner())
        )
        assert dict(result.output("count")) == EXPECTED

    def test_from_dfs(self):
        engine = make_engine()
        dfs = DFS(engine.cluster)
        dfs.ingest("input.txt", LINES)
        result = engine.run(wordcount_graph(DFSSource(dfs, "input.txt")))
        assert dict(result.output("count")) == EXPECTED

    def test_larger_input_spread_over_nodes(self):
        engine = make_engine(num_workers=5)
        lines = [(i, f"word{i % 23} word{i % 7} filler") for i in range(500)]
        result = engine.run(wordcount_graph(CollectionSource(lines, splits_per_worker=3)))
        counts = dict(result.output("count"))
        assert counts["filler"] == 500
        assert sum(counts.values()) == 1500

    def test_determinism(self):
        def run_once():
            engine = make_engine()
            result = engine.run(wordcount_graph(CollectionSource(LINES)))
            return result.makespan, sorted(result.output("count"))

        assert run_once() == run_once()


class TestDagFeatures:
    def test_fan_out_data_reuse(self):
        # §3.2: "HAMR only needs to load data once and connect the loader
        # to two flowlets with different functions".
        engine = make_engine()
        g = FlowletGraph("fanout")
        loader = g.add(Loader("load", CollectionSource([(i, i) for i in range(20)])))
        evens = g.add(
            Map("evens", fn=lambda ctx, k, v: ctx.emit(k, v) if v % 2 == 0 else None)
        )
        odds = g.add(
            Map("odds", fn=lambda ctx, k, v: ctx.emit(k, v) if v % 2 == 1 else None)
        )
        g.connect(loader, evens)
        g.connect(loader, odds)
        result = engine.run(g)
        assert sorted(v for _, v in result.output("evens")) == list(range(0, 20, 2))
        assert sorted(v for _, v in result.output("odds")) == list(range(1, 20, 2))

    def test_fan_in(self):
        engine = make_engine()
        g = FlowletGraph("fanin")
        l1 = g.add(Loader("l1", CollectionSource([("a", 1)] * 3)))
        l2 = g.add(Loader("l2", CollectionSource([("a", 10)] * 2)))
        total = g.add(PartialReduce("sum", initial=lambda k: 0, combine=lambda a, v: a + v))
        g.connect(l1, total)
        g.connect(l2, total)
        result = engine.run(g)
        assert result.output("sum") == [("a", 23)]

    def test_multi_phase_chain(self):
        # A chain of maps — the K-Cliques pattern (Alg. 3).
        engine = make_engine()
        g = FlowletGraph("chain")
        loader = g.add(Loader("load", CollectionSource([(i, 1) for i in range(10)])))
        prev = loader
        for stage in range(3):
            mapper = g.add(
                Map(f"stage{stage}", fn=lambda ctx, k, v: ctx.emit(k, v * 2))
            )
            g.connect(prev, mapper)
            prev = mapper
        result = engine.run(g)
        assert sorted(v for _, v in result.output("stage2")) == [8] * 10

    def test_local_edge_stays_on_node(self):
        engine = make_engine(num_workers=3)
        g = FlowletGraph("local")
        data = {
            w.node_id: [(w.node_id, f"rec{i}") for i in range(5)]
            for w in engine.cluster.workers
        }
        loader = g.add(Loader("load", PerNodeSource(data)))
        tag = g.add(Map("tag", fn=lambda ctx, k, v: ctx.emit(ctx.node.node_id, v)))
        g.connect(loader, tag, mode=EdgeMode.LOCAL)
        result = engine.run(g)
        # every record tagged with the node that originally held it
        for node_id, rec in result.output("tag"):
            assert rec in {f"rec{i}" for i in range(5)}
            assert node_id in data

    def test_broadcast_edge_replicates(self):
        engine = make_engine(num_workers=3)
        g = FlowletGraph("bcast")
        loader = g.add(Loader("load", CollectionSource([("c0", 42)])))
        recv = g.add(
            Map("recv", fn=lambda ctx, k, v: ctx.emit(ctx.worker_index, v))
        )
        g.connect(loader, recv, mode=EdgeMode.BROADCAST)
        result = engine.run(g)
        # each of the 3 workers saw the pair once
        assert sorted(k for k, _ in result.output("recv")) == [0, 1, 2]

    def test_emit_to_targets_one_edge(self):
        engine = make_engine()
        g = FlowletGraph("route")
        loader = g.add(Loader("load", CollectionSource([(i, i) for i in range(10)])))
        router = g.add(
            Map(
                "route",
                fn=lambda ctx, k, v: ctx.emit(k, v, to="low")
                if v < 5
                else ctx.emit(k, v, to="high"),
            )
        )
        low = g.add(Map("low", fn=lambda ctx, k, v: ctx.emit(k, v)))
        high = g.add(Map("high", fn=lambda ctx, k, v: ctx.emit(k, v)))
        g.connect(loader, router)
        g.connect(router, low)
        g.connect(router, high)
        result = engine.run(g)
        assert sorted(v for _, v in result.output("low")) == [0, 1, 2, 3, 4]
        assert sorted(v for _, v in result.output("high")) == [5, 6, 7, 8, 9]


class TestReduceSemantics:
    def test_reduce_groups_all_values(self):
        engine = make_engine()
        g = FlowletGraph("group")
        pairs = [(f"k{i % 3}", i) for i in range(30)]
        loader = g.add(Loader("load", CollectionSource(pairs)))
        reducer = g.add(Reduce("group", fn=lambda ctx, k, vs: ctx.emit(k, sorted(vs))))
        g.connect(loader, reducer)
        result = engine.run(g)
        out = dict(result.output("group"))
        assert out["k0"] == list(range(0, 30, 3))
        assert out["k1"] == list(range(1, 30, 3))
        assert out["k2"] == list(range(2, 30, 3))

    def test_reduce_spills_under_memory_pressure(self):
        # Tiny memory budget at high scale forces the grouped store to spill.
        cluster = Cluster(
            small_cluster_spec(num_workers=2, memory=200_000, scale=1000.0)
        )
        engine = HamrEngine(cluster)
        g = FlowletGraph("spilly")
        pairs = [(f"key{i % 50}", "v" * 50) for i in range(400)]
        loader = g.add(Loader("load", CollectionSource(pairs)))
        reducer = g.add(Reduce("collect", fn=lambda ctx, k, vs: ctx.emit(k, len(vs))))
        g.connect(loader, reducer)
        result = engine.run(g)
        assert sum(v for _, v in result.output("collect")) == 400
        assert result.metrics.get("reduce_spills", 0) > 0

    def test_counters_aggregate(self):
        engine = make_engine()
        g = FlowletGraph("counted")
        loader = g.add(Loader("load", CollectionSource([(i, i) for i in range(10)])))
        m = g.add(
            Map("m", fn=lambda ctx, k, v: ctx.counter("seen"))
        )
        g.connect(loader, m)
        result = engine.run(g)
        assert result.counters["seen"] == 10


class TestKVStoreIntegration:
    def test_kv_persists_across_jobs(self):
        engine = make_engine(num_workers=3)
        g1 = FlowletGraph("store")
        loader = g1.add(Loader("load", CollectionSource([(f"k{i}", i) for i in range(9)])))
        store = g1.add(Map("store", fn=lambda ctx, k, v: ctx.kv_put(k, v)))
        g1.connect(loader, store)
        engine.run(g1)
        assert engine.kvstore.total_entries() == 9

        g2 = FlowletGraph("reload")
        reload_ = g2.add(Loader("reload", KVStoreSource(engine.kvstore)))
        double = g2.add(Map("double", fn=lambda ctx, k, v: ctx.emit(k, v * 2)))
        g2.connect(reload_, double)
        result = engine.run(g2)
        assert dict(result.output("double")) == {f"k{i}": 2 * i for i in range(9)}

    def test_iterative_runs_accumulate_time(self):
        engine = make_engine()
        g = wordcount_graph(CollectionSource(LINES))
        r1 = engine.run(g)
        g2 = wordcount_graph(CollectionSource(LINES))
        r2 = engine.run(g2)
        assert r2.start_time >= r1.end_time
        assert r2.makespan > 0


class TestStreaming:
    def test_stream_batches_arrive_over_time(self):
        engine = make_engine(num_workers=2)
        batches = [
            TimedBatch.make(5.0, [(0, "hello world")]),
            TimedBatch.make(10.0, [(1, "hello again")]),
        ]
        g = wordcount_graph(StreamSource(batches, partitions=2))
        result = engine.run(g)
        assert dict(result.output("count")) == {"hello": 2, "world": 1, "again": 1}
        # the job cannot end before the last batch lands at t=10
        assert result.end_time >= 10.0

    def test_stream_requires_time_order(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            StreamSource([TimedBatch.make(5, []), TimedBatch.make(1, [])])


class TestFlowControl:
    def test_backpressure_stalls_recorded(self):
        # A fast producer into a tiny-capacity edge must hit flow control.
        from repro.cluster import CostModel, ClusterSpec, NodeSpec

        spec = ClusterSpec(
            num_nodes=3,
            node=NodeSpec(worker_threads=4, memory=1 << 30),
            cost=CostModel(bin_size=64, flow_capacity=128),
        )
        engine = HamrEngine(Cluster(spec))
        g = FlowletGraph("pressure")
        pairs = [("hot", i) for i in range(3000)]
        loader = g.add(Loader("load", CollectionSource(pairs)))
        slow = g.add(
            Map("slow", fn=lambda ctx, k, v: None, compute_factor=50.0)
        )
        g.connect(loader, slow)
        result = engine.run(g)
        assert result.metrics.get("flow_stalls", 0) > 0

    def test_no_stalls_with_roomy_buffers(self):
        engine = make_engine()
        result = engine.run(wordcount_graph(CollectionSource(LINES)))
        assert result.metrics.get("flow_stalls", 0) == 0


# -- emitted pairs are stored, not re-packed ------------------------------------------


def packed(pairs):
    """``BinPacker.add_many`` onto a LOCAL and a BROADCAST edge: the records
    of each edge's one bin."""
    src = Map("src")
    edges = [
        Edge(0, src, Map("a"), EdgeMode.LOCAL, HashPartitioner(1)),
        Edge(1, src, Map("b"), EdgeMode.BROADCAST, HashPartitioner(1)),
    ]
    packer = BinPacker(10**9)
    assert packer.add_many(edges, pairs, local_partition=0) == []
    return [b.records for b in packer.drain()]


def sunk(pairs):
    """``TaskContext.emit_many`` on a sink: its job output."""
    instance = SimpleNamespace(flowlet=SimpleNamespace(name="sink"))
    ctx = TaskContext(instance, None, 0, 1, BinPacker(64), [], None, None)
    ctx.emit_many(pairs)
    return [ctx.output_pairs]


Pair = namedtuple("Pair", "key value")


@pytest.mark.parametrize("store", [packed, sunk], ids=["add_many", "sink"])
class TestEmitKeepsPairs:
    def test_an_exact_tuple_is_stored_as_itself(self, store):
        pairs = [("a", 1), ("b", [2])]
        for stored in store(pairs):
            assert all(got is pair for got, pair in zip(stored, pairs, strict=True))

    def test_any_other_pair_is_stored_as_a_new_tuple(self, store):
        for stored in store([["a", 1], Pair("b", 2), "cd"]):
            assert stored == [("a", 1), ("b", 2), ("c", "d")]
            assert [type(p) for p in stored] == [tuple] * 3

    @pytest.mark.parametrize("item", [(1, 2, 3), 5], ids=["3-tuple", "scalar"])
    def test_a_non_pair_raises_the_unpacking_error(self, store, item):
        with pytest.raises((ValueError, TypeError)) as unpacking:
            key, value = item
        with pytest.raises(unpacking.type) as storing:
            store([("ok", 1), item])
        assert str(storing.value) == str(unpacking.value)

    def test_a_generator_is_iterated_once(self, store):
        pulled = []

        def stream():
            for i in range(5):
                pulled.append(i)
                yield f"k{i}", i

        for stored in store(stream()):
            assert stored == [(f"k{i}", i) for i in range(5)]
        assert pulled == list(range(5))


class TestMapOutputMemory:
    def test_wordcount_holds_no_pair_per_occurrence(self):
        """Tiny WordCount on HAMR peaks below its input tokenized into a
        new ``(word, 1)`` tuple per word, plus a quarter.

        That base is what the bins and inboxes would hold if every
        occurrence were its own pair (about 1.7x the base, with the engine
        re-packing every pair). With one shared pair per distinct word the
        in-flight pairs are pointers, and the peak is about 1.1x.
        """
        workload = workload_by_name("wordcount", "tiny")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            raw = [(word, 1) for _offset, line in workload.records for word in line.split()]
            base = tracemalloc.get_traced_memory()[0] - before
            del raw
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run_workload(workload, engines="hamr")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < base * 1.25, f"traced peak {peak} B vs fresh pairs {base} B"

    def test_each_job_has_its_own_pairs_and_drops_them(self):
        workload = workload_by_name("wordcount", "tiny")
        env = workload.fresh_env()
        env.ingest_local(wordcount.INPUT, workload.records)

        def run_job():
            graph = wordcount.build_hamr_graph(env, workload.params)
            tokenize = next(f for f in graph.flowlets if f.name == "Tokenize")._fn
            pairs = inspect.getclosurevars(tokenize).nonlocals["pairs"]
            output = dict(env.hamr.run(graph).output("Count"))
            assert output == wordcount.reference(workload.records)
            assert sorted(pairs) == sorted(output)
            assert all(pair == (word, 1) for word, pair in pairs.items())
            return weakref.ref(pairs)

        first = run_job()
        second = run_job()
        gc.collect()
        # the engine keeps only its last job; the first job's pairs are gone
        assert first() is None and second() is not None
        del env
        gc.collect()
        assert second() is None
