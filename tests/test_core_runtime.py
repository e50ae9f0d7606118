"""Unit tests for runtime internals: thread leases, completion propagation,
statuses, aggregated-data charging, ablation-mode semantics, config knobs."""

import pytest

from repro.cluster import Cluster, small_cluster_spec
from repro.common.errors import GraphError, JobError
from repro.core import (
    CollectionSource,
    EdgeMode,
    FlowletGraph,
    HamrConfig,
    HamrEngine,
    Loader,
    Map,
    PartialReduce,
    PerNodeSource,
    Reduce,
    sum_combiner,
)
from repro.core.runtime import ThreadLease
from repro.sim import Resource, Simulator


def make_engine(num_workers=3, config=None, **spec_kw):
    cluster = Cluster(small_cluster_spec(num_workers=num_workers, **spec_kw))
    return HamrEngine(cluster, config=config)


def simple_graph(items, **count_kw):
    g = FlowletGraph("simple")
    loader = g.add(Loader("load", CollectionSource(items)))
    count = g.add(
        PartialReduce(
            "count", initial=lambda _k: 0, combine=lambda a, v: a + v, **count_kw
        )
    )
    g.connect(loader, count)
    return g


class TestThreadLease:
    def test_acquire_release_cycle(self):
        sim = Simulator()
        pool = Resource(sim, capacity=1)
        lease = ThreadLease(pool)
        held_during = []

        def proc(sim):
            yield lease.acquire()
            held_during.append(lease.held)
            lease.release()
            held_during.append(lease.held)

        sim.spawn(proc(sim))
        sim.run()
        assert held_during == [True, False]
        assert pool.in_use == 0

    def test_release_unheld_rejected(self):
        sim = Simulator()
        lease = ThreadLease(Resource(sim, capacity=1))
        with pytest.raises(JobError):
            lease.release()


class TestCompletionPropagation:
    def test_reduce_waits_for_all_upstreams(self):
        """A reduce fed by two loaders must see both complete before firing."""
        engine = make_engine()
        g = FlowletGraph("fanin")
        fast = g.add(Loader("fast", CollectionSource([("k", 1)] * 3)))
        slow_source = [("k", 10)] * 3
        slow = g.add(Loader("slow", CollectionSource(slow_source)))
        seen_at = []

        def record_reduce(ctx, key, values):
            seen_at.append(sorted(values))
            ctx.emit(key, sum(values))

        red = g.add(Reduce("red", fn=record_reduce))
        g.connect(fast, red)
        g.connect(slow, red)
        result = engine.run(g)
        # a single reduce call saw ALL six values — no partial firing
        assert result.output("red") == [("k", 33)]
        assert len(seen_at) == 1
        assert seen_at[0] == [1, 1, 1, 10, 10, 10]

    def test_statuses_complete_after_run(self):
        engine = make_engine()
        engine.run(simple_graph([("a", 1)]))
        assert engine.instance_status("load") == ["complete"] * 3
        assert engine.instance_status("count") == ["complete"] * 3

    def test_empty_loader_still_completes_downstream(self):
        engine = make_engine()
        g = FlowletGraph("empty")
        loader = g.add(Loader("load", CollectionSource([])))
        count = g.add(
            PartialReduce("count", initial=lambda _k: 0, combine=lambda a, v: a + v)
        )
        g.connect(loader, count)
        result = engine.run(g)
        assert result.output("count") == []
        assert engine.instance_status("count") == ["complete"] * 3


class TestAggregatedCharging:
    def test_aggregated_output_preserves_results(self):
        items = [(f"w{i % 5}", 1) for i in range(50)]
        plain = make_engine(scale=1000.0).run(simple_graph(items))
        flagged = make_engine(scale=1000.0).run(
            simple_graph(items, aggregated_output=True)
        )
        assert sorted(plain.output("count")) == sorted(flagged.output("count"))

    def test_aggregated_output_cheaper_at_scale(self):
        # The 5-key aggregate sink charged unscaled must finish sooner.
        items = [(f"w{i % 5}", 1) for i in range(50)]
        plain = make_engine(scale=50_000.0).run(simple_graph(items))
        flagged = make_engine(scale=50_000.0).run(
            simple_graph(items, aggregated_output=True)
        )
        assert flagged.makespan < plain.makespan


class TestAblationModes:
    ITEMS = [(f"k{i % 7}", i) for i in range(60)]

    def reference(self):
        expected = {}
        for k, v in self.ITEMS:
            expected[k] = expected.get(k, 0) + v
        return expected

    def test_barrier_mode_same_results_slower_or_equal(self):
        normal = make_engine().run(simple_graph(self.ITEMS))
        barrier = make_engine(config=HamrConfig(barrier_mode=True)).run(
            simple_graph(self.ITEMS)
        )
        assert dict(barrier.output("count")) == self.reference()
        assert barrier.makespan >= normal.makespan

    def test_disk_staging_same_results_slower(self):
        normal = make_engine(scale=10_000.0).run(simple_graph(self.ITEMS))
        staged = make_engine(
            scale=10_000.0, config=HamrConfig(stage_edges_on_disk=True)
        ).run(simple_graph(self.ITEMS))
        assert dict(staged.output("count")) == self.reference()
        assert staged.makespan > normal.makespan

    def test_combiners_can_be_disabled(self):
        g = FlowletGraph("comb")
        loader = g.add(Loader("load", CollectionSource(self.ITEMS)))
        count = g.add(
            PartialReduce("count", initial=lambda _k: 0, combine=lambda a, v: a + v)
        )
        g.connect(loader, count, combiner=sum_combiner())
        engine = make_engine(config=HamrConfig(use_combiners=False))
        result = engine.run(g)
        assert dict(result.output("count")) == self.reference()


class TestConfigKnobs:
    def test_collect_outputs_off(self):
        engine = make_engine(config=HamrConfig(collect_outputs=False))
        result = engine.run(simple_graph([("a", 1), ("b", 2)]))
        assert result.outputs == {}
        assert result.metrics["output_pairs"] == 2  # still counted

    def test_edge_capacity_override(self):
        g = FlowletGraph("cap")
        loader = g.add(Loader("load", CollectionSource([("a", 1)] * 10)))
        mapper = g.add(Map("m", fn=lambda ctx, k, v: ctx.emit(k, v)))
        g.connect(loader, mapper, capacity=123.0)
        engine = make_engine()
        engine.run(g)
        inbox = engine.runtimes[0].instance("m").inbox
        assert inbox.capacity == 123.0

    def test_engine_rejects_reentrant_run(self):
        # `run` drives the sim to completion, so a second concurrent run
        # cannot happen from user code; the guard still exists for misuse
        # from within flowlet code.
        engine = make_engine()

        class Sneaky(Map):
            def map(self, ctx, k, v):
                engine.run(simple_graph([("x", 1)]))

        g2 = FlowletGraph("sneaky")
        loader = g2.add(Loader("load", CollectionSource([("a", 1)])))
        g2.connect(loader, g2.add(Sneaky("evil")))
        with pytest.raises(JobError):
            engine.run(g2)


class TestContextErrors:
    @pytest.mark.parametrize(
        "send",
        [
            lambda ctx, k, v: ctx.emit(k, v, to="nowhere"),
            lambda ctx, k, v: ctx.emit_many([(k, v)], to="nowhere"),
        ],
        ids=["emit", "emit_many"],
    )
    def test_emit_to_unknown_edge(self, send):
        g = FlowletGraph("routes")
        loader = g.add(Loader("load", CollectionSource([("a", 1)])))
        bad = g.add(Map("bad", fn=send))
        g.connect(loader, bad)
        with pytest.raises(GraphError) as caught:
            make_engine().run(g)
        assert str(caught.value) == "'bad' has no edge to 'nowhere'"

    def test_local_edge_keeps_data_on_node(self):
        engine = make_engine(num_workers=3)
        by_node = {
            w.node_id: [(w.node_id, i) for i in range(4)]
            for w in engine.cluster.workers
        }
        g = FlowletGraph("local")
        loader = g.add(Loader("load", PerNodeSource(by_node)))
        stamp = g.add(
            Map("stamp", fn=lambda ctx, origin, v: ctx.emit((origin, ctx.node.node_id), v))
        )
        g.connect(loader, stamp, mode=EdgeMode.LOCAL)
        result = engine.run(g)
        for (origin, processed_on), _v in result.output("stamp"):
            assert origin == processed_on
