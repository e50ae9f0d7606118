"""Unit tests for runtime internals: thread leases, completion propagation,
statuses, aggregated-data charging, ablation-mode semantics, config knobs,
and the self-sizing `SumMap` accumulator."""

import copy
import pickle
from dataclasses import replace

import pytest

from repro.apps import naive_bayes
from repro.apps.base import AppEnv
from repro.cluster import Cluster, small_cluster_spec
from repro.common.errors import GraphError, JobError
from repro.common.sizeof import logical_sizeof
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
    SumMap,
    sum_combiner,
)
from repro.core.runtime import ThreadLease
from repro.evaluation.workloads import workload_by_name
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


def seeded_sum_map():
    return SumMap().add({"a": 1, "bb": 2.5, ("t", 1): 3, "日本": -0.0})


def assert_carried_size_exact(acc):
    assert type(acc) is SumMap
    assert acc.logical_size == logical_sizeof(acc) == logical_sizeof(dict(acc))


class TestSumMap:
    """The self-sizing accumulator: every ``dict`` mutator either keeps
    the carried size equal to the structural one or raises."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda m: m.__setitem__("new", 4),
            lambda m: m.__setitem__("a", 2.0),
            lambda m: m.__delitem__("bb"),
            lambda m: m.update({"a": 5, "zz": 1}),
            lambda m: m.update([("p", 1)], q=2),
            lambda m: m.__ior__({"x": 1.5}),
            lambda m: m.pop("a"),
            lambda m: m.pop("missing", None),
            lambda m: m.popitem(),
            lambda m: m.setdefault("a", 9),
            lambda m: m.setdefault(("new", 2), 9),
            lambda m: m.clear(),
            lambda m: m.add(SumMap({"a": 1, "c": 2})),
        ],
        ids=[
            "setitem-new", "setitem-existing", "delitem", "update", "update-pairs-kwargs",
            "ior", "pop", "pop-default", "popitem", "setdefault-existing",
            "setdefault-new", "clear", "add-summap",
        ],
    )
    def test_mutators_keep_the_size(self, mutate):
        acc = seeded_sum_map()
        mutate(acc)
        assert_carried_size_exact(acc)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda m: m.add({"a": True}),
            lambda m: m.add({"new": "1"}),
            lambda m: m.__setitem__("a", False),
            lambda m: m.__setitem__("new", None),
            lambda m: m.setdefault("new"),
            lambda m: m.update({"ok": 1, "bad": 1j}),
        ],
        ids=["add-bool", "add-str", "setitem-bool", "setitem-none", "setdefault-none",
             "update-complex"],
    )
    def test_non_numbers_raise_and_leave_the_size_exact(self, mutate):
        acc = seeded_sum_map()
        with pytest.raises(TypeError):
            mutate(acc)
        assert_carried_size_exact(acc)
        assert {type(v) for v in acc.values()} <= {int, float}

    @pytest.mark.parametrize(
        "vector", [{"new": 1, "a": True}, {"new": 1, "odd": 1j}, {"new": 1, object(): 1}],
        ids=["bool", "complex", "unsizable-key"],
    )
    def test_add_is_all_or_nothing(self, vector):
        acc = seeded_sum_map()
        before = dict(acc)
        with pytest.raises(TypeError):
            acc.add(vector)
        assert acc == before
        assert_carried_size_exact(acc)

    def test_missing_key_raises_and_leaves_the_size_exact(self):
        acc = seeded_sum_map()
        with pytest.raises(KeyError):
            del acc["missing"]
        with pytest.raises(KeyError):
            acc.pop("missing")
        assert_carried_size_exact(acc)

    def test_add_is_the_plain_sum(self):
        acc = SumMap()
        assert acc.add({"a": 1, "b": 2}) is acc
        acc.add({"a": 3, "c": 0.5})
        assert acc == {"a": 4, "b": 2, "c": 0.5}
        assert SumMap.fromkeys(["x", "y"], 0) == {"x": 0, "y": 0}

    @pytest.mark.parametrize(
        "clone",
        [
            lambda m: pickle.loads(pickle.dumps(m)),
            lambda m: pickle.loads(pickle.dumps(m, protocol=0)),
            copy.copy,
            copy.deepcopy,
            SumMap.copy,
        ],
        ids=["pickle", "pickle-0", "copy", "deepcopy", "method"],
    )
    def test_copies_keep_class_and_size(self, clone):
        acc = seeded_sum_map().add({2**70: 2**70})
        copied = clone(acc)
        assert copied == acc and copied is not acc
        assert copied.logical_size == acc.logical_size
        assert_carried_size_exact(copied)
        copied.add({"later": 1})  # the copy counts on its own
        assert_carried_size_exact(copied)
        assert_carried_size_exact(acc)


def _plain_vector_sum(acc, vector):
    for feature, weight in vector.items():
        acc[feature] = acc.get(feature, 0) + weight
    return acc


class TestSumMapDifferential:
    """NaiveBayes on HAMR at tiny fidelity folds into ``SumMap``; the same
    graph folding into plain dicts must give the identical run, with and
    without accumulator spills."""

    @staticmethod
    def run(memory, plain):
        workload = workload_by_name("naive_bayes", "tiny")
        spec = workload.spec()
        if memory is not None:
            spec = replace(spec, node=replace(spec.node, memory=memory))
        env = AppEnv(spec)
        env.ingest_local(naive_bayes.INPUT, workload.records)
        graph = naive_bayes.build_hamr_graph(env, workload.params)
        if plain:
            (vector_sum,) = [f for f in graph.flowlets if f.name == "VectorSumReducer"]
            vector_sum.initial = lambda _label: {}
            vector_sum.combine = _plain_vector_sum
        result = env.hamr.run(graph)
        output = dict(result.output("WeightSumReducer"))
        assert output == naive_bayes.reference(workload.records)
        return result.makespan, result.metrics, result.counters, output

    @pytest.mark.parametrize("memory", [None, 8 * 1024], ids=["in-memory", "spilling"])
    def test_identical_to_plain_dict_accumulators(self, memory):
        carried = self.run(memory, plain=False)
        plain = self.run(memory, plain=True)
        assert carried == plain
        assert (carried[1].get("acc_spills", 0) > 0) == (memory is not None)
