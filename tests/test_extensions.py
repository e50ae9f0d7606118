"""Tests for the extension features: per-flowlet metrics, KV-store
checkpointing, the evaluation CLI, and the ablation helpers."""

import pytest

from repro.cluster import Cluster, small_cluster_spec
from repro.core import (
    CollectionSource,
    FlowletGraph,
    HamrEngine,
    Loader,
    Map,
    PartialReduce,
)
from repro.evaluation.__main__ import main as eval_main
from repro.evaluation.ablations import (
    AblationResult,
    ablation_async,
    ablation_bin_size,
    ablation_combiner,
    ablation_locality,
    ablation_memory,
    ablation_partial_reduce,
    ablation_skew,
    scaling_study,
)
from repro.evaluation.workloads import workload_by_name
from repro.storage import KVStore, LocalFS


class TestFlowletMetrics:
    def test_profile_shape(self):
        engine = HamrEngine(Cluster(small_cluster_spec(num_workers=3)))
        g = FlowletGraph("wc")
        loader = g.add(Loader("load", CollectionSource([(i, f"a b c{i}") for i in range(20)])))
        tok = g.add(
            Map("tok", fn=lambda ctx, _k, line: [ctx.emit(w, 1) for w in line.split()] and None)
        )
        count = g.add(
            PartialReduce("count", initial=lambda _w: 0, combine=lambda a, v: a + v)
        )
        g.connect(loader, tok)
        g.connect(tok, count)
        result = engine.run(g)
        profile = result.flowlet_metrics
        assert set(profile) == {"load", "tok", "count"}
        assert profile["tok"]["pairs_in"] == 20
        assert profile["count"]["pairs_in"] == 60  # 3 words per line
        assert profile["tok"]["bins_in"] > 0
        assert all(row["stalls"] == 0 for row in profile.values())


class TestKVCheckpoint:
    def run_proc(self, cluster, gen):
        cluster.run_job(gen, name="kv-checkpoint", label="KV checkpoint")

    def test_roundtrip(self):
        cluster = Cluster(small_cluster_spec(num_workers=3))
        fs = LocalFS(cluster)
        store = KVStore(cluster)
        for i, worker in enumerate(cluster.workers):
            store.put(worker, f"k{i}", {"v": i})
        self.run_proc(cluster, store.checkpoint(fs, "ckpt"))
        elapsed_after_ckpt = cluster.sim.now
        assert elapsed_after_ckpt > 0  # disk writes were charged
        store.clear()
        assert store.total_entries() == 0
        self.run_proc(cluster, store.restore(fs, "ckpt"))
        assert dict(store.all_items()) == {f"k{i}": {"v": i} for i in range(3)}
        # memory re-accounted on restore
        assert any(w.memory.used > 0 for w in cluster.workers)

    def test_checkpoint_overwrites(self):
        cluster = Cluster(small_cluster_spec(num_workers=2))
        fs = LocalFS(cluster)
        store = KVStore(cluster)
        store.put(cluster.worker(0), "a", 1)
        self.run_proc(cluster, store.checkpoint(fs, "ckpt"))
        store.put(cluster.worker(0), "b", 2)
        self.run_proc(cluster, store.checkpoint(fs, "ckpt"))
        store.clear()
        self.run_proc(cluster, store.restore(fs, "ckpt"))
        assert dict(store.all_items()) == {"a": 1, "b": 2}


class TestEvaluationCLI:
    def test_table1(self, capsys):
        assert eval_main(["table1"]) == 0
        assert "Cluster Information" in capsys.readouterr().out

    def test_bench_single(self, capsys):
        assert eval_main(["bench", "wordcount", "--fidelity", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "WordCount" in out
        assert "speedup" in out

    def test_bench_requires_name(self):
        with pytest.raises(SystemExit):
            eval_main(["bench"])

    def test_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            eval_main(["table9"])


@pytest.mark.slow
class TestAblationHelpers:
    """A1-A8 at tiny fidelity: each design choice DESIGN.md §5 argues for
    pays for itself, in the direction the paper claims."""

    def test_memory_ablation(self):
        result = ablation_memory(workload_by_name("pagerank", "tiny"))
        assert isinstance(result, AblationResult)
        assert result.with_feature > 0 and result.without_feature > 0
        assert result.factor > 1.0  # disk staging hurts at any fidelity

    def test_async_ablation(self):
        result = ablation_async(workload_by_name("wordcount", "tiny"))
        assert result.factor >= 0.99

    def test_partial_reduce_ablation(self):
        result = ablation_partial_reduce(workload_by_name("wordcount", "tiny"))
        assert result.factor >= 0.99

    def test_bin_size_ablation(self):
        result = ablation_bin_size(workload_by_name("wordcount", "tiny"))
        assert result.without_feature > 0
        assert result.factor > 1.0  # coarse bins strangle fine-grain parallelism

    def test_locality_ablation(self):
        result = ablation_locality(workload_by_name("kmeans", "tiny"))
        assert result.factor > 1.0

    def test_skew_ablation(self):
        # §5.2: HistogramRatings degrades as the rating popularity skews
        makespans = dict(ablation_skew("tiny"))
        assert makespans["uniform"] < makespans["default"] < makespans["extreme"]

    def test_combiner_ablation(self):
        # Table 3: the combiner relieves HistogramRatings' flow control
        assert ablation_combiner(workload_by_name("histogram_ratings", "tiny")).factor > 1.0

    def test_scaling_study(self):
        # A8: widening the cluster (4 -> 8 -> 15 workers) speeds K-Means up
        series = scaling_study(workload_by_name("kmeans", "tiny"))
        makespans = [makespan for _workers, makespan, _speedup in series]
        assert makespans == sorted(makespans, reverse=True)
        assert series[-1][2] > 1.5
