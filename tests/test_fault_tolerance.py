"""Fault-tolerance tests: Hadoop-style map-task retry under injected failures."""

import pytest

from repro.cluster import Cluster, small_cluster_spec
from repro.common.errors import JobError
from repro.core.combiner import sum_combiner
from repro.mapreduce import HadoopConfig, HadoopEngine, Mapper, MRJob, Reducer
from repro.storage import DFS

LINES = [(i, f"alpha beta w{i}") for i in range(40)]
EXPECTED_ALPHA = 40
EXPECTED_COUNTS = {"alpha": 40, "beta": 40, **{f"w{i}": 1 for i in range(40)}}


def make_engine(**config_kw):
    # scale makes the input span ~10 modeled blocks -> ~10 map tasks, so
    # a 50% per-attempt failure rate reliably injects several failures
    cluster = Cluster(small_cluster_spec(num_workers=3, scale=2e6))
    dfs = DFS(cluster)
    dfs.ingest("in.txt", LINES)
    return HadoopEngine(cluster, dfs, config=HadoopConfig(**config_kw))


def wordcount_job(combiner=None):
    def tokenize(ctx, _off, line):
        for word in line.split():
            ctx.emit(word, 1)

    return MRJob(
        "wc",
        "in.txt",
        "out",
        mapper=Mapper(fn=tokenize),
        reducer=Reducer(fn=lambda ctx, w, counts: ctx.emit(w, sum(counts))),
        combiner=combiner,
    )


class TestRetry:
    def test_no_failures_by_default(self):
        engine = make_engine()
        result = engine.run(wordcount_job())
        assert result.metrics.get("map_task_failures", 0) == 0

    def test_failures_are_retried_and_result_correct(self):
        engine = make_engine(map_fail_first_attempts=1)
        result = engine.run(wordcount_job())
        assert result.metrics["map_task_failures"] == result.metrics["map_tasks"]
        assert dict(result.outputs)["alpha"] == EXPECTED_ALPHA

    def test_failures_cost_time(self):
        clean = make_engine().run(wordcount_job())
        flaky = make_engine(map_fail_first_attempts=1).run(wordcount_job())
        assert flaky.makespan > clean.makespan

    def test_probabilistic_injection_deterministic(self):
        a = make_engine(map_failure_rate=0.3, failure_seed=7).run(wordcount_job())
        b = make_engine(map_failure_rate=0.3, failure_seed=7).run(wordcount_job())
        assert a.metrics.get("map_task_failures", 0) == b.metrics.get("map_task_failures", 0)
        assert a.makespan == b.makespan

    def test_two_failures_retried(self):
        clean = make_engine().run(wordcount_job())
        worse = make_engine(map_fail_first_attempts=2).run(wordcount_job())
        assert worse.metrics["map_task_failures"] == 2 * worse.metrics["map_tasks"]
        assert worse.makespan > clean.makespan
        assert dict(worse.outputs)["alpha"] == EXPECTED_ALPHA

    def test_attempt_budget_exhaustion(self):
        engine = make_engine(map_fail_first_attempts=3, max_task_attempts=3)
        with pytest.raises(JobError):
            engine.run(wordcount_job())


class TestSpeculativeExecution:
    """Straggler mitigation on a heterogeneous cluster."""

    @staticmethod
    def make_hetero_engine(speculative: bool):
        from dataclasses import replace

        from repro.cluster import Cluster, small_cluster_spec

        spec = small_cluster_spec(num_workers=4, scale=2e6)
        # worker node 2 runs at one tenth speed (a failing disk controller,
        # a thermally throttled CPU — the classic Hadoop straggler story)
        slow = replace(spec.node, speed_factor=0.1)
        spec = replace(spec, node_overrides=((2, slow),))
        cluster = Cluster(spec)
        dfs = DFS(cluster)
        dfs.ingest("in.txt", LINES)
        return HadoopEngine(
            cluster, dfs,
            config=HadoopConfig(speculative_execution=speculative),
        )

    def test_speculation_beats_straggler(self):
        slow = self.make_hetero_engine(speculative=False).run(wordcount_job())
        fast = self.make_hetero_engine(speculative=True).run(wordcount_job())
        assert fast.metrics.get("speculative_launched", 0) > 0
        assert fast.metrics.get("speculative_wins", 0) > 0
        assert fast.makespan < slow.makespan
        assert dict(fast.outputs) == dict(slow.outputs)

    def test_no_speculation_on_homogeneous_cluster(self):
        engine = make_engine(speculative_execution=True)
        result = engine.run(wordcount_job())
        # nothing is 1.5x slower than the median on identical nodes
        assert result.metrics.get("speculative_launched", 0) == 0
        assert dict(result.outputs)["alpha"] == EXPECTED_ALPHA

    def test_speculation_off_by_default(self):
        result = make_engine().run(wordcount_job())
        assert "speculative_launched" not in result.metrics


#: a failed attempt, a retried one and a losing speculative one each run
#: (or skip) the map side's sort and combine; with a combiner too
COMBINERS = pytest.mark.parametrize(
    "combiner", [None, sum_combiner], ids=["plain", "combined"]
)


@COMBINERS
class TestFaultPathsWithCombiner:
    #: (config, map_task_failures, makespan without / with a combiner)
    CASES = {
        "clean": ({}, 0, (210.39038447494494, 35.03644358157484)),
        "fail-first-1": (
            {"map_fail_first_attempts": 1}, 14, (214.6601193382262, 39.31680783938734)
        ),
        "fail-first-2": (
            {"map_fail_first_attempts": 2}, 28, (218.92985420150745, 43.597172097199845)
        ),
        "rate-0.3": (
            {"map_failure_rate": 0.3, "failure_seed": 7}, 4,
            (214.36362324447623, 42.995873618422046),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_retried_attempts(self, combiner, case):
        config, failures, makespans = self.CASES[case]
        result = make_engine(**config).run(wordcount_job(combiner and combiner()))
        assert result.metrics.get("map_task_failures", 0) == failures
        assert result.metrics["map_tasks"] == 14
        assert dict(result.outputs) == EXPECTED_COUNTS
        assert result.makespan == makespans[combiner is not None]

    def test_attempt_budget_exhaustion(self, combiner):
        engine = make_engine(map_fail_first_attempts=3, max_task_attempts=3)
        with pytest.raises(JobError):
            engine.run(wordcount_job(combiner and combiner()))

    def test_speculation_beats_straggler(self, combiner):
        make = TestSpeculativeExecution.make_hetero_engine
        slow = make(speculative=False).run(wordcount_job(combiner and combiner()))
        fast = make(speculative=True).run(wordcount_job(combiner and combiner()))
        assert "speculative_launched" not in slow.metrics
        # every backup beats its straggler; each losing primary finishes
        # its sort and spill, then stands down
        assert fast.metrics["speculative_launched"] == 4
        assert fast.metrics["speculative_wins"] == 4
        assert fast.makespan < slow.makespan
        assert dict(fast.outputs) == dict(slow.outputs) == EXPECTED_COUNTS
