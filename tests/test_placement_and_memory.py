"""Tests for split placement and the KCliques memory contrast the paper
highlights ("Hadoop quickly runs out of memory for larger graphs" while
HAMR shares one store per node)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import kcliques, wordcount
from repro.apps.base import AppEnv
from repro.cluster import Cluster, small_cluster_spec
from repro.cluster.placement import assign_splits
from repro.common.units import KB
from repro.evaluation.obsreport import report_json
from repro.obs.journal import JournalWriter
from repro.obs.replay import replay_lines


class _FakeSplit:
    def __init__(self, preferred):
        self.preferred_nodes = preferred


class TestPlacement:
    def test_prefers_replica_holders(self):
        cluster = Cluster(small_cluster_spec(num_workers=4))
        w = [n.node_id for n in cluster.workers]
        splits = [_FakeSplit([w[2]]), _FakeSplit([w[2], w[3]]), _FakeSplit([w[0]])]
        assignment = assign_splits(cluster, splits)
        assert splits[0] in assignment[2]
        assert splits[2] in assignment[0]
        # second split balances away from the already-loaded worker 2
        assert splits[1] in assignment[3]

    def test_no_preference_round_robins(self):
        cluster = Cluster(small_cluster_spec(num_workers=3))
        splits = [_FakeSplit([]) for _ in range(9)]
        assignment = assign_splits(cluster, splits)
        assert [len(s) for s in assignment] == [3, 3, 3]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=40))
    def test_every_split_assigned_exactly_once(self, prefs):
        cluster = Cluster(small_cluster_spec(num_workers=4))
        worker_ids = [n.node_id for n in cluster.workers]
        splits = [_FakeSplit([worker_ids[p]]) for p in prefs]
        assignment = assign_splits(cluster, splits)
        flat = [s for worker in assignment for s in worker]
        assert len(flat) == len(splits)
        assert {id(s) for s in flat} == {id(s) for s in splits}

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=60))
    def test_balance_without_preferences(self, n):
        cluster = Cluster(small_cluster_spec(num_workers=4))
        assignment = assign_splits(cluster, [_FakeSplit([]) for _ in range(n)])
        sizes = [len(s) for s in assignment]
        assert max(sizes) - min(sizes) <= 1


class TestKCliquesMemoryContrast:
    """§5.2: all clique info must fit a Hadoop reduce JVM, while HAMR
    builds the graph into one shared store per node."""

    @pytest.fixture(scope="class")
    def params(self):
        return kcliques.KCliquesParams(scale=8, n_edges=3000, k=3, seed=4)

    def test_hadoop_reduce_heap_spills_on_big_graph(self, params):
        # Scale the edges so adjacency + candidates overflow the 1GB
        # reduce-task heap: the Hadoop job survives only by spilling.
        env = AppEnv(small_cluster_spec(num_workers=3, scale=3e5))
        edges = kcliques.generate_input(params)
        result = kcliques.run_hadoop(env, params, edges)
        assert result.metrics.get("reduce_spills", 0) > 0

    def test_hamr_holds_graph_in_shared_memory(self, params):
        env = AppEnv(small_cluster_spec(num_workers=3, scale=3e5, memory=32 << 30))
        edges = kcliques.generate_input(params)
        result = kcliques.run_hamr(env, params, edges)
        # zero reduce-side spills: adjacency lives in the node-shared store
        assert result.metrics.get("reduce_spills", 0) == 0
        assert env.kvstore.total_entries() > 0
        # the store accounts real memory on every node that holds vertices
        assert any(w.memory.used > 0 for w in env.cluster.workers)

    def test_same_answer_under_pressure(self, params):
        edges = kcliques.generate_input(params)
        expected = kcliques.reference(edges, params.k)
        env_hamr = AppEnv(small_cluster_spec(num_workers=3, scale=3e5, memory=32 << 30))
        env_hadoop = AppEnv(small_cluster_spec(num_workers=3, scale=3e5))
        assert kcliques.run_hamr(env_hamr, params, edges).output == expected
        assert kcliques.run_hadoop(env_hadoop, params, edges).output == expected


class TestAccumulatorSpill:
    """HAMR's partial-reduce accumulators spill to disk when a worker's
    memory runs out, and merge back at finalize: WordCount on 4 KB
    workers spills them, and the run stays correct and replayable."""

    def test_spilled_run_is_correct_and_replays_byte_identically(self):
        params = wordcount.WordCountParams(target_bytes=50_000, seed=0)
        records = wordcount.generate_input(params)
        writer = JournalWriter()
        writer.write_header(
            workload="wordcount", label="WordCount", data_size="16GB", engine="hamr"
        )
        env = AppEnv(
            small_cluster_spec(num_workers=3, memory=4 * KB), obs=True, journal=writer
        )
        result = wordcount.run_hamr(env, params, records)
        writer.write_footer(makespan=result.makespan, virtual_end=env.cluster.sim.now)
        assert result.output == wordcount.reference(records)
        spills = result.metrics["acc_spills"]
        assert spills > 0
        assert env.obs.metrics.counter_total("spill.runs") >= spills
        replayed = replay_lines(writer.lines).tracer
        assert report_json(replayed, "wordcount", "hamr") == report_json(
            env.obs, "wordcount", "hamr"
        )
