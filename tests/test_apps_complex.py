"""Correctness tests for the iterative/multi-phase benchmarks:
K-Means, Classification, PageRank, K-Cliques.
"""

import pytest

from repro.apps import classification, kcliques, kmeans, pagerank
from repro.apps.base import AppEnv
from repro.cluster import small_cluster_spec
from repro.common.errors import JobError


def fresh_env(num_workers=4):
    return AppEnv(small_cluster_spec(num_workers=num_workers))


class TestKMeans:
    @pytest.fixture(scope="class")
    def setup(self):
        params = kmeans.KMeansParams(n_movies=200, k=5, seed=5, n_users=300)
        records = kmeans.generate_input(params)
        return params, records

    def test_hamr_new_centroids(self, setup):
        params, records = setup
        expected = kmeans.reference(records, params.k)
        result = kmeans.run_hamr(fresh_env(), params, records)
        assert result.output == expected

    def test_hadoop_new_centroids(self, setup):
        params, records = setup
        expected = kmeans.reference(records, params.k)
        result = kmeans.run_hadoop(fresh_env(), params, records)
        assert result.output == expected

    def test_cluster_sizes_match(self, setup):
        params, records = setup
        sizes = kmeans.reference_sizes(records, params.k)
        result = kmeans.run_hamr(fresh_env(), params, records)
        measured = {
            int(name.split("_")[-1]): int(count)
            for name, count in result.counters.items()
            if name.startswith("cluster_size_")
        }
        assert measured == sizes
        assert sum(sizes.values()) == params.n_movies

    def test_hamr_writes_clusters_locally(self, setup):
        params, records = setup
        env = fresh_env()
        kmeans.run_hamr(env, params, records)
        # every movie line was written to some node-local cluster file
        total = 0
        for worker in env.cluster.workers:
            for name in env.localfs.files_on(worker):
                if name.startswith("kmeans-cluster-"):
                    total += env.localfs.get_file(worker.node_id, name).nrecords
        assert total == params.n_movies

    def test_hamr_centroids_installed_on_all_nodes(self, setup):
        params, records = setup
        env = fresh_env(num_workers=3)
        kmeans.run_hamr(env, params, records)
        for worker in env.cluster.workers:
            keys = {k for k, _v in env.kvstore.items(worker)}
            assert {("centroid", c) for c in range(params.k)} <= keys


class TestClassification:
    @pytest.fixture(scope="class")
    def setup(self):
        params = classification.ClassificationParams(n_movies=200, k=6, seed=6, n_users=300)
        records = classification.generate_input(params)
        return params, records, classification.reference(records, 6)

    def test_hamr(self, setup):
        params, records, expected = setup
        result = classification.run_hamr(fresh_env(), params, records)
        assert result.output == expected

    def test_hadoop(self, setup):
        params, records, expected = setup
        result = classification.run_hadoop(fresh_env(), params, records)
        assert result.output == expected

    def test_all_movies_classified(self, setup):
        params, _records, expected = setup
        assert sum(expected.values()) == params.n_movies


class TestPageRank:
    @pytest.fixture(scope="class")
    def setup(self):
        params = pagerank.PageRankParams(n_pages=120, n_edges=700, iterations=3, seed=7)
        edges = pagerank.generate_input(params)
        return params, edges, pagerank.reference(edges, params)

    def test_hamr_ranks(self, setup):
        params, edges, expected = setup
        result = pagerank.run_hamr(fresh_env(), params, edges)
        assert set(result.output) == set(expected)
        for page, rank in expected.items():
            assert result.output[page] == pytest.approx(rank, rel=1e-9)

    def test_hadoop_ranks(self, setup):
        params, edges, expected = setup
        result = pagerank.run_hadoop(fresh_env(), params, edges)
        assert set(result.output) == set(expected)
        for page, rank in expected.items():
            assert result.output[page] == pytest.approx(rank, rel=1e-9)

    def test_ranks_normalized(self, setup):
        _params, _edges, expected = setup
        assert sum(expected.values()) == pytest.approx(1.0, abs=0.01)

    def test_hamr_keeps_adjacency_in_memory(self, setup):
        params, edges, _expected = setup
        env = fresh_env()
        pagerank.run_hamr(env, params, edges)
        adj_entries = sum(
            1
            for key, _v in env.kvstore.all_items()
            if isinstance(key, tuple) and key[0] == "adj"
        )
        assert adj_entries == params.n_pages

    def test_zero_iterations_rejected(self):
        params = pagerank.PageRankParams(n_pages=50, n_edges=200, iterations=0, seed=8)
        with pytest.raises(JobError, match="no graph to run"):
            pagerank.run_hamr(fresh_env(), params, pagerank.generate_input(params))

    def test_single_iteration(self):
        params = pagerank.PageRankParams(n_pages=50, n_edges=200, iterations=1, seed=8)
        edges = pagerank.generate_input(params)
        expected = pagerank.reference(edges, params)
        result = pagerank.run_hamr(fresh_env(), params, edges)
        for page, rank in expected.items():
            assert result.output[page] == pytest.approx(rank, rel=1e-9)


class TestKCliques:
    @pytest.fixture(scope="class")
    def setup(self):
        params = kcliques.KCliquesParams(scale=6, n_edges=600, k=3, seed=9)
        edges = kcliques.generate_input(params)
        return params, edges, kcliques.reference(edges, 3)

    def test_reference_sanity(self, setup):
        _params, edges, expected = setup
        adjacency = {}
        for u, v in edges:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        assert len(expected) > 0
        for a, b, c in expected:
            assert a < b < c
            assert b in adjacency[a] and c in adjacency[a] and c in adjacency[b]

    def test_hamr(self, setup):
        params, edges, expected = setup
        result = kcliques.run_hamr(fresh_env(), params, edges)
        assert result.output == expected

    def test_hadoop(self, setup):
        params, edges, expected = setup
        result = kcliques.run_hadoop(fresh_env(), params, edges)
        assert result.output == expected

    def test_four_cliques(self):
        params = kcliques.KCliquesParams(scale=5, n_edges=300, k=4, seed=10)
        edges = kcliques.generate_input(params)
        expected = kcliques.reference(edges, 4)
        hamr = kcliques.run_hamr(fresh_env(), params, edges)
        hadoop = kcliques.run_hadoop(fresh_env(), params, edges)
        assert hamr.output == expected
        assert hadoop.output == expected

    def test_k_below_3_rejected(self):
        with pytest.raises(ValueError):
            kcliques.KCliquesParams(k=2)


class TestPageRankConvergence:
    def test_driver_converges_before_max_iterations(self):
        params = pagerank.PageRankParams(n_pages=60, n_edges=300, iterations=1, seed=3)
        edges = pagerank.generate_input(params)
        result, iterations = pagerank.run_hamr_until_converged(
            fresh_env(), params, edges, tolerance=1e-3, max_iterations=40
        )
        assert 1 < iterations < 40
        assert sum(result.output.values()) == pytest.approx(1.0, abs=0.02)

    def test_tight_tolerance_runs_longer(self):
        params = pagerank.PageRankParams(n_pages=60, n_edges=300, iterations=1, seed=3)
        edges = pagerank.generate_input(params)
        _r1, loose = pagerank.run_hamr_until_converged(
            fresh_env(), params, edges, tolerance=1e-2, max_iterations=40
        )
        _r2, tight = pagerank.run_hamr_until_converged(
            fresh_env(), params, edges, tolerance=1e-6, max_iterations=40
        )
        assert tight > loose
