"""Correctness tests for the scan/aggregate benchmarks:
WordCount, HistogramMovies, HistogramRatings, NaiveBayes.

Each runs flowlet-style on HAMR and job-style on Hadoop, and must
exactly match the pure-Python reference.
"""

import pytest

from repro.apps import histograms, naive_bayes, wordcount
from repro.apps.base import AppEnv
from repro.cluster import small_cluster_spec
from repro.mapreduce import MRContext


def fresh_env(num_workers=4):
    return AppEnv(small_cluster_spec(num_workers=num_workers))


class TestWordCount:
    @pytest.fixture(scope="class")
    def setup(self):
        params = wordcount.WordCountParams(target_bytes=20_000, seed=1)
        records = wordcount.generate_input(params)
        return params, records, wordcount.reference(records)

    def test_hamr_matches_reference(self, setup):
        params, records, expected = setup
        result = wordcount.run_hamr(fresh_env(), params, records)
        assert result.output == expected
        assert result.makespan > 0

    def test_hadoop_matches_reference(self, setup):
        params, records, expected = setup
        result = wordcount.run_hadoop(fresh_env(), params, records)
        assert result.output == expected

    def test_hamr_combiner_variant(self, setup):
        _params, records, expected = setup
        params = wordcount.WordCountParams(target_bytes=20_000, seed=1, hamr_combiner=True)
        result = wordcount.run_hamr(fresh_env(), params, records)
        assert result.output == expected


class TestHistogramMovies:
    @pytest.fixture(scope="class")
    def setup(self):
        params = histograms.HistogramParams(n_movies=300, seed=2)
        records = histograms.generate_input(params)
        return params, records, histograms.reference_movies(records)

    def test_hamr(self, setup):
        params, records, expected = setup
        result = histograms.run_movies_hamr(fresh_env(), params, records)
        assert result.output == expected

    def test_hadoop(self, setup):
        params, records, expected = setup
        result = histograms.run_movies_hadoop(fresh_env(), params, records)
        assert result.output == expected

    def test_bins_are_half_steps(self, setup):
        _params, _records, expected = setup
        assert all((2 * b) == int(2 * b) for b in expected)
        assert all(1.0 <= b <= 5.0 for b in expected)


class TestHistogramRatings:
    @pytest.fixture(scope="class")
    def setup(self):
        params = histograms.HistogramParams(n_movies=300, seed=3)
        records = histograms.generate_input(params)
        return params, records, histograms.reference_ratings(records)

    def test_hamr(self, setup):
        params, records, expected = setup
        result = histograms.run_ratings_hamr(fresh_env(), params, records)
        assert result.output == expected

    def test_hadoop(self, setup):
        params, records, expected = setup
        result = histograms.run_ratings_hadoop(fresh_env(), params, records)
        assert result.output == expected

    def test_key_space_is_five_ratings(self, setup):
        _params, _records, expected = setup
        assert set(expected) <= {1, 2, 3, 4, 5}

    def test_a_job_emits_one_pair_per_rating_value(self, setup):
        _params, records, expected = setup
        job, other = MRContext(), MRContext()
        map_ratings = histograms.make_map_ratings()
        for offset, line in records:
            map_ratings(job, offset, line)
        histograms.make_map_ratings()(other, *records[0])
        emitted = job.take()
        assert len(emitted) == sum(expected.values())
        assert len({id(pair) for pair in emitted}) == len(expected)
        # another job makes its own pairs
        first = other.take()[0]
        assert first == emitted[0] and first is not emitted[0]

    def test_combiner_variant_matches(self, setup):
        _params, records, expected = setup
        params = histograms.HistogramParams(n_movies=300, seed=3, hamr_combiner=True)
        result = histograms.run_ratings_hamr(fresh_env(), params, records)
        assert result.output == expected


class TestNaiveBayes:
    @pytest.fixture(scope="class")
    def setup(self):
        params = naive_bayes.NaiveBayesParams(n_documents=120, seed=4)
        records = naive_bayes.generate_input(params)
        return params, records, naive_bayes.reference(records)

    def test_hamr(self, setup):
        params, records, expected = setup
        result = naive_bayes.run_hamr(fresh_env(), params, records)
        assert result.output == expected

    def test_hadoop(self, setup):
        params, records, expected = setup
        result = naive_bayes.run_hadoop(fresh_env(), params, records)
        assert result.output == expected

    def test_label_totals_present(self, setup):
        _params, records, expected = setup
        labels = {k for k in expected if isinstance(k, tuple) and k[0] == "label"}
        assert len(labels) >= 2
        # label totals equal the total word mass of their documents
        total_words = sum(expected[k] for k in labels)
        assert total_words == 120 * 50
