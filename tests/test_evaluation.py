"""Tests for the evaluation harness: workloads, runner, tables, figures,
report rendering, and the paper-number registry."""

import pytest

from repro.evaluation.paper import (
    FIG3A_BENCHMARKS,
    FIG3B_BENCHMARKS,
    PAPER_TABLE2,
    PAPER_TABLE3,
    SHAPE_BANDS,
)
from repro.evaluation.report import render_bars, render_table
from repro.evaluation.runner import BenchmarkRow, run_workload
from repro.evaluation.tables import table1, table3
from repro.evaluation.workloads import (
    TABLE2_ORDER,
    table2_workloads,
    workload_by_name,
)


class TestPaperNumbers:
    def test_table2_rows_complete(self):
        assert set(PAPER_TABLE2) == set(TABLE2_ORDER)
        assert len(PAPER_TABLE2) == 8
        # Table 2's rows, top to bottom
        assert TABLE2_ORDER == [
            "kmeans", "classification", "pagerank", "kcliques",
            "wordcount", "histogram_movies", "histogram_ratings", "naive_bayes",
        ]

    def test_speedups_match_published(self):
        # Table 2's speedup column, recomputed from the time columns.
        assert PAPER_TABLE2["kmeans"].speedup == pytest.approx(10.31, abs=0.01)
        assert PAPER_TABLE2["pagerank"].speedup == pytest.approx(13.61, abs=0.01)
        assert PAPER_TABLE2["histogram_ratings"].speedup == pytest.approx(0.26, abs=0.01)

    def test_table3_rows(self):
        assert PAPER_TABLE3["histogram_movies"].speedup == pytest.approx(1.79, abs=0.01)
        assert PAPER_TABLE3["histogram_ratings"].speedup == pytest.approx(0.31, abs=0.01)

    def test_figure_groups_partition_table2(self):
        assert sorted(FIG3A_BENCHMARKS + FIG3B_BENCHMARKS) == sorted(TABLE2_ORDER)

    def test_bands_cover_paper_values(self):
        for name, row in PAPER_TABLE2.items():
            lo, hi = SHAPE_BANDS[name]
            assert lo <= row.speedup <= hi, name


class TestWorkloads:
    def test_registry_complete(self):
        for name in TABLE2_ORDER:
            workload = workload_by_name(name, "tiny")
            assert workload.name == name
            assert workload.records
            assert workload.scale > 1
            paper = PAPER_TABLE2[name]
            assert (workload.label, workload.data_size) == (paper.benchmark, paper.data_size)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            workload_by_name("sorting")

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError):
            workload_by_name("wordcount", "galactic")

    def test_scale_reconstructs_modeled_size(self):
        workload = workload_by_name("wordcount", "tiny")
        assert workload.real_bytes * workload.scale == pytest.approx(
            workload.modeled_bytes, rel=1e-9
        )

    def test_spec_is_paper_cluster(self):
        workload = workload_by_name("wordcount", "tiny")
        spec = workload.spec()
        assert spec.num_nodes == 16
        assert spec.cost.scale == workload.scale


class TestRunner:
    def test_single_engine_run(self):
        workload = workload_by_name("wordcount", "tiny")
        row = run_workload(workload, engines="hamr")
        assert row.hamr_seconds > 0
        assert row.idh_seconds == 0.0
        assert row.paper is PAPER_TABLE2["wordcount"]

    def test_row_math(self):
        row = BenchmarkRow("wordcount", "WordCount", "16GB", 100.0, 50.0)
        assert row.speedup == 2.0
        assert row.in_shape_band  # 2.0 is inside (1.0, 2.5)


class TestTable1:
    def test_renders_paper_values(self):
        text = table1()
        assert "16" in text
        assert "32.0GB" in text
        assert "E5-2620" in text
        assert "InfiniBand" in text


class TestReportRendering:
    def test_render_table_aligns(self):
        text = render_table(
            ("Name", "Value"), [("alpha", 1.5), ("b", 22.25)], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert set(lines[2]) <= {"-", " "}  # separator row
        assert "alpha" in lines[3]
        assert "1.500" in lines[3]

    def test_render_table_empty(self):
        text = render_table(("A",), [])
        assert "A" in text

    def test_render_bars_marks_baseline(self):
        text = render_bars([("fast", 2.0), ("slow", 0.5)], baseline=1.0)
        assert "fast" in text and "slow" in text
        assert "#" in text
        assert "|" in text  # baseline marker on the short bar

    def test_render_bars_empty(self):
        assert render_bars([], title="empty") == "empty"

    def test_render_table_pads_ragged_rows(self):
        text = render_table(("A", "B"), [[], ["x"], ["x", "y", "extra"]])
        lines = text.splitlines()
        assert len(lines) == 5  # header, separator, three rows
        assert "extra" not in text  # cells beyond the headers are dropped

    def test_render_table_all_empty_rows(self):
        text = render_table(("A", "B"), [[], []])
        assert "A" in text and "B" in text

    def test_render_bars_all_zero(self):
        text = render_bars([("x", 0.0), ("y", 0.0)], baseline=None)
        assert "#" not in text
        assert "0.00" in text

    def test_render_bars_negative_values(self):
        text = render_bars([("neg", -3.0), ("pos", 2.0)])
        lines = text.splitlines()
        assert "#" not in lines[0]  # negative renders an empty bar
        assert "#" in lines[1]
        assert "-3.00" in lines[0]

    def test_render_bars_all_negative_no_baseline(self):
        text = render_bars([("a", -1.0), ("b", -2.0)], baseline=None)
        assert "#" not in text
        assert "-1.00" in text and "-2.00" in text


@pytest.mark.slow
class TestShapeReproduction:
    """The headline integration test: every Table 2 row lands in its
    shape band at the reference ("small") fidelity, and Table 3's combiner
    rows (against the same Hadoop baseline) keep the paper's claims.

    This is the E2-E5 acceptance criterion of DESIGN.md §4.
    """

    @pytest.fixture(scope="class")
    def rows(self):
        return [run_workload(w) for w in table2_workloads("small")]

    @pytest.fixture(scope="class")
    def table3_result(self, rows):
        return table3("small", baseline_rows=rows)

    def test_all_rows_in_band(self, rows):
        failures = []
        for row in rows:
            lo, hi = SHAPE_BANDS[row.name]
            if not lo <= row.speedup <= hi:
                failures.append(f"{row.name}: {row.speedup:.2f} not in [{lo}, {hi}]")
        assert not failures, "; ".join(failures)

    def test_figure3a_ordering(self, rows):
        # every 3(a) benchmark beats every 3(b) benchmark (the paper's split)
        fig3a = [r.speedup for r in rows if r.name in FIG3A_BENCHMARKS]
        fig3b = [r.speedup for r in rows if r.name in FIG3B_BENCHMARKS]
        assert min(fig3a) > max(fig3b)
        assert min(fig3a) >= 6.0  # "boosts at least 6x" (§5.2)

    def test_histogram_ratings_inverted(self, rows):
        row = next(r for r in rows if r.name == "histogram_ratings")
        assert row.speedup < 1.0  # Hadoop wins, as in the paper

    def test_combiner_does_not_flip_ratings(self, table3_result):
        # Table 3: Hadoop still wins HistogramRatings with the combiner on
        ratings = table3_result.row("histogram_ratings")
        assert ratings.speedup < 1.0
        assert ratings.paper is PAPER_TABLE3["histogram_ratings"]

    def test_combiner_movies_band(self, table3_result):
        assert 1.0 <= table3_result.row("histogram_movies").speedup <= 4.0

    def test_flow_control_or_contention_on_ratings(self, rows):
        row = next(r for r in rows if r.name == "histogram_ratings")
        metrics = row.hamr_result.metrics
        # the §5.2 pathology must actually be visible in the engine metrics
        assert metrics.get("flow_stalls", 0) > 0 or row.hamr_seconds > 2 * row.idh_seconds
