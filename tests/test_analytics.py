"""Tests for fleet analytics: corpus tables + dual-engine SQL.

The contract under test is threefold: the corpus index explodes into
relational tables with exactly the declared schemas, every canned query
returns *identical* rows from the flowlet compiler and the MapReduce
executor, and the MR SQL session honors the same registration rules as
the flowlet :class:`Catalog` (declared-schema empty tables included).
"""

import pytest

from repro.apps.base import AppEnv
from repro.cluster.spec import small_cluster_spec
from repro.evaluation.__main__ import main
from repro.obs.blame import BUCKETS
from repro.obs.corpus import ingest, save_corpus
from repro.obs.journal import encode_record, seed_bucket_slowdown
from repro.obs.analytics import (
    ANALYTICS_SCHEMA,
    CANNED_QUERIES,
    TABLE_COLUMNS,
    canonical_rows,
    corpus_tables,
    render_analytics,
    rows_match,
    run_analytics,
)
from repro.sql import Catalog, SQLError, SQLSession
from repro.sql.mr import MRSQLSession
from tests.conftest import journaled_run


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A two-run corpus (baseline + disk-seeded) with a saved index."""
    root = tmp_path_factory.mktemp("fleet")
    _, _, base = journaled_run(seed=0, commit="abc1234")
    base.save(str(root / "base.journal.jsonl"))
    seeded = seed_bucket_slowdown(base.records, "disk", 2.0)
    with open(root / "seeded.journal.jsonl", "w") as fh:
        for record in seeded:
            fh.write(encode_record(record) + "\n")
    index = root / "corpus.jsonl"
    rows, _ = ingest([str(root)], exclude=[str(index)])
    save_corpus(rows, str(index))
    return {"rows": rows, "index": str(index)}


MOVIES = [
    {"title": "Heat", "genre": "crime", "year": 1995, "rating": 8.3},
    {"title": "Ronin", "genre": "action", "year": 1998, "rating": 7.2},
    {"title": "Drive", "genre": "crime", "year": 2011, "rating": 7.8},
    {"title": "Sicario", "genre": "crime", "year": 2015, "rating": 7.6},
    {"title": "Mad Max", "genre": "action", "year": 2015, "rating": 8.1},
]


# -- table export -------------------------------------------------------------------


class TestCorpusTables:
    def test_tables_carry_exactly_the_declared_columns(self, corpus):
        tables = corpus_tables(corpus["rows"])
        assert set(tables) == set(TABLE_COLUMNS)
        for name, table in tables.items():
            for row in table:
                assert tuple(row.keys()) == TABLE_COLUMNS[name]

    def test_row_counts_follow_the_corpus(self, corpus):
        rows = corpus["rows"]
        tables = corpus_tables(rows)
        assert len(tables["runs"]) == len(rows)
        assert len(tables["blame"]) == len(rows) * len(BUCKETS)
        assert len(tables["traffic"]) == len(rows)
        assert tables["critpath"]  # every run charges something

    def test_blame_shares_sum_to_one_per_run(self, corpus):
        tables = corpus_tables(corpus["rows"])
        by_run = {}
        for row in tables["blame"]:
            by_run.setdefault(row["fingerprint"], 0.0)
            by_run[row["fingerprint"]] += row["share"]
        for total in by_run.values():
            assert total == pytest.approx(1.0, abs=1e-4)

    def test_seeded_flag_and_text_defaults(self, corpus):
        tables = corpus_tables(corpus["rows"])
        assert sorted(row["seeded"] for row in tables["runs"]) == [0, 1]
        assert all(row["commit"] == "abc1234" for row in tables["runs"])
        # None-ish string columns become "-": sortable, never None
        blank = corpus_tables([{"fingerprint": "ff" * 8}])
        assert blank["runs"][0]["workload"] == "-"
        assert blank["runs"][0]["nodes"] == 0


class TestRowComparison:
    def test_canonical_rows_round_floats_only(self):
        rows = canonical_rows([{"a": 1.23456789, "b": 7, "c": "x"}])
        assert rows == [{"a": 1.234568, "b": 7, "c": "x"}]

    def test_rows_match_tolerates_last_bit_floats(self):
        a = [{"v": 0.1 + 0.2}]
        assert rows_match(a, [{"v": 0.3}])
        assert not rows_match(a, [{"v": 0.31}])
        assert not rows_match(a, [])
        assert not rows_match(a, [{"w": 0.3}])
        assert not rows_match([{"v": "x"}], [{"v": "y"}])


# -- dual-engine execution ----------------------------------------------------------


class TestRunAnalytics:
    @pytest.fixture(scope="class")
    def report(self, corpus):
        return run_analytics(corpus["rows"])

    def test_every_canned_query_matches_across_engines(self, report):
        assert report["schema"] == ANALYTICS_SCHEMA
        assert len(report["queries"]) == len(CANNED_QUERIES)
        for query in report["queries"]:
            assert query["match"], f"{query['name']} diverged across engines"
        assert report["all_match"]

    def test_queries_cost_virtual_time_on_both_engines(self, report):
        for query in report["queries"]:
            assert query["hamr_seconds"] > 0.0
            assert query["hadoop_seconds"] > 0.0

    def test_canned_queries_return_sensible_rows(self, report):
        by_name = {q["name"]: q for q in report["queries"]}
        fabric = by_name["fabric_traffic"]
        assert fabric["rows"][0]["fabric"] == "direct"
        assert fabric["rows"][0]["runs"] == 2
        makespans = by_name["makespan_by_engine"]
        assert makespans["rows"][0]["workload"] == "wordcount"
        slowest = by_name["slowest_runs"]
        # projection is ordered DESC: the seeded run leads
        assert slowest["rows"][0]["makespan"] >= slowest["rows"][-1]["makespan"]

    def test_query_subset_and_unknown_names(self, corpus):
        report = run_analytics(corpus["rows"], queries=["critpath_profile"])
        assert [q["name"] for q in report["queries"]] == ["critpath_profile"]
        with pytest.raises(ValueError, match="unknown analytics queries"):
            run_analytics(corpus["rows"], queries=["nope"])

    def test_render_is_deterministic_and_reports_the_verdict(self, report):
        text = render_analytics(report)
        assert text == render_analytics(report)
        assert "engines ok" in text
        assert "results identical" in text
        assert "fabric_traffic" in text


# -- the MapReduce SQL session ------------------------------------------------------


class TestMRSQLSession:
    @pytest.fixture()
    def envs(self):
        hamr_env = AppEnv(small_cluster_spec(num_workers=3))
        hadoop_env = AppEnv(small_cluster_spec(num_workers=3))
        catalog = Catalog()
        catalog.register("movies", MOVIES)
        flowlet = SQLSession(hamr_env.hamr, catalog)
        mr = MRSQLSession(hadoop_env)
        mr.register("movies", MOVIES)
        return flowlet, mr

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT genre, COUNT(*) AS n, AVG(rating) AS avg_rating "
            "FROM movies GROUP BY genre ORDER BY genre",
            "SELECT genre, MAX(rating) AS best FROM movies "
            "WHERE year > 1996 GROUP BY genre HAVING best > 7.5 ORDER BY genre",
            "SELECT title, rating FROM movies WHERE rating > 7.5 "
            "ORDER BY rating DESC LIMIT 2",
            "SELECT COUNT(*) AS n, SUM(rating) AS total FROM movies",
        ],
    )
    def test_mr_results_equal_flowlet_results(self, envs, sql):
        flowlet, mr = envs
        res_a, res_b = flowlet.run(sql), mr.run(sql)
        assert res_a.names == res_b.names
        assert rows_match(canonical_rows(res_a.rows), canonical_rows(res_b.rows))

    def test_repeated_queries_get_fresh_output_files(self, envs):
        _flowlet, mr = envs
        sql = "SELECT title FROM movies WHERE year = 2015 ORDER BY title"
        first = mr.run(sql)
        second = mr.run(sql)  # DFS is write-once: would crash without _seq
        assert first.rows == second.rows

    def test_join_is_rejected_on_the_mr_path(self, envs):
        _flowlet, mr = envs
        mr.register("genres", [{"genre": "crime", "boost": 1.0}])
        with pytest.raises(SQLError, match="JOIN queries are not supported"):
            mr.run(
                "SELECT movies.title FROM movies JOIN genres "
                "ON movies.genre = genres.genre"
            )

    def test_register_mirrors_catalog_validation(self):
        mr = MRSQLSession(AppEnv(small_cluster_spec(num_workers=3)))
        with pytest.raises(SQLError, match="has no rows"):
            mr.register("empty", [])
        with pytest.raises(SQLError, match="columns are empty"):
            mr.register("empty", [], columns=())
        with pytest.raises(SQLError, match="columns differ"):
            mr.register("ragged", [{"a": 1}, {"b": 2}])
        mr.register("declared", [], columns=("a", "b"))
        assert mr.columns("declared") == ("a", "b")
        result = mr.run("SELECT a FROM declared")
        assert result.rows == []

    def test_unknown_table_raises(self):
        mr = MRSQLSession(AppEnv(small_cluster_spec(num_workers=3)))
        with pytest.raises(SQLError, match="unknown table"):
            mr.run("SELECT x FROM ghost")
        with pytest.raises(SQLError, match="unknown table"):
            mr.columns("ghost")


# -- CLI ----------------------------------------------------------------------------


class TestAnalyticsCLI:
    def test_end_to_end_over_the_index(self, corpus, capsys):
        assert main(["analytics", "--index", corpus["index"]]) == 0
        out = capsys.readouterr().out
        assert "obs-analytics over 2 corpus run(s)" in out
        assert "results identical" in out

    def test_where_filter_narrows_the_fleet(self, corpus, capsys):
        rc = main([
            "analytics", "--index", corpus["index"],
            "--where", "seeded_slowdown=",
        ])
        assert rc == 0
        assert "over 1 corpus run(s)" in capsys.readouterr().out

    def test_empty_selection_exits_2(self, corpus, capsys):
        rc = main([
            "analytics", "--index", corpus["index"],
            "--where", "engine=hadoop",
        ])
        assert rc == 2
        assert "no matching runs" in capsys.readouterr().err

    def test_bad_worker_count_exits_2(self, corpus, capsys):
        assert main(
            ["analytics", "--index", corpus["index"], "--workers", "0"]
        ) == 2
        assert "workers" in capsys.readouterr().err
