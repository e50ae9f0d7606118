"""Tests for differential explain: root-cause attribution between runs."""

import json

import pytest

from repro.evaluation.workloads import workload_by_name
from repro.evaluation.runner import run_workload
from repro.obs.critpath import ROLLUP_KEYS, from_tracer
from repro.obs.explain import (
    EXPLAIN_SCHEMA,
    TAIL,
    ExplainSide,
    explain,
    render_explain,
    side_from_critpath,
    side_from_tracer,
)


def _side(name, makespan, buckets=None, operators=None, nodes=None):
    return ExplainSide(
        name=name,
        makespan=makespan,
        buckets=dict(buckets or {}),
        operators=dict(operators or {}),
        nodes=dict(nodes or {}),
    )


class TestRanking:
    def test_ranks_by_absolute_delta(self):
        a = _side("a", 10.0, buckets={"disk": 2.0, "compute": 5.0})
        b = _side("b", 16.0, buckets={"disk": 8.0, "compute": 4.0})
        result = explain(a, b)
        keys = [row[0] for row in result.rows["buckets"]]
        assert keys[0] == "disk"  # +6 beats -1
        assert result.top["buckets"] == "disk"
        disk_row = result.rows["buckets"][0]
        assert disk_row[1:4] == [2.0, 8.0, 6.0]
        assert disk_row[4] == pytest.approx(1.0)  # +6s of a +6s delta

    def test_ties_break_by_key(self):
        a = _side("a", 4.0, operators={"map*": 1.0, "reduce*": 1.0})
        b = _side("b", 6.0, operators={"map*": 2.0, "reduce*": 2.0})
        keys = [row[0] for row in explain(a, b).rows["operators"]]
        assert keys == ["map*", "reduce*"]

    def test_identical_sides_have_no_top(self):
        side = _side("x", 5.0, buckets={"disk": 1.0}, nodes={"n1": 5.0})
        result = explain(side, side)
        assert result.makespan_delta == 0.0
        assert result.top == {"buckets": None, "operators": None, "nodes": None}
        # zero makespan delta: shares degrade to 0, not a ZeroDivisionError
        assert all(row[4] == 0.0 for row in result.rows["buckets"])

    def test_keys_missing_on_one_side_count_from_zero(self):
        a = _side("a", 3.0, nodes={"n1": 3.0})
        b = _side("b", 5.0, nodes={"n2": 5.0})
        rows = {row[0]: row for row in explain(a, b).rows["nodes"]}
        assert rows["n1"][3] == -3.0
        assert rows["n2"][3] == 5.0


class TestSideExtraction:
    @pytest.fixture(scope="class")
    def traced_pair(self):
        row = run_workload(
            workload_by_name("wordcount", "tiny", seed=0), engines="both", obs=True
        )
        return row

    def test_side_from_tracer_profiles(self, traced_pair):
        side = side_from_tracer(traced_pair.hamr_obs, "wc:hamr")
        cp = from_tracer(traced_pair.hamr_obs)
        assert side.makespan == cp.makespan
        # buckets = full rollup + the off-path tail; never negative
        assert set(side.buckets) == set(ROLLUP_KEYS) | {TAIL}
        assert all(v >= 0.0 for v in side.buckets.values())
        assert sum(side.buckets.values()) == pytest.approx(cp.makespan)
        # operator and node seconds both sum to the on-path time
        assert sum(side.operators.values()) == pytest.approx(cp.path_seconds)
        assert sum(side.nodes.values()) == pytest.approx(cp.path_seconds)
        # digit runs are collapsed: no per-task cardinality explosion
        assert all("0" not in op and "1" not in op or "*" in op
                   for op in side.operators)

    def test_cross_engine_explain(self, traced_pair):
        a = side_from_tracer(traced_pair.hamr_obs, "wc:hamr")
        b = side_from_tracer(traced_pair.hadoop_obs, "wc:hadoop")
        result = explain(a, b)
        # hadoop is slower at tiny wordcount; something must explain it
        assert result.makespan_delta != 0.0
        assert result.top["buckets"] is not None
        assert result.top["operators"] is not None

    def test_deterministic(self, traced_pair):
        a = side_from_tracer(traced_pair.hamr_obs, "wc:hamr")
        b = side_from_tracer(traced_pair.hadoop_obs, "wc:hadoop")
        assert explain(a, b).to_json() == explain(a, b).to_json()

    def test_side_from_critpath_empty_trace(self):
        from repro.obs.critpath import critical_path

        cp = critical_path({}, [])
        side = side_from_critpath(cp, "empty")
        assert side.makespan == 0.0
        assert side.operators == {}


class TestSerialization:
    def test_to_dict_schema(self):
        a = _side("a", 10.0, buckets={"disk": 2.0})
        b = _side("b", 13.0, buckets={"disk": 5.0})
        payload = explain(a, b).to_dict()
        assert payload["schema"] == EXPLAIN_SCHEMA
        assert payload["makespan_delta"] == 3.0
        assert set(payload["dimensions"]) == {"buckets", "operators", "nodes"}
        bucket_dim = payload["dimensions"]["buckets"]
        assert bucket_dim["top"] == "disk"
        assert bucket_dim["rows"][0] == {
            "key": "disk", "a_seconds": 2.0, "b_seconds": 5.0,
            "delta": 3.0, "share": 1.0,
        }
        json.dumps(payload)  # JSON-serializable

    def test_render_smoke(self):
        a = _side("base", 10.0, buckets={"disk": 2.0}, operators={"map*": 2.0},
                  nodes={"n1": 2.0})
        b = _side("cand", 13.0, buckets={"disk": 5.0}, operators={"map*": 5.0},
                  nodes={"n1": 5.0})
        text = render_explain(explain(a, b))
        assert "== explain: A=base -> B=cand ==" in text
        assert "delta +3.000s" in text
        assert "root cause candidates" in text
        assert "disk" in text

    def test_render_identical_runs(self):
        side = _side("x", 5.0, buckets={"disk": 1.0})
        text = render_explain(explain(side, side))
        assert "(none — identical runs)" in text


class TestCli:
    def test_explain_spec_mode(self, capsys):
        from repro.evaluation.__main__ import main

        rc = main(["explain", "wordcount:hamr", "wordcount:hadoop",
                   "--fidelity", "tiny", "--json", "-"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == EXPLAIN_SCHEMA
        assert payload["a"]["engine"] == "hamr"
        assert payload["b"]["engine"] == "hadoop"
        assert payload["makespan_delta"] != 0.0

    def test_explain_bad_spec_exits_2(self, capsys):
        from repro.evaluation.__main__ import main

        assert main(["explain", "nope:hamr", "wordcount:hadoop"]) == 2
        assert main(["explain", "wordcount:hamr", "wordcount:spark"]) == 2
        assert main(["explain", "missing.journal.jsonl", "wordcount:hamr"]) == 2
        err = capsys.readouterr().err
        assert "error" in err

    def test_journal_replay_explain_pipeline(self, tmp_path, capsys):
        """Record, seed a 2x disk regression with whatif, explain: disk first."""
        from repro.evaluation.__main__ import main

        base = tmp_path / "base.jsonl"
        rc = main(["journal", "--workload", "wordcount", "--engine", "hamr",
                   "--fidelity", "tiny", "--out", str(base)])
        assert rc == 0 and base.exists()
        inflated = tmp_path / "inflated.jsonl"
        rc = main(["whatif", str(base), "--scenario", "disk=0.5",
                   "--emit-journal", str(inflated)])
        assert rc == 0 and inflated.exists()
        capsys.readouterr()
        rc = main(["explain", str(base), str(inflated), "--json", "-"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == EXPLAIN_SCHEMA
        assert payload["dimensions"]["buckets"]["top"] == "disk"
        top_row = payload["dimensions"]["buckets"]["rows"][0]
        assert top_row["key"] == "disk" and top_row["delta"] > 0
        assert payload["b"]["seeded_slowdown"] == {"bucket": "disk", "factor": 2.0}
        assert payload["makespan_delta"] > 0
