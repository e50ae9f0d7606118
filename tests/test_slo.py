"""Tests for the declarative SLO engine and its CLI gate."""

import copy
import json

import pytest

from repro.evaluation.__main__ import main
from repro.evaluation.runner import run_workload
from repro.evaluation.workloads import TABLE2_ORDER, workload_by_name
from repro.obs.slo import (
    DEFAULT_SLOS,
    SLO_SCHEMA,
    OBJECTIVES,
    SLOSpec,
    evaluate,
    evaluate_measures,
    load_slo_file,
    render_slo,
    slo_dict,
    spec_for,
)
from repro.obs.runspec import RunSpec
from repro.obs.summary import RunSummary

BENCH = "BENCH_obs.json"


def _evaluate_entry(workload, engine, entry):
    """The ``slo BENCH.json`` path: decode the bench entry, then evaluate."""
    return evaluate(RunSummary.from_entry(workload, engine, entry))


@pytest.fixture(scope="module")
def bench_payload():
    with open(BENCH) as fh:
        return json.load(fh)


# -- specs --------------------------------------------------------------------------


class TestSpecs:
    def test_defaults_cover_every_table2_pair(self):
        for name in TABLE2_ORDER:
            for engine in ("hamr", "hadoop"):
                spec = DEFAULT_SLOS[(name, engine)]
                assert spec.makespan_budget > 0
                assert 0 < spec.max_stall_share <= 1
                assert spec.traffic_ceiling > 0

    def test_unknown_pair_is_unbounded(self):
        assert spec_for("nope", "hamr") == SLOSpec()

    def test_overrides_wildcard_then_exact(self):
        overrides = {
            "*": {"makespan_budget": 10.0, "max_stall_share": 0.5},
            "wordcount:hamr": {"makespan_budget": 7.0},
        }
        spec = spec_for("wordcount", "hamr", overrides)
        assert spec.makespan_budget == 7.0  # exact wins
        assert spec.max_stall_share == 0.5  # wildcard applies
        other = spec_for("kmeans", "hamr", overrides)
        assert other.makespan_budget == 10.0

    def test_merged_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown SLO fields"):
            SLOSpec().merged({"latency_budget": 1.0})

    def test_load_slo_file_validates_shape(self, tmp_path):
        bad = tmp_path / "spec.json"
        bad.write_text('["not", "an", "object"]')
        with pytest.raises(ValueError, match="JSON object"):
            load_slo_file(str(bad))
        bad.write_text('{"wordcount:hamr": 3}')
        with pytest.raises(ValueError, match="must be an object"):
            load_slo_file(str(bad))


# -- evaluation ---------------------------------------------------------------------


class TestEvaluation:
    def test_stall_share_bounds(self):
        spec = RunSpec("wordcount", "hamr")
        assert RunSummary(spec, 1.0, {}, 0.0).stall_share == 0.0
        assert RunSummary(spec, 1.0, {"stall": 3.0}, 12.0).stall_share == 0.25

    def test_verdict_rows_cover_all_objectives(self):
        spec = SLOSpec(makespan_budget=10.0, max_stall_share=0.5)
        rows = evaluate_measures(
            spec, {"makespan": 11.0, "stall_share": 0.25, "traffic_bytes": 1.0}
        )
        assert [r["objective"] for r in rows] == list(OBJECTIVES)
        verdicts = {r["objective"]: r["verdict"] for r in rows}
        assert verdicts["makespan"] == "FAIL"  # over budget
        assert verdicts["stall_share"] == "PASS"
        assert verdicts["traffic_bytes"] == "n/a"  # unbounded
        assert verdicts["straggler_cv"] == "n/a"  # unmeasured

    def test_committed_baseline_meets_its_slos(self, bench_payload):
        for name, per_engine in bench_payload["rows"].items():
            for engine in ("hamr", "hadoop"):
                result = _evaluate_entry(name, engine, per_engine[engine])
                assert result["ok"], (name, engine, result["checks"])

    def test_artifact_straggler_cv_is_not_measurable(self, bench_payload):
        entry = bench_payload["rows"]["wordcount"]["hamr"]
        result = _evaluate_entry("wordcount", "hamr", entry)
        cv = [c for c in result["checks"] if c["objective"] == "straggler_cv"][0]
        assert cv["verdict"] == "n/a"
        assert cv["value"] is None

    def test_inflated_makespan_breaches(self, bench_payload):
        entry = copy.deepcopy(bench_payload["rows"]["wordcount"]["hamr"])
        entry["virtual_seconds"] *= 2.0
        result = _evaluate_entry("wordcount", "hamr", entry)
        assert not result["ok"]
        failed = [c["objective"] for c in result["checks"]
                  if c["verdict"] == "FAIL"]
        assert failed == ["makespan"]

    def test_live_tracer_measures_all_objectives(self):
        row = run_workload(
            workload_by_name("wordcount", "tiny"), engines="hamr", obs=True
        )
        result = evaluate(
            RunSummary.from_tracer(RunSpec("wordcount", "hamr"), row.hamr_obs, row.hamr_seconds)
        )
        values = {c["objective"]: c["value"] for c in result["checks"]}
        assert values["makespan"] == round(row.hamr_seconds, 6)
        assert values["straggler_cv"] is not None  # measurable live
        assert result["ok"], result["checks"]


# -- payload + rendering ------------------------------------------------------------


class TestRendering:
    def test_slo_dict_shape(self, bench_payload):
        entry = bench_payload["rows"]["wordcount"]["hamr"]
        results = [_evaluate_entry("wordcount", "hamr", entry)]
        payload = slo_dict(results, BENCH)
        assert payload["schema"] == SLO_SCHEMA
        assert payload["source"] == BENCH
        assert payload["ok"] is True

    def test_render_names_every_breached_pair(self, bench_payload):
        entry = copy.deepcopy(bench_payload["rows"]["wordcount"]["hamr"])
        entry["virtual_seconds"] *= 2.0
        text = render_slo([_evaluate_entry("wordcount", "hamr", entry)])
        assert "SLO BREACH: wordcount/hamr" in text
        good = render_slo(
            [_evaluate_entry("wordcount", "hamr",
                            bench_payload["rows"]["wordcount"]["hamr"])]
        )
        assert "all SLOs met" in good


# -- CLI ----------------------------------------------------------------------------


class TestSLOCLI:
    def test_committed_artifact_passes(self, capsys):
        assert main(["slo", BENCH]) == 0
        assert "all SLOs met" in capsys.readouterr().out

    def test_breached_artifact_exits_1(self, tmp_path, capsys, bench_payload):
        payload = copy.deepcopy(bench_payload)
        payload["rows"]["wordcount"]["hamr"]["virtual_seconds"] *= 2.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["slo", str(bad)]) == 1
        assert "SLO BREACH: wordcount/hamr" in capsys.readouterr().out

    def test_non_bench_artifact_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "something/else"}')
        assert main(["slo", str(bad)]) == 2
        assert "not a BENCH artifact" in capsys.readouterr().err

    def test_live_run_passes_defaults(self, capsys):
        rc = main(["slo", "wordcount", "hamr", "--fidelity", "tiny"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "all SLOs met" in out
        assert "straggler_cv" in out

    def test_live_run_breaches_tight_override(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"*": {"makespan_budget": 0.001}}))
        rc = main(["slo", "wordcount", "hamr", "--fidelity", "tiny",
                   "--slo-spec", str(spec)])
        assert rc == 1
        assert "SLO BREACH" in capsys.readouterr().out

    def test_unknown_workload_exits_2(self, capsys):
        assert main(["slo", "nope", "hamr"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_json_payload_round_trips(self, tmp_path, capsys):
        out = tmp_path / "slo.json"
        assert main(["slo", BENCH, "--json", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["schema"] == SLO_SCHEMA
        assert payload["ok"] is True
        assert len(payload["results"]) == 16  # 8 workloads x 2 engines
