"""Tests for differential profiling and the perf-regression gate CLI."""

import json

import pytest

from repro.evaluation.__main__ import main as evaluation_main
from repro.obs.diff import (
    ArtifactError,
    diff_artifacts,
    load_artifact,
    normalize,
    render_diff,
)
from repro.obs.summary import RunSummary


def _bench_artifact(wordcount_hamr=45.017, extra_workload=None):
    rows = {
        "wordcount": {
            "data_size": "1 GB",
            "speedup": 1.15,
            "hamr": {
                "virtual_seconds": wordcount_hamr,
                "blame": {"compute": 30.0, "disk": 10.0},
                "critpath": {"compute": 25.0, "disk": 8.0},
            },
            "hadoop": {
                "virtual_seconds": 51.984,
                "blame": {"compute": 20.0, "disk": 25.0},
                "critpath": {"compute": 15.0, "disk": 20.0},
            },
        },
    }
    if extra_workload:
        rows[extra_workload] = {
            "data_size": "1 GB",
            "speedup": None,
            "hamr": {"virtual_seconds": 1.0, "blame": {}, "critpath": {}},
        }
    return {"schema": "repro.obs.bench/v2", "fidelity": "tiny", "rows": rows}


def _bench_artifact_v4(shuffle_bytes=1000.0, total_bytes=1500.0):
    """A schema-v4 artifact carrying telemetry traffic totals."""
    doc = _bench_artifact()
    doc["schema"] = "repro.obs.bench/v4"
    for engine in ("hamr", "hadoop"):
        doc["rows"]["wordcount"][engine]["telemetry"] = {
            "traffic": {
                "total_bytes": total_bytes,
                "remote_bytes": total_bytes * 0.6,
                "shuffle_bytes": shuffle_bytes,
                "local_bytes": total_bytes - shuffle_bytes,
                "broadcast_bytes": 0.0,
                "payloads": 40.0,
                "records": 900.0,
            }
        }
    return doc


class TestNormalize:
    def test_bench_schema(self):
        norm = normalize(_bench_artifact())
        rec = norm["wordcount"]["hamr"]
        assert isinstance(rec, RunSummary)
        assert rec.makespan == 45.017
        assert rec.blame["disk"] == 10.0
        assert rec.critpath["compute"] == 25.0

    def test_report_schema(self):
        artifact = {
            "schema": "repro.obs.report/v2",
            "workload": "wordcount",
            "engines": {
                "hamr": {
                    "virtual_end": 45.0,
                    "blame": {
                        "wordcount": {"buckets": {"compute": 30.0, "disk": 10.0}},
                        "wordcount#2": {"buckets": {"compute": 5.0}},
                    },
                    "critpath": {"rollup": {"compute": 20.0}},
                }
            },
        }
        rec = normalize(artifact)["wordcount"]["hamr"]
        assert rec.makespan == 45.0
        assert rec.blame["compute"] == 35.0  # jobs sum
        assert rec.critpath == {"compute": 20.0}

    def test_unknown_schema_raises(self):
        with pytest.raises(ArtifactError, match="unrecognized schema"):
            normalize({"schema": "repro.obs.nonsense/v9"}, source="x.json")

    def test_bench_rows_key_by_the_full_run_identity(self):
        # a `bench_obs.py --partitioner shard` artifact never gates against
        # the hash baseline
        with open("BENCH_obs.json") as fh:
            sharded = json.load(fh)
        for row in sharded["rows"].values():
            for engine in ("hamr", "hadoop"):
                row[engine]["partitioner"] = "shard"
        assert {
            key for engines in normalize(sharded).values() for key in engines
        } == {"hamr+shard", "hadoop+shard"}
        result = diff_artifacts(load_artifact("BENCH_obs.json"), normalize(sharded))
        assert not any(result.rows.values()) and result.ok

    @pytest.mark.parametrize(
        "stamp,key",
        [({}, "hamr"), ({"fabric": "twolevel"}, "hamr@twolevel"),
         ({"partitioner": "shard"}, "hamr+shard"),
         ({"fabric": "rdma", "partitioner": "shard"}, "hamr@rdma+shard")],
    )
    def test_report_documents_key_by_their_stamp(self, stamp, key):
        artifact = {
            "schema": "repro.obs.report/v2",
            "workload": "wordcount",
            "engines": {"hamr": {"virtual_end": 45.0}},
            **stamp,
        }
        assert list(normalize(artifact)["wordcount"]) == [key]


class TestDiff:
    def test_identical_artifacts_are_ok(self):
        a = normalize(_bench_artifact())
        result = diff_artifacts(a, normalize(_bench_artifact()))
        assert result.ok
        assert result.drift == []
        row = result.rows["wordcount"]["hamr"]
        assert row["rel_delta"] == 0.0
        assert not row["drift"]

    def test_drift_beyond_tolerance(self):
        a = normalize(_bench_artifact())
        b = normalize(_bench_artifact(wordcount_hamr=45.017 * 1.2))
        result = diff_artifacts(a, b, tolerance=0.05)
        assert not result.ok
        assert result.drift == ["wordcount/hamr"]
        assert result.rows["wordcount"]["hamr"]["rel_delta"] == pytest.approx(0.2)
        # hadoop side unchanged
        assert not result.rows["wordcount"]["hadoop"]["drift"]

    def test_drift_within_tolerance_is_ok(self):
        a = normalize(_bench_artifact())
        b = normalize(_bench_artifact(wordcount_hamr=45.017 * 1.004))
        assert diff_artifacts(a, b, tolerance=0.01).ok

    def test_only_a_only_b(self):
        a = normalize(_bench_artifact(extra_workload="kmeans"))
        b = normalize(_bench_artifact())
        result = diff_artifacts(a, b)
        assert result.only_a == ["kmeans"]
        assert result.only_b == []

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            diff_artifacts({}, {}, tolerance=-0.1)

    def test_to_json_is_deterministic(self):
        a = normalize(_bench_artifact())
        b = normalize(_bench_artifact(wordcount_hamr=50.0))
        one = diff_artifacts(a, b).to_json()
        two = diff_artifacts(
            normalize(_bench_artifact()), normalize(_bench_artifact(wordcount_hamr=50.0))
        ).to_json()
        assert one == two
        payload = json.loads(one)
        assert payload["schema"] == "repro.obs.diff/v1"

    def test_render_is_deterministic_and_verdicted(self):
        a = normalize(_bench_artifact())
        b = normalize(_bench_artifact(wordcount_hamr=60.0))
        result = diff_artifacts(a, b)
        text = render_diff(result, label_a="base", label_b="cand")
        assert text == render_diff(result, label_a="base", label_b="cand")
        assert "DRIFT" in text
        assert "verdict: DRIFT in wordcount/hamr" in text
        ok_text = render_diff(diff_artifacts(a, normalize(_bench_artifact())))
        assert "verdict: OK — within tolerance" in ok_text


class TestTrafficGating:
    def test_v4_traffic_parsed_into_record(self):
        rec = normalize(_bench_artifact_v4())["wordcount"]["hamr"]
        assert rec.traffic is not None
        assert rec.traffic["shuffle_bytes"] == 1000.0

    def test_v2_artifact_has_no_traffic_and_diffs_fine(self):
        rec = normalize(_bench_artifact())["wordcount"]["hamr"]
        assert rec.traffic is None
        result = diff_artifacts(
            normalize(_bench_artifact()), normalize(_bench_artifact())
        )
        assert result.ok
        assert "traffic_delta" not in result.rows["wordcount"]["hamr"]

    def test_identical_traffic_is_ok(self):
        a = normalize(_bench_artifact_v4())
        result = diff_artifacts(a, normalize(_bench_artifact_v4()))
        assert result.ok
        row = result.rows["wordcount"]["hamr"]
        assert row["traffic_drift"] == []
        assert all(rel == 0.0 for rel in row["traffic_delta"].values())

    def test_traffic_drift_gates_even_with_stable_makespan(self):
        a = normalize(_bench_artifact_v4(shuffle_bytes=1000.0))
        b = normalize(_bench_artifact_v4(shuffle_bytes=1200.0))
        result = diff_artifacts(a, b, tolerance=0.05)
        assert not result.ok
        assert "wordcount/hamr" in result.drift
        row = result.rows["wordcount"]["hamr"]
        # makespan itself did not move — traffic alone trips the gate
        assert row["rel_delta"] == 0.0
        assert row["drift"] is True
        assert "shuffle_bytes" in row["traffic_drift"]
        assert "local_bytes" in row["traffic_drift"]
        assert row["traffic_delta"]["shuffle_bytes"] == pytest.approx(0.2)

    def test_traffic_within_tolerance_is_ok(self):
        a = normalize(_bench_artifact_v4(shuffle_bytes=1000.0))
        b = normalize(_bench_artifact_v4(shuffle_bytes=1004.0, total_bytes=1504.0))
        assert diff_artifacts(a, b, tolerance=0.01).ok

    def test_traffic_from_zero_reports_inf(self):
        a = normalize(_bench_artifact_v4(shuffle_bytes=0.0))
        b = normalize(_bench_artifact_v4(shuffle_bytes=50.0))
        result = diff_artifacts(a, b, tolerance=0.05)
        row = result.rows["wordcount"]["hamr"]
        assert row["traffic_delta"]["shuffle_bytes"] == float("inf")
        assert not result.ok

    def test_render_includes_traffic_table(self):
        a = normalize(_bench_artifact_v4(shuffle_bytes=1000.0))
        b = normalize(_bench_artifact_v4(shuffle_bytes=1300.0))
        text = render_diff(diff_artifacts(a, b, tolerance=0.05))
        assert "Traffic deltas" in text
        assert "shuffle_bytes" in text
        ok_text = render_diff(
            diff_artifacts(a, normalize(_bench_artifact_v4(shuffle_bytes=1000.0)))
        )
        assert "Traffic deltas" in ok_text
        assert "(unchanged)" in ok_text


class TestCli:
    @pytest.fixture()
    def artifacts(self, tmp_path):
        base = tmp_path / "base.json"
        same = tmp_path / "same.json"
        slow = tmp_path / "slow.json"
        base.write_text(json.dumps(_bench_artifact()))
        same.write_text(json.dumps(_bench_artifact()))
        slow.write_text(json.dumps(_bench_artifact(wordcount_hamr=60.0)))
        return base, same, slow

    def test_ok_exit_zero(self, artifacts, capsys):
        base, same, _ = artifacts
        rc = evaluation_main(["diff", str(base), str(same), "--fail-on-drift"])
        assert rc == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_drift_without_gate_still_exits_zero(self, artifacts, capsys):
        base, _, slow = artifacts
        rc = evaluation_main(["diff", str(base), str(slow)])
        assert rc == 0
        assert "DRIFT" in capsys.readouterr().out

    def test_drift_with_gate_exits_nonzero(self, artifacts, tmp_path, capsys):
        base, _, slow = artifacts
        delta = tmp_path / "delta.json"
        rc = evaluation_main(
            ["diff", str(base), str(slow), "--fail-on-drift", "--json", str(delta)]
        )
        assert rc == 1
        payload = json.loads(delta.read_text())
        assert payload["ok"] is False
        assert payload["drift"] == ["wordcount/hamr"]
        capsys.readouterr()

    def test_missing_paths_errors(self, artifacts):
        base, _, _ = artifacts
        with pytest.raises(SystemExit):
            evaluation_main(["diff", str(base)])

    def test_load_artifact_rejects_bad_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope/v1"}))
        with pytest.raises(ArtifactError):
            load_artifact(str(bad))


def _load_bench_obs(module_name):
    """Import benchmarks/bench_obs.py without putting benchmarks/ on sys.path."""
    import importlib.util
    import pathlib
    import sys

    bench_path = (
        pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "bench_obs.py"
    )
    spec = importlib.util.spec_from_file_location(module_name, bench_path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_committed_artifact_blame_buckets_sum_to_ledger_total():
    """The bucket-sum invariant over BENCH_obs.json; the perf gate's ``cmp``
    extends it to every regenerated candidate."""
    doc = json.loads(open("BENCH_obs.json").read())
    entries = [row[e] for row in doc["rows"].values() for e in ("hamr", "hadoop") if e in row]
    assert len(entries) == 16
    for entry in entries:
        # buckets and total are independently rounded to 6 decimals: up to
        # 0.5e-6 per bucket plus the total
        assert abs(sum(entry["blame"].values()) - entry["blame_total"]) < 5e-6


def test_synthetic_slowdown_trips_gate(tmp_path, capsys):
    """A 20 % slower wordcount in a copy of the committed artifact fails the gate."""
    doc = json.loads(open("BENCH_obs.json").read())
    for engine in ("hamr", "hadoop"):
        doc["rows"]["wordcount"][engine]["virtual_seconds"] *= 1.2
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps(doc))
    rc = evaluation_main(
        ["diff", "BENCH_obs.json", str(slow), "--tolerance", "0.05", "--fail-on-drift"]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "+20.000%" in out
    assert "verdict: DRIFT in wordcount/hadoop, wordcount/hamr" in out


def test_identical_runs_diff_byte_identical(tmp_path, capsys):
    """Two independent bench runs write byte-identical artifacts: the
    artifact holds the virtual clock only, so nothing is masked."""
    import sys

    bench_obs = _load_bench_obs("bench_obs_det_test")
    try:
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["--fidelity", "tiny", "--workloads", "wordcount"]
        assert bench_obs.main(args + ["--out", str(a)]) == 0
        assert bench_obs.main(args + ["--out", str(b)]) == 0
    finally:
        sys.modules.pop("bench_obs_det_test", None)

    assert a.read_bytes() == b.read_bytes()
    rc = evaluation_main(["diff", str(a), str(b), "--tolerance", "0", "--fail-on-drift"])
    assert rc == 0
    assert "verdict: OK" in capsys.readouterr().out


def test_bench_blame_covers_every_job(tmp_path):
    """A multi-job run's bench entry blames the whole run, as its corpus
    row does — not just the first job (Hadoop NaiveBayes runs two)."""
    import sys

    from repro.obs.corpus import summarize_journal
    from repro.obs.replay import replay_file

    bench_obs = _load_bench_obs("bench_obs_blame_test")
    try:
        stem = str(tmp_path / "nb")
        entry = bench_obs.run_row("naive_bayes", "tiny", journal_stem=stem)["hadoop"]
    finally:
        sys.modules.pop("bench_obs_blame_test", None)

    journal = f"{stem}.naive_bayes.hadoop.journal.jsonl"
    ledger = replay_file(journal).tracer.blame
    assert len(ledger.jobs()) == 2
    assert entry["blame_total"] == round(ledger.grand_total(), 6)
    assert entry["blame"] == summarize_journal(journal)["blame"]
