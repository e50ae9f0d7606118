"""Tests for perf-history rows and sustained-shift detection."""

import json
from pathlib import Path

import pytest

from repro.evaluation.__main__ import main
from repro.obs.history import (
    DEFAULT_HISTORY_PATH,
    HISTORY_SCHEMA,
    TREND_SCHEMA,
    append_history,
    detect_shift,
    encode_row,
    history_row,
    load_history,
    render_trend,
    resolve_commit,
    series,
    trend_report,
)
from repro.obs.runspec import RunSpec

BENCH = "BENCH_obs.json"
WC_HAMR = RunSpec("wordcount", "hamr")


@pytest.fixture(scope="module")
def bench_payload():
    with open(BENCH) as fh:
        return json.load(fh)


def _synthetic_history(values, workload="wordcount", engine="hamr",
                       metric="virtual_seconds"):
    rows = []
    for i, value in enumerate(values):
        entry = {"virtual_seconds": 40.0, "wall_seconds": 1.0,
                 "stall_share": 0.6, "traffic_bytes": 5.0e10,
                 "host_shares": None}
        entry[metric] = value
        rows.append({
            "schema": HISTORY_SCHEMA, "bench_schema": "repro.obs.bench/v5",
            "fidelity": "small", "commit": f"c{i:02d}",
            "rows": {workload: {engine: entry}},
        })
    return rows


def _write(rows, path):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(encode_row(row) + "\n")


# -- rows ---------------------------------------------------------------------------


class TestHistoryRows:
    def test_row_from_committed_bench(self, bench_payload):
        row = history_row(bench_payload, commit="abc1234")
        assert row["schema"] == HISTORY_SCHEMA
        assert row["bench_schema"] == "repro.obs.bench/v5"
        assert row["commit"] == "abc1234"
        assert set(row["rows"]) == set(bench_payload["rows"])
        entry = row["rows"]["wordcount"]["hamr"]
        src = bench_payload["rows"]["wordcount"]["hamr"]
        assert entry["virtual_seconds"] == src["virtual_seconds"]
        assert entry["traffic_bytes"] == (
            src["telemetry"]["traffic"]["total_bytes"]
        )
        assert 0.0 <= entry["stall_share"] <= 1.0
        # the host clock lives in benchmarks/perf, not in history rows
        assert not {"wall_seconds", "host_shares"} & set(entry)

    def test_rejects_non_bench_payloads(self):
        with pytest.raises(ValueError, match="not a bench payload"):
            history_row({"schema": "something/else"})

    def test_append_load_round_trip(self, tmp_path, bench_payload):
        path = tmp_path / "hist.jsonl"
        row = history_row(bench_payload, commit="abc")
        append_history(row, str(path))
        append_history(row, str(path))  # append, never rewrite
        loaded = load_history(str(path))
        assert loaded == [row, row]

    def test_load_validates_schema_and_json(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text('{"schema": "wrong/v0"}\n')
        with pytest.raises(ValueError, match="unsupported history schema"):
            load_history(str(path))
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="malformed history row"):
            load_history(str(path))

    def test_series_skips_rows_missing_the_pair(self):
        rows = _synthetic_history([1.0, 2.0])
        rows.append({"schema": HISTORY_SCHEMA, "rows": {}})
        assert series(rows, WC_HAMR, "virtual_seconds") == [1.0, 2.0]

    def test_series_are_keyed_on_the_exchange_configuration(self):
        rows = _synthetic_history([1.0, 2.0])
        twolevel_row = _synthetic_history([9.0])[0]
        twolevel_row["rows"]["wordcount"]["hamr"]["fabric"] = "twolevel"
        rows.append(twolevel_row)
        # a twolevel run never pollutes the direct baseline's band...
        assert series(rows, WC_HAMR, "virtual_seconds") == [1.0, 2.0]
        # ...and trends as its own series
        twolevel = RunSpec("wordcount", "hamr", fabric="twolevel")
        assert series(rows, twolevel, "virtual_seconds") == [9.0]
        shard = _synthetic_history([7.0])[0]
        shard["rows"]["wordcount"]["hamr"]["partitioner"] = "shard"
        sharded = RunSpec("wordcount", "hamr", partitioner="shard")
        assert series([shard], sharded, "virtual_seconds") == [7.0]
        assert series([shard], WC_HAMR, "virtual_seconds") == []

    def test_legacy_entries_default_to_direct_hash(self):
        # pre-fabric rows (no fabric/partitioner keys) keep trending in
        # the default series
        rows = _synthetic_history([1.0])
        assert series(rows, WC_HAMR, "virtual_seconds") == [1.0]
        assert series(
            rows, RunSpec("wordcount", "hamr", fabric="twolevel"), "virtual_seconds"
        ) == []

    def test_series_label_is_a_doctor_spec(self):
        rows = []
        for fabric, partitioner in [(None, None), ("twolevel", None),
                                    ("twolevel", "shard"), (None, "shard")]:
            for row in _synthetic_history([1.0, 2.0]):
                entry = row["rows"]["wordcount"]["hamr"]
                if fabric:
                    entry["fabric"] = fabric
                if partitioner:
                    entry["partitioner"] = partitioner
                rows.append(row)
        text = render_trend(trend_report(rows))
        labels = [line.split()[0] for line in text.splitlines()[3:-2]]
        assert sorted(labels) == sorted([
            "wordcount:hamr", "wordcount:hamr@twolevel",
            "wordcount:hamr@twolevel+shard", "wordcount:hamr+shard",
        ])
        # each printed label selects exactly its own series
        for label in labels:
            assert series(rows, RunSpec.parse(label), "virtual_seconds") == [1.0, 2.0]

    def test_resolve_commit_prefers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_COMMIT", "deadbee")
        assert resolve_commit() == "deadbee"

    def test_committed_seed_history_loads(self):
        rows = load_history(DEFAULT_HISTORY_PATH)
        assert rows, "seed BENCH_history.jsonl is empty"
        assert all(r["schema"] == HISTORY_SCHEMA for r in rows)


# -- detection ----------------------------------------------------------------------


class TestDetectShift:
    def test_short_history_gives_no_verdict(self):
        assert detect_shift([1.0, 1.0, 1.0])["status"] == "SHORT"

    def test_stable_series_stays_stable(self):
        values = [41.2, 41.3, 41.1, 41.25, 41.2, 41.3, 41.15]
        verdict = detect_shift(values)
        assert verdict["status"] == "STABLE"
        assert verdict["latest"] == values[-1]

    def test_sustained_shift_reports_first_shifted_index(self):
        values = [41.2] * 8 + [55.0, 55.2]
        verdict = detect_shift(values)
        assert verdict["status"] == "SHIFT"
        assert verdict["index"] == 8
        assert verdict["direction"] == 1
        assert verdict["delta_pct"] > 30.0

    def test_single_outlier_is_not_sustained(self):
        values = [41.2] * 8 + [70.0] + [41.2] * 2
        assert detect_shift(values)["status"] == "STABLE"

    def test_downward_shift_has_negative_direction(self):
        values = [41.2] * 8 + [20.0, 20.1]
        verdict = detect_shift(values)
        assert verdict["status"] == "SHIFT"
        assert verdict["direction"] == -1

    def test_rel_floor_absorbs_byte_identical_noise(self):
        # zero MAD (byte-identical reruns): a 1% wiggle stays in band
        values = [100.0] * 8 + [101.0, 101.0]
        assert detect_shift(values)["status"] == "STABLE"
        values = [100.0] * 8 + [105.0, 105.0]
        assert detect_shift(values)["status"] == "SHIFT"

    def test_reference_freezes_at_streak_start(self):
        # the shifted rows must not creep into the reference and mask
        # the regression
        values = [41.2] * 8 + [55.0, 55.1, 55.0, 55.2]
        verdict = detect_shift(values)
        assert verdict["status"] == "SHIFT"
        assert verdict["index"] == 8
        assert verdict["median"] == 41.2


# -- reports ------------------------------------------------------------------------


class TestTrendReport:
    def test_report_counts_shifts(self):
        rows = _synthetic_history([41.2] * 8 + [55.0, 55.2])
        report = trend_report(rows)
        assert report["schema"] == TREND_SCHEMA
        assert report["rows_total"] == 10
        assert report["shifts"] == 1
        assert report["results"][0]["workload"] == "wordcount"

    def test_report_filters_pairs(self):
        rows = _synthetic_history([41.2] * 10)
        assert trend_report(rows, engines=["hadoop"])["results"] == []

    def test_render_prints_doctor_command_on_shift(self):
        rows = _synthetic_history([41.2] * 8 + [55.0, 55.2])
        text = render_trend(trend_report(rows), history_path="hist.jsonl")
        assert "SHIFT" in text
        assert "row 8" in text
        # the exact ready-to-run diagnosis command, series spec included
        assert (
            "python -m repro.evaluation doctor --shift wordcount:hamr "
            "--history hist.jsonl --metric virtual_seconds" in text
        )
        quiet = render_trend(trend_report(_synthetic_history([41.2] * 10)))
        assert "no sustained shifts" in quiet
        assert "doctor" not in quiet


# -- CLI ----------------------------------------------------------------------------


class TestTrendCLI:
    def test_shifted_history_fails_the_gate(self, tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        _write(_synthetic_history([41.2] * 8 + [55.0, 55.2]), path)
        assert main(["trend", str(path)]) == 0  # informational by default
        assert main(["trend", str(path), "--fail-on-shift"]) == 1
        assert "sustained shift" in capsys.readouterr().out

    def test_clean_prefix_passes_the_gate(self, tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        _write(_synthetic_history([41.2] * 7), path)
        assert main(["trend", str(path), "--fail-on-shift"]) == 0
        assert "no sustained shifts" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["trend", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_empty_history_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trend", str(path)]) == 2
        assert "no history rows" in capsys.readouterr().err

    def test_metric_and_knobs_flow_through(self, tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        _write(
            _synthetic_history([0.6] * 8 + [0.9, 0.9], metric="stall_share"),
            path,
        )
        rc = main(["trend", str(path), "--metric", "stall_share",
                   "--fail-on-shift"])
        assert rc == 1
        capsys.readouterr()
        # a taller band hides the same shift
        rc = main(["trend", str(path), "--metric", "stall_share",
                   "--mad-threshold", "1000000", "--fail-on-shift"])
        assert rc == 1  # rel_floor still flags 50% jumps
        capsys.readouterr()

    def test_json_payload(self, tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        _write(_synthetic_history([41.2] * 8 + [55.0, 55.2]), path)
        out = tmp_path / "trend.json"
        assert main(["trend", str(path), "--json", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["schema"] == TREND_SCHEMA
        assert payload["shifts"] == 1

    def test_window_bounds_the_scanned_rows(self, tmp_path, capsys):
        """--window N drops older rows: an ancient shift inside a stable
        recent window no longer trips the gate."""
        path = tmp_path / "hist.jsonl"
        # old regime at 41.2, then a sustained shift to 55.x
        _write(_synthetic_history([41.2] * 8 + [55.0, 55.2] * 4), path)
        assert main(["trend", str(path), "--fail-on-shift"]) == 1
        capsys.readouterr()
        # the last 8 rows are all post-shift: nothing to flag
        assert main(["trend", str(path), "--window", "8",
                     "--fail-on-shift"]) == 0
        out = capsys.readouterr().out
        assert "8 history rows" in out

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_non_positive_window_exits_2(self, tmp_path, capsys, bad):
        path = tmp_path / "hist.jsonl"
        _write(_synthetic_history([41.2] * 7), path)
        assert main(["trend", str(path), "--window", bad]) == 2
        assert "--window must be positive" in capsys.readouterr().err


# -- the committed legacy self-test history -----------------------------------------

LEGACY = Path(__file__).parent / "golden" / "history"
#: stable noise, then a sustained shift in the last two rows; the clean
#: history is the first seven
SELFTEST_VALUES = [41.2, 41.25, 41.2, 41.3, 41.15, 41.2, 41.25, 41.2, 55.0, 55.2]


def test_legacy_history_trends_as_the_default_series(tmp_path, capsys):
    """Rows written before fabrics were recorded (no fabric/partitioner keys)
    trend as the default series: the shift flags with a ready-to-run doctor
    command, the clean prefix stays quiet. CI runs `trend` on the same files."""
    for name, count in (("shifted", 10), ("clean", 7)):
        path = tmp_path / f"{name}.jsonl"
        for i, value in enumerate(SELFTEST_VALUES[:count]):
            append_history({
                "schema": HISTORY_SCHEMA, "bench_schema": "repro.obs.bench/v5",
                "fidelity": "small", "commit": f"c{i:02d}",
                "rows": {"wordcount": {"hamr": {
                    "virtual_seconds": value, "wall_seconds": 1.0,
                    "stall_share": 0.63, "traffic_bytes": 5.4e10,
                    "host_shares": None}}},
            }, str(path))
        assert path.read_bytes() == (LEGACY / f"{name}_history.jsonl").read_bytes()
    assert main(["trend", str(LEGACY / "shifted_history.jsonl"), "--fail-on-shift"]) == 1
    out = capsys.readouterr().out
    assert "wordcount:hamr                   SHIFT" in out
    assert "doctor --shift wordcount:hamr --history" in out
    assert main(["trend", str(LEGACY / "clean_history.jsonl"), "--fail-on-shift"]) == 0
    assert "no sustained shifts" in capsys.readouterr().out
