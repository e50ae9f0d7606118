"""Tests for the regression doctor.

The load-bearing property is the seeded self-test: a journal dilated
with ``seed_bucket_slowdown`` bucket charges must come back from
``diagnose`` with the injected bucket ranked #1 at HIGH confidence, a
delta matching the injected time, and a counter-scenario that recovers
the injected factor. Everything else (spec resolution, shift
consumption, rendering) hangs off the corpus index.
"""

import json
import re
import shlex

import pytest

from repro.apps import wordcount
from repro.apps.base import AppEnv
from repro.cluster.spec import small_cluster_spec
from repro.evaluation.__main__ import main
from repro.obs.corpus import ingest, save_corpus
from repro.obs.doctor import (
    DOCTOR_SCHEMA,
    HIGH,
    DoctorError,
    diagnose,
    locate_journal,
    render_doctor,
    resolve_shift,
    resolve_spec,
)
from repro.obs.history import HISTORY_SCHEMA
from repro.obs.journal import JournalWriter, encode_record, seed_bucket_slowdown
from repro.obs.replay import replay_file

FACTOR = 2.0


def _journaled_run(seed=0, workload="wordcount"):
    params = wordcount.WordCountParams(target_bytes=50_000, seed=seed)
    records = wordcount.generate_input(params)
    writer = JournalWriter()
    writer.write_header(
        workload=workload, label="WordCount", data_size="16GB",
        engine="hamr", commit="abc1234",
    )
    env = AppEnv(small_cluster_spec(num_workers=3), obs=True, journal=writer)
    result = wordcount.run_hamr(env, params, records)
    trace = env.cluster.trace.summary()
    writer.write_footer(
        makespan=result.makespan,
        virtual_end=env.cluster.sim.now,
        trace_records=trace["records"],
        trace_dropped=trace["dropped"],
    )
    return writer


@pytest.fixture(scope="module")
def doctor_dir(tmp_path_factory):
    """Baseline + disk-seeded regression + an unrelated run, indexed."""
    root = tmp_path_factory.mktemp("doctor")
    base = _journaled_run(seed=0)
    base.save(str(root / "base.journal.jsonl"))
    seeded = seed_bucket_slowdown(base.records, "disk", FACTOR)
    with open(root / "seeded.journal.jsonl", "w") as fh:
        for record in seeded:
            fh.write(encode_record(record) + "\n")
    _journaled_run(seed=1, workload="terasort").save(
        str(root / "terasort.journal.jsonl")
    )
    index = root / "corpus.jsonl"
    rows, _ = ingest([str(root)], exclude=[str(index)])
    save_corpus(rows, str(index))
    return {"root": root, "index": str(index), "rows": rows}


@pytest.fixture(scope="module")
def seeded_report(doctor_dir):
    root = doctor_dir["root"]
    run_a = replay_file(str(root / "base.journal.jsonl"))
    run_b = replay_file(str(root / "seeded.journal.jsonl"))
    return diagnose(run_a, run_b, "base", "seeded")


# -- the seeded self-test -----------------------------------------------------------


class TestSeededSelfTest:
    def test_injected_bucket_ranks_first_at_high_confidence(self, seeded_report):
        top = seeded_report.verdicts[0]
        assert top["bucket"] == "disk"
        assert top["confidence"] == HIGH
        assert any("seeded-slowdown" in note for note in top["notes"])

    def test_top_delta_matches_the_injected_time(self, seeded_report):
        top = seeded_report.verdicts[0]
        assert seeded_report.makespan_delta > 0
        assert top["delta"] == pytest.approx(
            seeded_report.makespan_delta, rel=0.05
        )

    def test_counter_scenario_recovers_the_injected_factor(
        self, seeded_report, doctor_dir, tmp_path, capsys
    ):
        # the command replays the *baseline* with the bucket at 1/F
        # speed (the exact, slow-down direction of record dilation):
        # running it reproduces the regressed makespan
        assert seeded_report.whatif is not None
        assert seeded_report.whatif.startswith(
            "python -m repro.evaluation whatif base --scenario disk="
        )
        match = re.search(r"disk=([0-9.]+)", seeded_report.whatif)
        assert float(match.group(1)) == pytest.approx(1.0 / FACTOR, rel=0.05)
        # run the printed command (run name "base" -> its journal) in-process
        argv = shlex.split(seeded_report.whatif)[3:]
        argv[1] = str(doctor_dir["root"] / "base.journal.jsonl")
        confirm = tmp_path / "whatif_confirm.json"
        assert main(argv + ["--json", str(confirm)]) == 0
        capsys.readouterr()
        predicted = json.loads(confirm.read_text())["scenarios"][0]["predicted"]
        assert predicted == pytest.approx(seeded_report.run_b["makespan"], rel=0.05)

    def test_audits_are_clean_and_identity_is_carried(self, seeded_report):
        assert seeded_report.audit_a["verdict"] == "OK"
        assert seeded_report.audit_b["verdict"] == "OK"
        assert seeded_report.run_a["workload"] == "wordcount"
        assert seeded_report.run_b["seeded_slowdown"] == {
            "bucket": "disk", "factor": FACTOR
        }

    def test_report_is_byte_deterministic_across_fresh_replays(self, doctor_dir):
        root = doctor_dir["root"]

        def fresh():
            return diagnose(
                replay_file(str(root / "base.journal.jsonl")),
                replay_file(str(root / "seeded.journal.jsonl")),
                "base", "seeded",
            )

        one, two = fresh(), fresh()
        assert render_doctor(one) == render_doctor(two)
        assert one.to_json() == two.to_json()

    def test_json_payload_shape(self, seeded_report):
        payload = seeded_report.to_dict()
        assert payload["schema"] == DOCTOR_SCHEMA
        assert payload["a"]["name"] == "base"
        assert payload["verdicts"][0]["bucket"] == "disk"
        assert json.loads(seeded_report.to_json()) == payload

    def test_render_mentions_verdict_and_counter_scenario(self, seeded_report):
        text = render_doctor(seeded_report)
        assert "ranked root-cause verdicts" in text
        assert "1. disk" in text
        assert "confidence HIGH" in text
        assert "counter-scenario: python -m repro.evaluation whatif" in text

    def test_identical_runs_produce_no_verdicts(self, doctor_dir):
        root = doctor_dir["root"]
        run = str(root / "base.journal.jsonl")
        report = diagnose(replay_file(run), replay_file(run), "a", "b")
        assert report.verdicts == []
        assert report.whatif is None
        assert "no bucket moved" in render_doctor(report)


# -- spec resolution ----------------------------------------------------------------


class TestSpecResolution:
    def test_parse_series_spec_defaults_and_overrides(self, doctor_dir):
        # an omitted suffix selects the direct/hash run; an explicit one
        # selects only the run configured that way
        rows = list(doctor_dir["rows"])
        default = next(r for r in rows if r["workload"] == "terasort")
        override = dict(default, fabric="twolevel", partitioner="shard",
                        path=str(doctor_dir["root"] / "seeded.journal.jsonl"))
        rows.append(override)
        index = doctor_dir["index"]
        assert resolve_spec(rows, "terasort:hamr", index) == default["path"]
        assert resolve_spec(rows, "terasort:hamr@direct+hash", index) == default["path"]
        assert resolve_spec(
            rows, "terasort:hamr@twolevel+shard", index
        ) == override["path"]
        with pytest.raises(DoctorError, match="no corpus row matches"):
            resolve_spec(rows, "terasort:hamr@twolevel", index)

    @pytest.mark.parametrize("bad", [
        "wordcount", ":hamr", "wordcount:spark",
        # suffixes out of order, empty, or naming no fabric/partitioner
        "wordcount:hamr+shard@twolevel", "wordcount:hamr@", "wordcount:hamr@bogus+",
        "wordcount:hamr+", "wordcount:hamr@bogus",
    ])
    def test_bad_series_specs_raise(self, bad):
        with pytest.raises(DoctorError, match="bad run selector"):
            resolve_spec([], bad, "")
        with pytest.raises(DoctorError, match="bad run selector"):
            resolve_shift([], [], bad)

    def test_paths_pass_through(self, doctor_dir):
        path = str(doctor_dir["root"] / "base.journal.jsonl")
        assert resolve_spec([], path, "") == path

    def test_fingerprint_prefix_resolves_to_the_journal(self, doctor_dir):
        rows, index = doctor_dir["rows"], doctor_dir["index"]
        row = rows[0]
        resolved = resolve_spec(rows, row["fingerprint"][:12], index)
        assert resolved == row["path"]

    def test_unknown_fingerprint_raises(self, doctor_dir):
        with pytest.raises(DoctorError, match="no corpus row matches"):
            resolve_spec(doctor_dir["rows"], "f" * 16, doctor_dir["index"])

    def test_unique_selector_resolves(self, doctor_dir):
        resolved = resolve_spec(
            doctor_dir["rows"], "terasort:hamr", doctor_dir["index"]
        )
        assert resolved.endswith("terasort.journal.jsonl")

    def test_ambiguous_selector_lists_candidates(self, doctor_dir):
        # base + seeded are both wordcount:hamr
        with pytest.raises(DoctorError, match="matches 2 corpus rows"):
            resolve_spec(doctor_dir["rows"], "wordcount:hamr", doctor_dir["index"])

    def test_locate_journal_rebases_against_the_index_dir(
        self, doctor_dir, tmp_path, monkeypatch
    ):
        row = dict(doctor_dir["rows"][0])
        row["path"] = "base.journal.jsonl"  # as if ingested with cwd inside
        assert locate_journal(row, doctor_dir["index"]) == str(
            doctor_dir["root"] / "base.journal.jsonl"
        )
        row["path"] = "gone.journal.jsonl"
        with pytest.raises(DoctorError, match="not found"):
            locate_journal(row, doctor_dir["index"])


# -- shift consumption --------------------------------------------------------------


def _history_for(doctor_dir):
    """Synthetic trend history whose latest rows sit at the seeded makespan."""
    rows = doctor_dir["rows"]
    base = next(r for r in rows if not r["seeded_slowdown"] and
                r["workload"] == "wordcount")
    seeded = next(r for r in rows if r["seeded_slowdown"])
    values = [base["makespan"]] * 8 + [seeded["makespan"]] * 2
    history = []
    for i, value in enumerate(values):
        history.append({
            "schema": HISTORY_SCHEMA, "commit": f"c{i:02d}",
            "rows": {"wordcount": {"hamr": {"virtual_seconds": value}}},
        })
    return history, base, seeded


class TestResolveShift:
    def test_shift_resolves_to_the_baseline_and_regressed_pair(self, doctor_dir):
        history, base, seeded = _history_for(doctor_dir)
        path_a, path_b, verdict = resolve_shift(
            history, doctor_dir["rows"], "wordcount:hamr",
            index_path=doctor_dir["index"],
        )
        assert path_a == base["path"]
        assert path_b == seeded["path"]
        assert verdict["status"] == "SHIFT"
        assert verdict["series"] == "wordcount:hamr"
        assert verdict["metric"] == "virtual_seconds"

    def test_stable_series_has_nothing_to_diagnose(self, doctor_dir):
        history, base, _seeded = _history_for(doctor_dir)
        for row in history:
            row["rows"]["wordcount"]["hamr"]["virtual_seconds"] = (
                base["makespan"]
            )
        with pytest.raises(DoctorError, match="no sustained shift"):
            resolve_shift(
                history, doctor_dir["rows"], "wordcount:hamr",
                index_path=doctor_dir["index"],
            )

    def test_series_absent_from_corpus_raises(self, doctor_dir):
        history, _base, _seeded = _history_for(doctor_dir)
        history = [
            {**row, "rows": {"pagerank": row["rows"]["wordcount"]}}
            for row in history
        ]
        with pytest.raises(DoctorError, match="no corpus rows match"):
            resolve_shift(
                history, doctor_dir["rows"], "pagerank:hamr",
                index_path=doctor_dir["index"],
            )


# -- CLI ----------------------------------------------------------------------------


class TestDoctorCLI:
    def test_two_paths_end_to_end(self, doctor_dir, capsys):
        root = doctor_dir["root"]
        rc = main([
            "doctor", str(root / "base.journal.jsonl"),
            str(root / "seeded.journal.jsonl"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1. disk" in out
        assert "confidence HIGH" in out
        assert "counter-scenario" in out

    def test_fingerprints_resolve_through_the_index(self, doctor_dir, capsys):
        rows = doctor_dir["rows"]
        base = next(r for r in rows if not r["seeded_slowdown"] and
                    r["workload"] == "wordcount")
        seeded = next(r for r in rows if r["seeded_slowdown"])
        rc = main([
            "doctor", base["fingerprint"][:12], seeded["fingerprint"][:12],
            "--index", doctor_dir["index"],
        ])
        assert rc == 0
        assert "1. disk" in capsys.readouterr().out

    def test_json_payload(self, doctor_dir, capsys):
        root = doctor_dir["root"]
        rc = main([
            "doctor", str(root / "base.journal.jsonl"),
            str(root / "seeded.journal.jsonl"), "--json", "-",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == DOCTOR_SCHEMA
        assert payload["verdicts"][0]["bucket"] == "disk"
        assert payload["verdicts"][0]["confidence"] == HIGH

    def test_shift_mode_end_to_end(self, doctor_dir, tmp_path, capsys):
        history, _base, _seeded = _history_for(doctor_dir)
        hist = tmp_path / "hist.jsonl"
        with open(hist, "w") as fh:
            for row in history:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        rc = main([
            "doctor", "wordcount:hamr", "--shift",
            "--history", str(hist), "--index", doctor_dir["index"],
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "shift: wordcount:hamr" in out
        assert "1. disk" in out

    def test_unresolvable_spec_exits_2(self, doctor_dir, capsys):
        rc = main([
            "doctor", "nope:hamr", "also-nope:hamr",
            "--index", doctor_dir["index"],
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_shift_takes_exactly_one_spec(self, doctor_dir):
        with pytest.raises(SystemExit) as exc:
            main(["doctor", "a:hamr", "b:hamr", "--shift"])
        assert exc.value.code == 2
