"""Tests for the live progress engine: frames, watchdog, non-perturbation.

The monitor must be provably one-way (a watched run's virtual outputs
byte-identical to an unwatched one), its frames byte-deterministic across
identical runs and journal replays, and its watchdog must trip on a
seeded slowdown while staying quiet on every clean Table 2 run.
"""

import json

import pytest

from repro.evaluation.__main__ import main
from repro.evaluation.obsreport import report_json
from repro.evaluation.runner import run_workload
from repro.evaluation.workloads import TABLE2_ORDER, workload_by_name
from repro.obs.journal import seed_bucket_slowdown
from repro.obs.live import (
    STATUS_BREACH,
    STATUS_DONE,
    STATUS_RUNNING,
    STATUS_STALLED,
    LiveMonitor,
    WatchConfig,
    render_frame,
    render_watch,
    watchdog_statuses,
)
from repro.obs.replay import replay_records
from repro.obs.slo import SLOSpec


def _watched_run(name="wordcount", engines="hamr", interval=5.0, window=300.0,
                 slo=None, journal=True):
    config = WatchConfig(interval=interval, window=window)
    if slo is not None:
        watch = lambda engine, tracer: LiveMonitor(  # noqa: E731
            tracer, config=config, slo=slo
        )
    else:
        watch = config
    return run_workload(
        workload_by_name(name, "tiny"), engines=engines,
        journal=journal, watch=watch,
    )


# -- watchdog fold ------------------------------------------------------------------


class TestWatchdogStatuses:
    def _frames(self, *tms_adv):
        return [{"tm": tm, "adv": adv} for tm, adv in tms_adv]

    def test_quiet_gap_past_window_stalls(self):
        frames = self._frames((10.0, True), (100.0, False), (400.0, False))
        watchdog_statuses(frames, window=300.0)
        assert [f["status"] for f in frames] == [
            STATUS_RUNNING, STATUS_RUNNING, STATUS_STALLED,
        ]

    def test_advance_resets_the_window(self):
        frames = self._frames((250.0, True), (500.0, True), (790.0, False))
        watchdog_statuses(frames, window=300.0)
        assert all(f["status"] == STATUS_RUNNING for f in frames)

    def test_run_start_counts_as_an_advance(self):
        frames = self._frames((299.0, False), (300.0, False))
        watchdog_statuses(frames, window=300.0)
        assert [f["status"] for f in frames] == [STATUS_RUNNING, STATUS_STALLED]

    def test_stall_verdict_uses_pre_advance_state(self):
        # the frame that finally advances still reports the stall that
        # preceded it — the advance only helps *later* frames
        frames = self._frames((350.0, True), (400.0, False))
        watchdog_statuses(frames, window=300.0)
        assert [f["status"] for f in frames] == [STATUS_STALLED, STATUS_RUNNING]

    def test_stalled_outranks_breach_and_done(self):
        frames = [{"tm": 500.0, "adv": False, "br": ["makespan"], "fin": True}]
        watchdog_statuses(frames, window=300.0)
        assert frames[0]["status"] == STATUS_STALLED

    def test_breach_outranks_done(self):
        frames = [{"tm": 10.0, "adv": True, "br": ["makespan"], "fin": True}]
        watchdog_statuses(frames, window=300.0)
        assert frames[0]["status"] == STATUS_BREACH

    def test_zero_window_disables_the_watchdog(self):
        frames = self._frames((1e9, False))
        watchdog_statuses(frames, window=0.0)
        assert frames[0]["status"] == STATUS_RUNNING


# -- monitor construction -----------------------------------------------------------


class TestMonitorConstruction:
    def test_requires_enabled_tracer(self):
        class Disabled:
            enabled = False

        with pytest.raises(ValueError, match="enabled tracer"):
            LiveMonitor(Disabled())

    def test_rejects_non_positive_interval(self):
        class Enabled:
            enabled = True
            journal = None

        with pytest.raises(ValueError, match="interval"):
            LiveMonitor(Enabled(), config=WatchConfig(interval=0.0))


# -- live runs ----------------------------------------------------------------------


class TestLiveFrames:
    def test_frames_cover_the_run_and_finish_done(self):
        row = _watched_run(engines="both", journal=None)
        for monitor in (row.hamr_watch, row.hadoop_watch):
            frames = monitor.frames
            assert frames, "no frames captured"
            assert frames[-1]["fin"] is True
            assert frames[-1]["frac"] == 1.0
            assert frames[-1]["status"] == STATUS_DONE
            assert monitor.status == STATUS_DONE
            assert monitor.stalled_frames() == 0
            # frame times are non-decreasing and interval-spaced
            tms = [f["tm"] for f in frames]
            assert tms == sorted(tms)

    def test_stage_fractions_monotone_and_complete(self):
        row = _watched_run(journal=None)
        frames = row.hamr_watch.frames
        seen = {}
        for frame in frames:
            for stage, (done, total) in frame["stages"].items():
                assert 0.0 <= done <= total
                assert done >= seen.get(stage, 0.0)  # done never regresses
                seen[stage] = done
        final = frames[-1]["stages"]
        assert final, "no stages declared"
        for stage, (done, total) in final.items():
            assert done == total, f"{stage} incomplete at the final frame"

    def test_frames_are_deterministic_across_identical_runs(self):
        a = _watched_run(journal=None).hamr_watch
        b = _watched_run(journal=None).hamr_watch
        assert json.dumps(a.frames, sort_keys=True) == json.dumps(
            b.frames, sort_keys=True
        )

    def test_watching_does_not_perturb_virtual_outputs(self):
        plain = run_workload(workload_by_name("wordcount", "tiny"),
                             engines="hamr", obs=True)
        watched = _watched_run(journal=None)
        assert watched.hamr_seconds == plain.hamr_seconds
        assert report_json(watched.hamr_obs, "wordcount", "hamr") == report_json(
            plain.hamr_obs, "wordcount", "hamr"
        )

    def test_render_frame_and_watch_are_pure(self):
        monitor = _watched_run(journal=None).hamr_watch
        before = json.dumps(monitor.frames, sort_keys=True)
        text = render_watch("WordCount (16GB) on hamr", monitor)
        assert "— watch ==" in text
        assert f"{len(monitor.frames)} frames" in text
        assert text.endswith(f"stalled frames: 0/{len(monitor.frames)}")
        for frame in monitor.frames:
            assert render_frame(frame) in text
        assert json.dumps(monitor.frames, sort_keys=True) == before


# -- journal round trip -------------------------------------------------------------


class TestJournaledFrames:
    def test_replay_recovers_config_and_frames_byte_identically(self):
        row = _watched_run()
        run = replay_records(row.hamr_journal.records)
        assert run.watch_config == {"interval": 5.0, "window": 300.0}
        assert json.dumps(run.frames, sort_keys=True) == json.dumps(
            row.hamr_watch.frames, sort_keys=True
        )

    def test_unwatched_journal_has_no_frames(self):
        row = run_workload(
            workload_by_name("wordcount", "tiny"), engines="hamr", journal=True
        )
        run = replay_records(row.hamr_journal.records)
        assert run.frames == []
        assert run.watch_config is None

    def test_seeded_slowdown_trips_the_watchdog(self):
        row = _watched_run()
        live_frames = row.hamr_watch.frames
        assert all(f["status"] != STATUS_STALLED for f in live_frames)
        records = seed_bucket_slowdown(row.hamr_journal.records, "disk", 50.0)
        dilated = [r for r in records if r.get("t") == "fr"]
        assert len(dilated) == len(live_frames)
        stalled = [f for f in dilated if f["status"] == STATUS_STALLED]
        assert stalled, "50x disk slowdown did not trip the 300s stall window"
        # the stall is flagged within one window of the dilated quiet gap:
        # every stalled frame really sat >= window past the last advance
        last_advance = 0.0
        for frame in dilated:
            if frame["status"] == STATUS_STALLED:
                assert frame["tm"] - last_advance >= 300.0
            if frame.get("adv"):
                last_advance = frame["tm"]

    def test_seeded_slowdown_recomputes_etas(self):
        row = _watched_run()
        records = seed_bucket_slowdown(row.hamr_journal.records, "disk", 50.0)
        for frame in (r for r in records if r.get("t") == "fr"):
            if frame["frac"] > 0:
                assert frame["eta"] == round(frame["tm"] / frame["frac"], 6)


# -- clean-run watchdog sweep -------------------------------------------------------


class TestCleanRunsNeverStall:
    @pytest.mark.parametrize("name", TABLE2_ORDER)
    def test_default_window_stays_quiet(self, name, tiny_fleet):
        # default interval/window (25s/300s), both engines, tiny fidelity:
        # a clean run must never flag STALLED or breach its default SLO
        row = tiny_fleet[name]
        for engine, monitor in (("hamr", row.hamr_watch),
                                ("hadoop", row.hadoop_watch)):
            statuses = [f["status"] for f in monitor.frames]
            assert STATUS_STALLED not in statuses, (name, engine, statuses)
            assert monitor.status == STATUS_DONE, (name, engine, statuses)


# -- live SLO escalation ------------------------------------------------------------


class TestLiveSLOEscalation:
    def test_breached_budget_escalates_frames(self):
        spec = SLOSpec(makespan_budget=1.0)  # impossible budget
        row = _watched_run(slo=spec, journal=None)
        frames = row.hamr_watch.frames
        assert all(f["status"] == STATUS_BREACH for f in frames)
        assert all(f["br"] == ["makespan"] for f in frames)

    def test_unbounded_spec_never_escalates(self):
        row = _watched_run(slo=SLOSpec(), journal=None)
        assert all("br" not in f for f in row.hamr_watch.frames)


# -- CLI ----------------------------------------------------------------------------


class TestWatchCLI:
    def test_unknown_workload_exits_2(self, capsys):
        assert main(["watch", "nope", "hamr"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_unknown_engine_exits_2(self, capsys):
        assert main(["watch", "wordcount", "nope"]) == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_non_positive_interval_exits_2(self, capsys):
        rc = main(["watch", "wordcount", "hamr", "--fidelity", "tiny",
                   "--interval", "0"])
        assert rc == 2
        assert "--interval" in capsys.readouterr().err

    def test_watch_renders_and_replays_byte_identically(self, tmp_path, capsys):
        journal = tmp_path / "w.jsonl"
        rc = main(["watch", "wordcount", "hamr", "--fidelity", "tiny",
                   "--interval", "5", "--out", str(journal)])
        assert rc == 0
        live = capsys.readouterr().out
        assert "— watch ==" in live
        rc = main(["replay", str(journal), "--view", "watch"])
        assert rc == 0
        assert capsys.readouterr().out == live

    def test_watch_json_matches_replay_json(self, tmp_path, capsys):
        journal = tmp_path / "w.jsonl"
        live_json = tmp_path / "live.json"
        replay_json = tmp_path / "replay.json"
        assert main(["watch", "wordcount", "hamr", "--fidelity", "tiny",
                     "--interval", "5", "--out", str(journal),
                     "--json", str(live_json)]) == 0
        assert main(["replay", str(journal), "--view", "watch",
                     "--json", str(replay_json)]) == 0
        capsys.readouterr()
        assert live_json.read_bytes() == replay_json.read_bytes()

    def test_replay_watch_view_needs_a_watched_journal(self, tmp_path, capsys):
        row = run_workload(
            workload_by_name("wordcount", "tiny"), engines="hamr", journal=True
        )
        path = tmp_path / "plain.jsonl"
        row.hamr_journal.save(str(path))
        assert main(["replay", str(path), "--view", "watch"]) == 2
        assert "live monitoring" in capsys.readouterr().err
