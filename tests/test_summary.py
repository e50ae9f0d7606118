"""RunSummary: a run's result, derived once and read by every consumer.

Over the 16 tiny-fleet runs: the bench-entry codec is a fixpoint, a live
tracer and its replayed journal summarize identically, and the doctor
hands its critical paths to the summary instead of building them twice.
"""

import importlib
import sys
from dataclasses import replace

import pytest

from repro.obs.doctor import diagnose
from repro.obs.replay import replay_records
from repro.obs.runspec import ENGINES, RunSpec
from repro.obs.summary import RunSummary


def _live(tiny_fleet):
    """``(spec, tracer, makespan, journal)`` of every tiny-fleet run."""
    for name, row in tiny_fleet.items():
        yield RunSpec(name, "hamr"), row.hamr_obs, row.hamr_seconds, row.hamr_journal
        yield RunSpec(name, "hadoop"), row.hadoop_obs, row.idh_seconds, row.hadoop_journal


@pytest.fixture(scope="module")
def replayed(tiny_fleet):
    return {
        spec: replay_records(journal.records)
        for spec, _tracer, _makespan, journal in _live(tiny_fleet)
    }


def test_entry_codec_is_a_fixpoint(tiny_fleet):
    for spec, tracer, makespan, _journal in _live(tiny_fleet):
        summary = RunSummary.from_tracer(spec, tracer, makespan)
        decoded = RunSummary.from_entry(spec.workload, spec.engine, summary.entry())
        # an entry carries no per-node timeline: the one field it drops
        assert summary.straggler is not None
        assert decoded == replace(summary, straggler=None)
        assert decoded.entry() == summary.entry()
        assert RunSummary.from_entry(spec.workload, spec.engine, decoded.entry()) == decoded


def test_live_tracer_and_replayed_journal_summarize_identically(tiny_fleet, replayed):
    for spec, tracer, makespan, _journal in _live(tiny_fleet):
        run = replayed[spec]
        assert run.spec == spec
        assert RunSummary.from_tracer(run.spec, run.tracer, run.makespan) == (
            RunSummary.from_tracer(spec, tracer, makespan)
        )


def test_blame_is_summed_over_every_job(tiny_fleet):
    multi_job = 0
    for spec, tracer, makespan, _journal in _live(tiny_fleet):
        summary = RunSummary.from_tracer(spec, tracer, makespan)
        ledger = tracer.blame
        multi_job += len(ledger.jobs()) > 1
        assert summary.blame_total == pytest.approx(ledger.grand_total(), abs=1e-5)
        for bucket, seconds in summary.blame.items():
            assert seconds == pytest.approx(ledger.bucket_total(bucket), abs=1e-5)
    assert multi_job >= 4  # pagerank x2, kcliques/hadoop, naive_bayes/hadoop


@pytest.fixture
def call_counts(monkeypatch):
    """Count calls of the two expensive per-run derivations, wherever a
    module bound them."""
    counts = {}
    for module_name, attr in (
        ("repro.obs.critpath", "critical_path"),
        ("repro.obs.telemetry", "build_skew_report"),
    ):
        original = getattr(importlib.import_module(module_name), attr)
        counts[attr] = 0

        def counted(*args, _original=original, _attr=attr, **kwargs):
            counts[_attr] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, attr, None) is original
            ):
                monkeypatch.setattr(module, attr, counted)
    return counts


def test_doctor_builds_each_path_and_skew_report_once_per_run(
    tiny_fleet, replayed, call_counts
):
    for name in tiny_fleet:
        run_a, run_b = (replayed[RunSpec(name, engine)] for engine in ENGINES)
        before = dict(call_counts)
        diagnose(run_a, run_b, f"{name}:hamr", f"{name}:hadoop")
        # one critical path and one skew report per side, as before the
        # summary existed
        assert {key: call_counts[key] - before[key] for key in call_counts} == {
            "critical_path": 2,
            "build_skew_report": 2,
        }
