"""Tests for the observability subsystem: spans, metrics, blame, reports."""

import json

import pytest

from repro.apps import wordcount
from repro.apps.base import AppEnv
from repro.cluster import small_cluster_spec
from repro.evaluation.obsreport import (
    render_blame,
    render_counters,
    render_gantt,
    render_report,
    render_utilization,
    report_dict,
    report_json,
)
from repro.obs import (
    ATOMIC,
    BUCKETS,
    COMPUTE,
    DISK,
    NULL_SPAN,
    BlameLedger,
    MetricsRegistry,
    Tracer,
    assign_lanes,
)
from repro.sim import Simulator


def _tracer(enabled=True):
    return Tracer(Simulator(), enabled=enabled)


def _run_traced_wordcount(seed=0, target_bytes=50_000, profile=False):
    params = wordcount.WordCountParams(target_bytes=target_bytes, seed=seed)
    records = wordcount.generate_input(params)
    env = AppEnv(small_cluster_spec(num_workers=3), obs=True)
    if profile:
        from repro.obs.hostprof import HostProfiler, activation

        prof = HostProfiler()
        env.cluster.sim.attach(prof)
        with activation(prof):
            result = wordcount.run_hamr(env, params, records)
        return env, result, prof
    result = wordcount.run_hamr(env, params, records)
    return env, result


class TestSpans:
    def test_span_records_interval(self):
        tracer = _tracer()
        span = tracer.span("work", "task", node=1, job="j")
        tracer.sim.now = 2.5  # advance the virtual clock directly
        span.finish()
        assert span.start == 0.0
        assert span.end == 2.5
        assert span.duration == 2.5

    def test_child_inherits_attribution(self):
        tracer = _tracer()
        parent = tracer.span("outer", "task", node=3, job="j", flowlet="f")
        child = parent.child("inner")
        assert child.node == 3
        assert child.job == "j"
        assert child.flowlet == "f"
        assert child.cat == "task"
        assert child.parent_id == parent.span_id

    def test_context_manager_records_error_class(self):
        tracer = _tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom", "task") as span:
                raise ValueError("x")
        assert span.args["error"] == "ValueError"
        assert span.end is not None

    def test_double_finish_rejected(self):
        tracer = _tracer()
        span = tracer.span("w", "task").finish()
        with pytest.raises(ValueError):
            span.finish()

    def test_disabled_tracer_hands_out_null_span(self):
        tracer = _tracer(enabled=False)
        span = tracer.span("w", "task", node=1)
        assert span is NULL_SPAN
        assert span.child("c") is NULL_SPAN
        with span:
            pass
        assert tracer.spans == []

    def test_disabled_tracer_records_nothing(self):
        tracer = _tracer(enabled=False)
        tracer.count("c")
        tracer.charge("j", COMPUTE, 1.0)
        tracer.observe("h", 0.5)
        assert tracer.metrics.names() == []
        assert tracer.blame.jobs() == []

    def test_finished_spans_filters_by_cat(self):
        tracer = _tracer()
        tracer.span("a", "task").finish()
        tracer.span("b", "stall").finish()
        tracer.span("open", "task")  # never finished
        assert [s.name for s in tracer.finished_spans("task")] == ["a"]
        assert len(tracer.finished_spans()) == 2


class TestAssignLanes:
    def test_overlapping_spans_get_distinct_lanes(self):
        tracer = _tracer()
        a = tracer.span("a", "task", node=1)
        b = tracer.span("b", "task", node=1)
        tracer.sim.now = 1.0
        a.finish()
        b.finish()
        lanes = assign_lanes(tracer.finished_spans())
        assert lanes[a.span_id] != lanes[b.span_id]

    def test_sequential_spans_share_a_lane(self):
        tracer = _tracer()
        a = tracer.span("a", "task", node=1)
        tracer.sim.now = 1.0
        a.finish()
        b = tracer.span("b", "task", node=1)
        tracer.sim.now = 2.0
        b.finish()
        lanes = assign_lanes(tracer.finished_spans())
        assert lanes[a.span_id] == lanes[b.span_id]

    def test_nodes_do_not_share_lanes(self):
        tracer = _tracer()
        a = tracer.span("a", "task", node=1)
        b = tracer.span("b", "task", node=2)
        tracer.sim.now = 1.0
        a.finish()
        b.finish()
        lanes = assign_lanes(tracer.finished_spans())
        # each node starts its own lane numbering at 0
        assert lanes[a.span_id] == 0
        assert lanes[b.span_id] == 0


class TestMetrics:
    def test_counter_aggregation(self):
        reg = MetricsRegistry()
        reg.counter("reads", node=1).inc(2)
        reg.counter("reads", node=2).inc(3)
        reg.counter("reads", node=1).inc()
        assert reg.counter_total("reads") == 6
        assert reg.counter_by("reads", "node") == {1: 3.0, 2: 3.0}

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_histogram_buckets_and_mean(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]  # <=1, <=10, overflow
        assert h.count == 3
        assert h.mean == pytest.approx(55.5 / 3)

    def test_series_collapses_same_instant(self):
        reg = MetricsRegistry()
        s = reg.series("busy", node=1)
        s.append(0.0, 1)
        s.append(0.0, 2)
        s.append(1.0, 3)
        assert s.points == [(0.0, 2), (1.0, 3)]
        assert s.value_at(0.5) == 2

    def test_snapshot_is_sorted_and_serializable(self):
        reg = MetricsRegistry()
        reg.counter("z", node=2).inc()
        reg.counter("a", node=1).inc()
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        json.dumps(snap)  # must be JSON-serializable


class TestBlame:
    def test_buckets_sum_to_total(self):
        ledger = BlameLedger()
        ledger.charge("j", COMPUTE, 2.0, node=1)
        ledger.charge("j", DISK, 1.0, node=2)
        ledger.charge("j", ATOMIC, 0.5)
        summary = ledger.job_summary("j")
        assert sum(summary.values()) == pytest.approx(ledger.job_total("j"))
        assert set(summary) == set(BUCKETS)

    def test_unknown_bucket_rejected(self):
        with pytest.raises(ValueError):
            BlameLedger().charge("j", "gremlins", 1.0)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            BlameLedger().charge("j", COMPUTE, -1.0)

    def test_node_summary_partitions_job_total(self):
        ledger = BlameLedger()
        ledger.charge("j", COMPUTE, 2.0, node=1)
        ledger.charge("j", COMPUTE, 3.0, node=2)
        per_node = ledger.node_summary("j")
        assert per_node[1][COMPUTE] == 2.0
        assert per_node[2][COMPUTE] == 3.0
        total = sum(sum(buckets.values()) for buckets in per_node.values())
        assert total == pytest.approx(ledger.job_total("j"))


class TestTracedRun:
    """End-to-end: a traced WordCount run on the HAMR engine."""

    @pytest.fixture(scope="class")
    def traced(self):
        return _run_traced_wordcount()

    def test_task_spans_are_attributed(self, traced):
        env, _result = traced
        tasks = env.obs.finished_spans("task")
        assert tasks
        assert all(s.job == "wordcount" for s in tasks)
        assert all(s.node is not None for s in tasks)
        names = {s.name.split(":")[0] for s in tasks}
        assert "load" in names
        assert "reduce" in names or "partial_reduce" in names

    def test_job_span_covers_the_run(self, traced):
        env, result = traced
        jobs = env.obs.finished_spans("job")
        assert len(jobs) == 1
        assert jobs[0].duration == pytest.approx(result.makespan)

    def test_blame_buckets_sum_to_job_total(self, traced):
        env, _result = traced
        blame = env.obs.blame
        assert blame.jobs() == ["wordcount"]
        summary = blame.job_summary("wordcount")
        assert sum(summary.values()) == pytest.approx(
            blame.job_total("wordcount"), rel=0, abs=1e-12
        )
        assert summary["compute"] > 0
        assert summary["startup"] > 0

    def test_thread_series_recorded(self, traced):
        env, _result = traced
        busy = env.obs.metrics.series("threads_busy", node=1)
        assert busy.points
        assert max(v for _t, v in busy.points) >= 1

    def test_chrome_trace_is_valid(self, traced):
        env, _result = traced
        trace = env.obs.to_chrome_trace()
        events = trace["traceEvents"]
        assert events
        assert all(e["ph"] in ("X", "s", "f", "C") for e in events)
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        assert all(e["dur"] >= 0 for e in events if e["ph"] == "X")
        json.dumps(trace)

    def test_chrome_counter_tracks_present(self, traced):
        env, _result = traced
        events = env.obs.to_chrome_trace()["traceEvents"]
        counters = [e for e in events if e["ph"] == "C"]
        assert counters  # telemetry renders as Perfetto counter tracks
        names = {e["name"] for e in counters}
        assert "telemetry.cpu" in names
        assert all(e["name"].startswith("telemetry.") for e in counters)
        assert all(e["tid"] == 0 and len(e["args"]) == 1 for e in counters)

    def test_chrome_flow_events_pair_up(self, traced):
        env, _result = traced
        events = env.obs.to_chrome_trace()["traceEvents"]
        starts = {e["id"] for e in events if e["ph"] == "s"}
        finishes = {e["id"] for e in events if e["ph"] == "f"}
        assert starts  # causal edges rendered as flows
        assert starts == finishes
        assert all(
            e["cat"].startswith("flow.") for e in events if e["ph"] in ("s", "f")
        )

    def test_chrome_lanes_never_overlap(self, traced):
        env, _result = traced
        events = [
            e for e in env.obs.to_chrome_trace()["traceEvents"] if e["ph"] == "X"
        ]
        last_end: dict[tuple, float] = {}
        for e in events:
            key = (e["pid"], e["tid"])
            assert e["ts"] >= last_end.get(key, float("-inf"))
            last_end[key] = e["ts"] + e["dur"]

    def test_report_renders(self, traced):
        env, _result = traced
        text = render_report(env.obs, title="T")
        assert "Task timeline" in text
        assert "Blame" in text
        assert "Thread utilization" in text
        for section in (
            render_gantt(env.obs),
            render_blame(env.obs),
            render_utilization(env.obs),
            render_counters(env.obs),
        ):
            assert section  # non-empty

    def test_report_dict_schema(self, traced):
        env, _result = traced
        rep = report_dict(env.obs, "wordcount", "hamr")
        assert rep["schema"] == "repro.obs.report/v5"
        assert rep["engine"] == "hamr"
        assert "trace_dropped" not in rep
        assert rep["trace"]["schema"] == "repro.obs.trace/v2"
        assert rep["span_counts"]["task"] > 0
        assert rep["critpath"]["schema"] == "repro.obs.critpath/v1"

    def test_report_spill_section(self, traced):
        env, _result = traced
        rep = report_dict(env.obs, "wordcount", "hamr")
        spill = rep["spill"]
        assert set(spill) == {
            "nodes", "total_runs", "total_bytes", "total_bytes_read_back",
        }
        # totals are exactly the sum over per-node entries
        assert spill["total_runs"] == sum(
            e["runs"] for e in spill["nodes"].values()
        )
        assert spill["total_bytes"] == sum(
            e["bytes"] for e in spill["nodes"].values()
        )
        # the per-node view matches the unlabeled counter totals
        assert spill["total_bytes"] == int(
            env.obs.metrics.counter_total("spill.bytes")
        )


def test_report_cli_document(tmp_path, capsys):
    """What ``report --json`` writes for the tiny WordCount on HAMR: the
    document and its engine entry, end to end through the CLI."""
    from repro.evaluation.__main__ import main

    out = tmp_path / "report.json"
    argv = ["report", "--workload", "wordcount", "--fidelity", "tiny", "--engine", "hamr"]
    assert main([*argv, "--json", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["schema"] == "repro.obs.report/v5"
    engine = report["engines"]["hamr"]
    assert engine["schema"] == "repro.obs.report/v5"
    assert "trace_dropped" not in engine
    assert engine["span_counts"]["task"] > 0
    blame = engine["blame"]["wordcount"]
    assert abs(sum(blame["buckets"].values()) - blame["total"]) < 1e-9
    spill = engine["spill"]
    assert spill["total_bytes"] == sum(e["bytes"] for e in spill["nodes"].values())
    assert engine["trace"]["schema"] == "repro.obs.trace/v2"
    assert engine["trace"]["edges"], "expected causal edges in the trace"
    critpath = engine["critpath"]
    assert critpath["schema"] == "repro.obs.critpath/v1"
    assert critpath["segments"], "expected a non-empty critical path"


class TestDeterminism:
    def test_identical_runs_serialize_byte_identically(self):
        env1, _res1 = _run_traced_wordcount()
        env2, _res2 = _run_traced_wordcount()
        assert env1.obs.to_json() == env2.obs.to_json()
        assert report_json(env1.obs, "wordcount", "hamr") == report_json(
            env2.obs, "wordcount", "hamr"
        )
        assert json.dumps(env1.obs.to_chrome_trace(), sort_keys=True) == json.dumps(
            env2.obs.to_chrome_trace(), sort_keys=True
        )

    def test_tracing_does_not_change_virtual_time(self):
        params = wordcount.WordCountParams(target_bytes=50_000, seed=0)
        records = wordcount.generate_input(params)
        makespans = []
        for obs in (False, True):
            env = AppEnv(small_cluster_spec(num_workers=3), obs=obs)
            result = wordcount.run_hamr(env, params, records)
            makespans.append(result.makespan)
        assert makespans[0] == makespans[1]

    def test_profiling_does_not_perturb_virtual_outputs(self):
        """The dual clock is provably one-way: with the host profiler on,
        every virtual-clock artifact stays byte-identical."""
        env_off, res_off = _run_traced_wordcount()
        env_on, res_on, prof = _run_traced_wordcount(profile=True)
        assert res_off.makespan == res_on.makespan
        assert env_off.obs.to_json() == env_on.obs.to_json()
        assert report_json(env_off.obs, "wordcount", "hamr") == report_json(
            env_on.obs, "wordcount", "hamr"
        )
        assert json.dumps(env_off.obs.to_chrome_trace(), sort_keys=True) == json.dumps(
            env_on.obs.to_chrome_trace(), sort_keys=True
        )
        # ... while the host clock actually measured something coherent
        snap = prof.snapshot()
        assert snap["total_ns"] > 0
        assert sum(snap["buckets"].values()) == snap["total_ns"]


class TestHadoopTracing:
    def test_hadoop_run_produces_spans_and_blame(self):
        params = wordcount.WordCountParams(target_bytes=50_000, seed=0)
        records = wordcount.generate_input(params)
        env = AppEnv(small_cluster_spec(num_workers=3), obs=True)
        wordcount.run_hadoop(env, params, records)
        tasks = env.obs.finished_spans("task")
        names = {s.name for s in tasks}
        assert "map" in names
        assert "reduce" in names
        assert env.obs.finished_spans("shuffle")  # fetch spans
        jobs = env.obs.blame.jobs()
        assert len(jobs) == 1
        summary = env.obs.blame.job_summary(jobs[0])
        assert summary["startup"] > 0
        assert summary["network"] > 0
        assert sum(summary.values()) == pytest.approx(
            env.obs.blame.job_total(jobs[0])
        )
        # DFS locality counters fired
        reads = env.obs.metrics.counter_total(
            "dfs.local_reads"
        ) + env.obs.metrics.counter_total("dfs.remote_reads")
        assert reads > 0
