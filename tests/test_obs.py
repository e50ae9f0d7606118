"""Tests for the observability subsystem: spans, metrics, blame, reports."""

import gc
import json
import math
import struct
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.evaluation.runner import run_workload
from repro.evaluation.workloads import workload_by_name
from repro.obs import (
    ATOMIC,
    BUCKETS,
    COMPUTE,
    DISK,
    EDGE_KINDS,
    NULL_SPAN,
    BlameLedger,
    JournalWriter,
    MetricsRegistry,
    SpanTable,
    Tracer,
    assign_lanes,
    replay_lines,
)
from repro.obs.columns import NO_ID, Column, IdColumn
from repro.obs.replay import FrozenClock
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


# -- the span table ----------------------------------------------------------------


def _same(a, b):
    """Equal values of the same type, floats compared bit for bit and
    containers element by element in order."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    if type(a) is dict:
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if type(a) in (list, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


_SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324])
_FLOATS = st.floats() | _SPECIAL_FLOATS
_INTS = st.integers(min_value=-(2**70), max_value=2**70) | st.sampled_from(
    [NO_ID, NO_ID + 1, 2**63 - 1, 2**63, 0, 1]
)
#: text strategies draw non-ASCII characters too
_VALUES = st.none() | st.booleans() | _INTS | _FLOATS | st.text(max_size=6)
_JSON_VALUES = (
    st.none() | st.booleans() | _INTS | st.floats(allow_nan=False) | st.text(max_size=6)
)
_ARG_KEYS = st.text(min_size=1, max_size=6).filter(
    lambda k: k not in {"name", "cat", "node", "job", "flowlet", "parent"}
)


class TestSpanTable:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                _INTS, st.text(max_size=6), st.text(max_size=6), _FLOATS, _VALUES,
                _VALUES, _VALUES, st.none() | _INTS,
                st.dictionaries(st.text(max_size=4), _VALUES, max_size=3),
                st.none() | _FLOATS,
            ),
            max_size=6,
        )
    )
    def test_every_value_reads_back_unchanged(self, rows):
        table = SpanTable()
        for span_id, name, cat, start, node, job, flowlet, parent, args, end in rows:
            row = table.open(span_id, name, cat, start, node, job, flowlet, parent, args)
            if end is not None:
                table.close(row, end)
        for row, (span_id, name, cat, start, node, job, flowlet, parent, args, end) in (
            enumerate(rows)
        ):
            assert _same(table.args(row), args)
            assert _same(
                table.row_dict(row),
                {
                    "id": span_id, "name": name, "cat": cat, "start": start,
                    "end": end, "node": node, "job": job, "flowlet": flowlet,
                    "parent": parent, "args": {k: args[k] for k in sorted(args)},
                    "charges": {},
                },
            )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_VALUES, max_size=12), st.sampled_from(["d", "q", None, "id"]))
    def test_a_column_gives_back_what_it_was_given(self, values, typecode):
        column = IdColumn() if typecode == "id" else Column(typecode)
        for value in values:
            column.append(value)
        assert _same(list(column), values)
        assert _same([column[i] for i in range(len(column))], values)
        if values:
            column[-1] = values[0]
            assert _same(list(column), values[:-1] + values[:1])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_FLOATS | _INTS, _FLOATS | _INTS, _FLOATS | _INTS), max_size=8))
    def test_timeline_samples_read_back_unchanged(self, samples):
        sampler = _tracer().timeline
        steps = []
        for time, level, weight in samples:
            sampler.record_step("queue", 1, time, level)
            sampler.record_interval("disk", 1, time, level, weight)
            if steps and steps[-1][0] == time:  # same instant: the last level wins
                steps[-1] = (time, level)
            else:
                steps.append((time, level))
        assert _same(sampler.steps("queue", 1), steps)
        assert _same(sampler.intervals("disk", 1), samples)

    def test_equal_values_of_other_types_keep_their_type(self):
        table = SpanTable()
        nodes = [1, True, 1.0, 0.0, -0.0, 0, False, None]
        for row, node in enumerate(nodes):
            table.open(row + 1, "é", "task", 0.0, node, "j", None, None, None)
        assert _same([table.row_dict(row)["node"] for row in range(len(nodes))], nodes)

    def test_counts_stay_ints_and_durations_floats(self):
        registry = MetricsRegistry()
        busy = registry.series("threads_busy", node=1)
        busy.append(0.0, 2)
        busy.append(1.5, 3)
        assert _same(busy.points, [(0.0, 2), (1.5, 3)])
        tracer = _tracer()
        span = tracer.span("ship", "shuffle", nrecords=7).finish()
        assert _same(tracer.spans[0].args, {"nrecords": 7})
        # handles on one row are one span
        assert tracer.spans[-1] == span and hash(tracer.spans[0]) == hash(span)
        assert span in tracer.spans

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.sampled_from(BUCKETS),
                st.floats(min_value=0.0) | st.sampled_from([5e-324, 0.1, 1e308]),
            ),
            max_size=30,
        )
    )
    def test_charges_keep_first_charge_order_and_sum_bit_exact(self, charges):
        tracer = _tracer()
        spans = [tracer.span(f"s{i}", "task") for i in range(3)]
        plain = [{} for _ in spans]
        for index, bucket, seconds in charges:
            tracer.charge("j", bucket, seconds, span=spans[index])
            if seconds > 0.0:
                plain[index][bucket] = plain[index].get(bucket, 0.0) + seconds
        for span, expected in zip(spans, plain):
            assert _same(span.charges, expected)
            assert _same(sum(span.charges.values()), sum(expected.values()))

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(_ARG_KEYS, _JSON_VALUES, max_size=3),
        st.dictionaries(_ARG_KEYS, _JSON_VALUES, max_size=3),
    )
    def test_finish_args_reach_the_close_record(self, opened, finished):
        writer = JournalWriter()
        tracer = Tracer(Simulator(), enabled=True, journal=writer)
        span = tracer.span("work", "task", **opened)
        span.finish(**finished)
        merged = {**opened, **finished}
        assert _same(span.args, merged)
        (close,) = [rec for rec in writer.records if rec["t"] == "sc"]
        assert _same(close.get("a", {}), {k: merged[k] for k in sorted(merged)})

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.text(max_size=4), st.text(min_size=1, max_size=4),
                st.none() | st.booleans() | _INTS | st.floats() | st.text(max_size=3),
                st.none() | st.text(max_size=3), st.none() | st.text(max_size=3),
                st.none() | st.integers(0, 7), st.dictionaries(_ARG_KEYS, _JSON_VALUES, max_size=2),
                st.floats(), st.none() | st.floats(),
                st.dictionaries(_ARG_KEYS, _JSON_VALUES, max_size=2),
            ),
            min_size=1,
            max_size=6,
        ),
        st.lists(
            st.tuples(st.integers(0, 7), st.sampled_from(BUCKETS), st.floats(min_value=0.0)),
            max_size=10,
        ),
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7), st.sampled_from(EDGE_KINDS)),
            max_size=8,
        ),
    )
    def test_replayed_tracer_serializes_like_the_live_one(self, spans, charges, edges):
        writer = JournalWriter()
        writer.write_header(workload="w", engine="hamr")
        tracer = Tracer(FrozenClock(0.0), enabled=True, journal=writer)
        handles = []
        for name, cat, node, job, flowlet, parent, args, start, _end, _more in spans:
            tracer.sim.now = start
            parent = handles[parent % len(handles)] if handles and parent is not None else None
            handles.append(
                tracer.span(name, cat, node=node, job=job, flowlet=flowlet, parent=parent, **args)
            )
        for index, bucket, seconds in charges:
            tracer.charge("j", bucket, seconds, span=handles[index % len(handles)])
        for src, dst, kind in edges:
            tracer.edge(handles[src % len(handles)], handles[dst % len(handles)], kind)
        for handle, (*_, end, more) in zip(handles, spans):
            if end is not None:
                tracer.sim.now = end
                handle.finish(**more)
        writer.write_footer(makespan=0.0, virtual_end=tracer.sim.now)
        replayed = replay_lines(writer.lines).tracer
        assert replayed.to_json() == tracer.to_json()


class TestRecorderMemory:
    def test_a_finished_row_holds_its_recording_as_columns(self):
        """What a journaled run's tracer keeps, per span: spans, edges and
        telemetry samples in typed columns cost about 0.4 kB a span at
        tiny fidelity, where one Python object per record cost 1.2 kB."""
        gc.collect()
        tracemalloc.start()
        try:
            row = run_workload(
                workload_by_name("wordcount", "tiny", seed=0), engines="hamr", journal=True
            )
            tracer = row.hamr_obs
            freed = weakref.ref(tracer)
            spans = len(tracer.spans)
            del tracer
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            row.hamr_obs = None
            gc.collect()
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert freed() is None  # the row held the only reference
        assert spans > 1000
        assert retained / spans <= 600, (retained, spans)
