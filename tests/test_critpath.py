"""Tests for critical-path extraction and the paper's §5 explanations."""

import pytest

from repro.evaluation.runner import run_workload
from repro.evaluation.workloads import workload_by_name
from repro.obs import BUCKETS, EDGE_BARRIER, EDGE_SHUFFLE, EDGE_STALL
from repro.obs.critpath import (
    OTHER,
    ROLLUP_KEYS,
    WAIT,
    PathNode,
    critical_path,
    from_tracer,
    render_critpath,
)
from repro.obs.replay import replay_lines


def _node(span_id, start, end, name="w", cat="task", job="j", charges=None):
    return PathNode(
        span_id=span_id, name=name, cat=cat, node=0, job=job,
        start=start, end=end, charges=charges or {},
    )


class TestSyntheticPaths:
    def test_chain_covers_every_span(self):
        nodes = {
            1: _node(1, 0.0, 2.0, "a"),
            2: _node(2, 2.0, 5.0, "b"),
            3: _node(3, 5.0, 9.0, "c"),
        }
        edges = [(1, 2, EDGE_SHUFFLE), (2, 3, EDGE_BARRIER)]
        cp = critical_path(nodes, edges)
        assert [seg.span.span_id for seg in cp.segments] == [1, 2, 3]
        # the via kind names the edge that *ends* each segment on the walk
        assert [seg.via for seg in cp.segments] == [EDGE_SHUFFLE, EDGE_BARRIER, None]
        assert cp.path_seconds == pytest.approx(9.0)
        assert cp.makespan == pytest.approx(9.0)

    def test_walk_picks_latest_predecessor(self):
        # two preds of the terminal: the later-finishing one is binding
        nodes = {
            1: _node(1, 0.0, 1.0, "early"),
            2: _node(2, 0.0, 6.0, "late"),
            3: _node(3, 6.0, 8.0, "sink"),
        }
        edges = [(1, 3, EDGE_BARRIER), (2, 3, EDGE_BARRIER)]
        cp = critical_path(nodes, edges)
        assert [seg.span.span_id for seg in cp.segments] == [2, 3]

    def test_dependency_inside_span_gates_its_tail(self):
        # pred ends inside the consumer: only the tail after the cut is
        # on the path (the §5.2 stall wait-for shape)
        nodes = {
            1: _node(1, 0.0, 4.0, "producer"),
            2: _node(2, 1.0, 10.0, "consumer"),
        }
        cp = critical_path(nodes, [(1, 2, EDGE_STALL)])
        tail = cp.segments[-1]
        assert tail.span.span_id == 2
        assert tail.t0 == pytest.approx(4.0)
        assert tail.t1 == pytest.approx(10.0)

    def test_lead_in_charged_to_startup(self):
        nodes = {
            1: _node(1, 0.0, 10.0, "job", cat="job"),
            2: _node(2, 3.0, 10.0, "work"),
        }
        cp = critical_path(nodes, [])
        assert cp.lead_in == pytest.approx(3.0)
        assert cp.rollup["startup"] == pytest.approx(3.0)
        assert cp.makespan == pytest.approx(10.0)

    def test_gap_between_segments_is_wait(self):
        # pred finishes at 2, consumer only starts at 5: 3s of slack
        nodes = {
            1: _node(1, 0.0, 2.0, "a"),
            2: _node(2, 5.0, 8.0, "b"),
        }
        cp = critical_path(nodes, [(1, 2, EDGE_BARRIER)])
        assert cp.rollup[WAIT] == pytest.approx(3.0)

    def test_charges_scale_to_on_path_share(self):
        # half the span is on-path, so half its disk charge is too; the
        # uncharged remainder lands in "other"
        nodes = {
            1: _node(1, 0.0, 4.0, "a"),
            2: _node(2, 1.0, 9.0, "b", charges={"disk": 4.0}),
        }
        cp = critical_path(nodes, [(1, 2, EDGE_STALL)])
        tail = cp.segments[-1]
        assert tail.duration == pytest.approx(5.0)  # [4, 9] of the 8s span
        assert cp.rollup["disk"] == pytest.approx(4.0 * 5.0 / 8.0)
        # uncharged time: the producer's full 4s plus the tail's remainder
        assert cp.rollup[OTHER] == pytest.approx(4.0 + 5.0 - 4.0 * 5.0 / 8.0)

    def test_overcharged_span_normalizes(self):
        # recorded charges exceed the span duration: never explain more
        # time than the segment covers
        nodes = {1: _node(1, 0.0, 2.0, "a", charges={"disk": 3.0, "compute": 1.0})}
        cp = critical_path(nodes, [])
        explained = cp.rollup["disk"] + cp.rollup["compute"]
        assert explained == pytest.approx(2.0)
        assert cp.rollup[OTHER] == pytest.approx(0.0)

    def test_zero_length_cycle_terminates(self):
        nodes = {
            1: _node(1, 0.0, 5.0, "a"),
            2: _node(2, 0.0, 5.0, "b"),
        }
        edges = [(1, 2, EDGE_STALL), (2, 1, EDGE_STALL)]
        cp = critical_path(nodes, edges)  # must not hang
        assert cp.segments

    def test_what_if_bounds(self):
        nodes = {1: _node(1, 0.0, 10.0, "a", charges={"disk": 6.0, "compute": 4.0})}
        cp = critical_path(nodes, [])
        wi = cp.what_if("disk")
        assert wi.removed == pytest.approx(6.0)
        assert wi.bound_makespan == pytest.approx(4.0)
        assert wi.bound_speedup == pytest.approx(2.5)
        both = cp.what_if(("disk", "compute"))
        assert both.removed == pytest.approx(10.0)
        assert both.bound_speedup > 1e9  # everything removed -> unbounded

    def test_what_if_rejects_unknown_bucket(self):
        cp = critical_path({1: _node(1, 0.0, 1.0)}, [])
        with pytest.raises(ValueError, match="unknown rollup keys"):
            cp.what_if("gpu")

    def test_job_filter_restricts_spans(self):
        nodes = {
            1: _node(1, 0.0, 3.0, "a", job="j1"),
            2: _node(2, 0.0, 9.0, "b", job="j2"),
        }
        cp = critical_path(nodes, [], job="j1")
        assert [seg.span.span_id for seg in cp.segments] == [1]

    def test_empty_trace_yields_empty_path(self):
        cp = critical_path({}, [])
        assert cp.segments == []
        assert cp.makespan == 0.0
        assert set(cp.rollup) == set(ROLLUP_KEYS)


@pytest.fixture(scope="module")
def tiny_rows(tiny_fleet):
    """One traced tiny-fidelity run per Table 2 workload, both engines."""
    return tiny_fleet


class TestTracedRuns:
    def test_journal_round_trip_matches_live(self, tiny_rows):
        row = tiny_rows["wordcount"]
        live = from_tracer(row.hamr_obs).to_dict()
        replayed = from_tracer(replay_lines(row.hamr_journal.lines).tracer).to_dict()
        assert live == replayed

    def test_path_is_contiguous_backward_walk(self, tiny_rows):
        for name, row in tiny_rows.items():
            for tracer in (row.hamr_obs, row.hadoop_obs):
                cp = from_tracer(tracer)
                assert cp.segments, f"{name}: expected a non-empty path"
                prev_end = None
                for seg in cp.segments:
                    assert seg.t1 >= seg.t0 - 1e-9
                    if prev_end is not None:
                        assert seg.t0 >= prev_end - 1e-9
                    prev_end = seg.t1
                # path + lead-in never explain more than the makespan
                assert cp.path_seconds + cp.lead_in <= cp.makespan + 1e-6

    def test_rollup_accounts_for_path_seconds(self, tiny_rows):
        for name, row in tiny_rows.items():
            cp = from_tracer(row.hamr_obs)
            explained = sum(cp.rollup.values())
            covered = cp.path_seconds + cp.lead_in + cp.rollup[WAIT]
            assert explained == pytest.approx(covered, rel=1e-6), name

    def test_blame_bucket_sum_invariant(self, tiny_rows):
        """Per-span charges and the ledger agree: every job's bucket sums
        equal its total, for all 8 Table 2 workloads x both engines."""
        for name, row in tiny_rows.items():
            for engine, tracer in (("hamr", row.hamr_obs), ("hadoop", row.hadoop_obs)):
                jobs = tracer.blame.jobs()
                assert jobs, f"{name}/{engine}: no blame recorded"
                for job in jobs:
                    summary = tracer.blame.job_summary(job)
                    assert set(summary) == set(BUCKETS)
                    total = tracer.blame.job_total(job)
                    assert sum(summary.values()) == pytest.approx(
                        total, abs=1e-9
                    ), f"{name}/{engine}/{job}"

    def test_render_critpath_is_deterministic(self, tiny_rows):
        tracer = tiny_rows["histogram_ratings"].hamr_obs
        cp = from_tracer(tracer)
        assert render_critpath(cp) == render_critpath(from_tracer(tracer))


class TestPaperExplanations:
    """The what-if bounds reproduce the paper's §5 performance stories."""

    def test_naive_bayes_hadoop_is_startup_disk_bound(self, tiny_rows):
        # §5.1/Table 2: ClassificationNB on Hadoop pays per-iteration job
        # startup and disk-bound shuffle; HAMR's win comes from removing it
        cp = from_tracer(tiny_rows["naive_bayes"].hadoop_obs)
        overhead = cp.rollup["startup"] + cp.rollup["disk"]
        assert overhead > 0.5 * cp.makespan
        wi = cp.what_if(("disk", "startup"))
        assert wi.bound_speedup > 5.0

    def test_classification_hadoop_pays_startup_and_disk(self, tiny_rows):
        cp = from_tracer(tiny_rows["classification"].hadoop_obs)
        assert cp.what_if(("disk", "startup")).bound_speedup > 1.4

    def test_histogram_ratings_hamr_is_atomic_bound(self, tiny_rows):
        # §5.2: HistogramRatings on HAMR serializes on hot accumulator
        # keys — atomic time dominates the critical path, and relieving
        # atomic+stall buys far more than relieving disk+startup
        cp = from_tracer(tiny_rows["histogram_ratings"].hamr_obs)
        dominant = max(BUCKETS, key=lambda b: cp.rollup.get(b, 0.0))
        assert dominant == "atomic"
        assert cp.rollup["atomic"] > 0.5 * cp.makespan
        atomic_wi = cp.what_if(("atomic", "stall"))
        io_wi = cp.what_if(("disk", "startup"))
        assert atomic_wi.bound_speedup > 2.0
        assert atomic_wi.bound_speedup > io_wi.bound_speedup

    def test_histogram_ratings_hadoop_is_not_atomic_bound(self, tiny_rows):
        # the same workload on Hadoop has no shared accumulators: its
        # path carries (virtually) no atomic time
        cp = from_tracer(tiny_rows["histogram_ratings"].hadoop_obs)
        assert cp.rollup.get("atomic", 0.0) < 0.05 * cp.makespan

    def test_traced_run_with_edges_matches_untraced_time(self, tiny_rows):
        # tracing + causal edges must not perturb the simulation
        for name in ("naive_bayes", "histogram_ratings"):
            traced = tiny_rows[name]
            untraced = run_workload(
                workload_by_name(name, "tiny"), engines="both", obs=False
            )
            assert traced.hamr_seconds == untraced.hamr_seconds, name
            assert traced.idh_seconds == untraced.idh_seconds, name
