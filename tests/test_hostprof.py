"""Tests for the dual-clock host profiler, fidelity audit and calibration.

The aggregation tests drive :class:`HostProfiler` with a fake
deterministic nanosecond clock, so every assertion is exact — including
the telescoping invariant (bucket self-ns sum to the measured total).
"""

import json

import pytest

from repro.cluster.spec import CostModel
from repro.obs.fidelity import (
    CALIBRATION_SCHEMA,
    FIDELITY_SCHEMA,
    _engine_samples,
    calibration_dict,
    fidelity_dict,
    fit_cost_constants,
    render_calibration,
    render_fidelity,
)
from repro.obs.hostprof import (
    DATAPLANE,
    ENGINE,
    HOST_BUCKETS,
    HOSTPROF_SCHEMA,
    SIM_KERNEL,
    STORAGE,
    HostProfiler,
    activation,
    merge_snapshots,
    normalize_label,
    scope,
)
from repro.obs.spans import Tracer
from repro.sim import Simulator


class FakeClock:
    """Deterministic ns clock: each read advances by a scripted step."""

    def __init__(self, step=10):
        self.now = 0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value

    def advance(self, ns):
        self.now += ns


def _prof(step=0):
    clock = FakeClock(step=step)
    return HostProfiler(clock=clock), clock


class TestAggregation:
    def test_single_frame_self_equals_total(self):
        prof, clock = _prof()
        prof.push(ENGINE, "map:words")
        clock.advance(500)
        prof.pop()
        assert prof.total_ns == 500
        snap = prof.snapshot()
        [row] = snap["flat"]
        assert row == {
            "bucket": ENGINE,
            "label": "map:words",
            "calls": 1,
            "self_ns": 500,
            "total_ns": 500,
            "records": 0,
            "nbytes": 0,
        }

    def test_nested_frames_split_self_from_child(self):
        prof, clock = _prof()
        prof.push(SIM_KERNEL, "dispatch")
        clock.advance(100)
        prof.push(ENGINE, "map:words")
        clock.advance(700)
        prof.pop()
        clock.advance(200)
        prof.pop()
        by_label = {row["label"]: row for row in prof.snapshot()["flat"]}
        assert by_label["map:words"]["self_ns"] == 700
        assert by_label["dispatch"]["self_ns"] == 300
        assert by_label["dispatch"]["total_ns"] == 1000
        assert prof.total_ns == 1000

    def test_buckets_sum_exactly_to_total(self):
        prof, clock = _prof()
        for _ in range(50):
            prof.push(SIM_KERNEL, "dispatch")
            clock.advance(17)
            prof.push(ENGINE, "map:x")
            clock.advance(31)
            prof.push(DATAPLANE, "sizing")
            clock.advance(5)
            prof.pop()
            prof.pop()
            prof.push(STORAGE, "spill")
            clock.advance(3)
            prof.pop()
            prof.pop()
        buckets = prof.bucket_self_ns()
        assert sum(buckets.values()) == prof.total_ns
        assert set(buckets) == set(HOST_BUCKETS)
        snap = prof.snapshot()
        assert sum(snap["buckets"].values()) == snap["total_ns"]

    def test_sibling_frames_accumulate_by_key(self):
        prof, clock = _prof()
        for _ in range(3):
            prof.push(ENGINE, "reduce:x")
            clock.advance(10)
            prof.pop()
        [row] = prof.snapshot()["flat"]
        assert row["calls"] == 3
        assert row["self_ns"] == 30

    def test_units_attributed_to_top_frame(self):
        prof, clock = _prof()
        prof.push(ENGINE, "map:words")
        prof.units(100, 6400)
        prof.units(50, 3200.5)  # floats coerce to int
        clock.advance(10)
        prof.pop()
        [row] = prof.snapshot()["flat"]
        assert row["records"] == 150
        assert row["nbytes"] == 9600
        prof.units(999, 999)  # no frame: silently dropped
        assert prof.snapshot()["flat"][0]["records"] == 150

    def test_tree_paths_nest(self):
        prof, clock = _prof()
        prof.push(SIM_KERNEL, "dispatch")
        prof.push(ENGINE, "map:x")
        clock.advance(10)
        prof.pop()
        prof.pop()
        paths = [tuple(node["path"]) for node in prof.snapshot()["tree"]]
        assert ("sim-kernel/dispatch",) in paths
        assert ("sim-kernel/dispatch", "engine/map:x") in paths

    def test_non_monotonic_clock_clamped(self):
        clock = FakeClock()
        prof = HostProfiler(clock=clock)
        prof.push(ENGINE, "x")
        clock.advance(-1000)  # hostile clock going backwards
        prof.pop()
        assert prof.total_ns == 0
        assert prof.snapshot()["flat"][0]["self_ns"] == 0

    def test_normalize_label_collapses_digit_runs(self):
        assert normalize_label("wc.map12") == "wc.map*"
        assert normalize_label("n3.task778") == "n*.task*"
        assert normalize_label("driver") == "driver"

    def test_snapshot_schema_and_shares(self):
        prof, clock = _prof()
        prof.push(ENGINE, "x")
        clock.advance(750)
        prof.pop()
        prof.push(SIM_KERNEL, "dispatch")
        clock.advance(250)
        prof.pop()
        snap = prof.snapshot()
        assert snap["schema"] == HOSTPROF_SCHEMA
        assert snap["shares"][ENGINE] == 0.75
        assert snap["shares"][SIM_KERNEL] == 0.25
        json.dumps(snap)  # serializable


class TestClockTrack:
    def test_tick_strides_by_host_interval(self):
        prof, clock = _prof()
        for i in range(10):
            prof.push(SIM_KERNEL, "dispatch")
            clock.advance(400_000)  # 0.4ms per dispatch, 1ms stride
            prof.pop()
            prof.tick(float(i))
        samples = prof.clock_samples()
        assert 0 < len(samples) < 10
        # cumulative ns strictly increasing, virtual times non-decreasing
        assert all(b[1] > a[1] for a, b in zip(samples, samples[1:]))
        assert all(b[0] >= a[0] for a, b in zip(samples, samples[1:]))

    def test_sample_cap_thins_and_doubles_stride(self):
        prof, clock = _prof()
        prof._sample_interval_ns = 1
        for i in range(5000):
            prof.push(SIM_KERNEL, "dispatch")
            clock.advance(10)
            prof.pop()
            prof.tick(float(i))
        assert len(prof.clock_samples()) <= 4096
        assert prof._sample_interval_ns > 1


def _labels(prof):
    return [row["label"] for row in prof.snapshot()["flat"]]


class TestActivation:
    def test_activation_installs_and_restores(self):
        prof = HostProfiler(clock=FakeClock())
        inner = HostProfiler(clock=FakeClock())
        with scope(ENGINE, "before"):
            pass
        with activation(prof):
            with scope(ENGINE, "outer"):
                pass
            with activation(inner):
                with scope(ENGINE, "inner"):
                    pass
            with activation(None):  # None means unprofiled, not "keep"
                with scope(ENGINE, "off"):
                    pass
            with scope(ENGINE, "outer", "again"):
                pass
        with scope(ENGINE, "after"):
            pass
        assert _labels(prof) == ["outer", "outer:again"]
        assert _labels(inner) == ["inner"]

    def test_activation_restores_when_the_body_raises(self):
        prof = HostProfiler(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with activation(prof):
                raise RuntimeError("boom")
        with scope(ENGINE, "after"):
            pass
        assert _labels(prof) == []


class TestScope:
    def test_null_scope_is_shared_and_formats_nothing(self):
        class Explosive:
            def __format__(self, spec):
                raise AssertionError("label formatted with no profiler active")

        first = scope(ENGINE, "map", Explosive(), 1, 2)
        assert first is scope(DATAPLANE, "sizing")  # one object, no allocation
        with first as frame:
            frame.units(3, 4)  # accepted and dropped

    def test_upfront_and_late_units_land_on_the_frame(self):
        prof, clock = _prof()
        with activation(prof):
            with scope(ENGINE, "map", "words", 100, 6400):
                clock.advance(10)
            with scope(DATAPLANE, "partition_batch") as frame:
                clock.advance(5)
                frame.units(7, 70)
        rows = {row["label"]: row for row in prof.snapshot()["flat"]}
        assert (rows["map:words"]["records"], rows["map:words"]["nbytes"]) == (100, 6400)
        assert rows["map:words"]["self_ns"] == 10
        assert (rows["partition_batch"]["records"], rows["partition_batch"]["nbytes"]) == (7, 70)


class TestRaisingBodies:
    """A body that raises inside a framed section must not leak the frame:
    exact accounting (design constraint 3) has to survive user errors."""

    def _assert_exact(self, prof):
        assert prof._stack == []
        assert prof.total_ns > 0
        assert sum(prof.bucket_self_ns().values()) == prof.total_ns

    def test_partition_batch_with_a_raising_partitioner(self):
        from repro.dataplane import partition_batch

        class Broken:
            def partition(self, key):
                raise KeyError(key)

        prof = HostProfiler(clock=FakeClock(step=7))
        with activation(prof):
            with pytest.raises(KeyError):
                partition_batch([("a", 1)], Broken())
            with scope(ENGINE, "later"):  # must open at the root, not under a stale frame
                pass
        self._assert_exact(prof)
        assert [node["path"] for node in prof.snapshot()["tree"]] == [
            ["dataplane/partition_batch"], ["engine/later"],
        ]

    def test_hamr_job_whose_combine_raises(self):
        from repro.cluster import Cluster, small_cluster_spec
        from repro.common.errors import SimulationError
        from repro.core import (
            CollectionSource, FlowletGraph, HamrEngine, Loader, Map, PartialReduce,
        )

        def combine(acc, value):
            raise ZeroDivisionError("user combine")

        def tokenize(ctx, _offset, line):
            for word in line.split():
                ctx.emit(word, 1)

        def graph():
            g = FlowletGraph("wc")
            lines = g.add(Loader("lines", CollectionSource([(0, "a b a"), (1, "b c")])))
            words = g.add(Map("words", fn=tokenize))
            count = g.add(PartialReduce("count", initial=lambda k: 0, combine=combine))
            g.connect(lines, words)
            g.connect(words, count)
            return g

        errors = []
        for prof in (None, HostProfiler()):
            engine = HamrEngine(Cluster(small_cluster_spec(num_workers=2)))
            if prof is not None:
                engine.cluster.sim.attach(prof)
            with activation(prof):
                with pytest.raises(SimulationError) as info:
                    engine.run(graph())
            errors.append((str(info.value), repr(info.value.__cause__)))
        assert errors[0] == errors[1]
        assert "ZeroDivisionError" in errors[0][1]
        self._assert_exact(prof)


class TestMerge:
    def test_merge_pools_flat_rows_and_buckets(self):
        snaps = []
        for _ in range(2):
            prof, clock = _prof()
            prof.push(ENGINE, "map:x")
            prof.units(10, 100)
            clock.advance(40)
            prof.pop()
            snaps.append(prof.snapshot())
        merged = merge_snapshots(snaps)
        assert merged["total_ns"] == 80
        [row] = merged["flat"]
        assert row["calls"] == 2
        assert row["records"] == 20
        assert merged["tree"] == [] and merged["clock"] == []
        assert sum(merged["buckets"].values()) == merged["total_ns"]

    def test_merge_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="cannot merge"):
            merge_snapshots([{"schema": "bogus"}])


class TestSimulatorHook:
    def test_kernel_dispatch_profiled_without_changing_time(self):
        from repro.sim import Process

        def worker(sim):
            for _ in range(3):
                yield sim.timeout(1.0)

        makespans = []
        for profiled in (False, True):
            sim = Simulator()
            prof = HostProfiler(clock=FakeClock())
            if profiled:
                sim.attach(prof)
            Process(sim, worker(sim), name="w1.task7")
            sim.run()
            makespans.append(sim.now)
            if profiled:
                labels = {row["label"] for row in prof.snapshot()["flat"]}
                assert "dispatch" in labels
                assert "process:w*.task*" in labels  # digit runs collapsed
                assert prof.total_ns > 0
        assert makespans[0] == makespans[1]


def _span(tracer, name, seconds):
    span = tracer.span(name, "task")
    tracer.sim.now += seconds
    span.finish()


class TestFidelity:
    def _snapshot(self, rows):
        prof, clock = _prof()
        for bucket, label, ns, records, nbytes in rows:
            prof.push(bucket, label)
            prof.units(records, nbytes)
            clock.advance(ns)
            prof.pop()
        return prof.snapshot()

    def test_joins_operators_and_flags_drift(self):
        tracer = Tracer(Simulator(), enabled=True)
        _span(tracer, "map:words", 10.0)
        _span(tracer, "reduce:words", 10.0)
        _span(tracer, "finalize:words", 10.0)
        snap = self._snapshot(
            [
                (ENGINE, "map:words", 1_000_000, 10, 100),
                (ENGINE, "reduce:words", 1_100_000, 10, 100),
                # 50x the ratio of its peers -> DRIFT
                (ENGINE, "finalize:words", 50_000_000, 10, 100),
                # host-only: no matching span
                (DATAPLANE, "sizing", 400_000, 0, 50),
                # process frames are excluded from the join entirely
                (ENGINE, "process:w*.task*", 9_000_000, 0, 0),
            ]
        )
        fid = fidelity_dict(tracer, snap, "wordcount", "hamr")
        assert fid["schema"] == FIDELITY_SCHEMA
        by_op = {op["operator"]: op for op in fid["operators"]}
        assert "process:w*.task*" not in by_op
        assert by_op["map:words"]["verdict"] == "ok"
        assert by_op["finalize:words"]["verdict"] == "DRIFT"
        assert by_op["sizing"]["verdict"] == "host-only"
        assert fid["drift"] == ["finalize:words"]
        assert by_op["map:words"]["ns_per_virtual_second"] == pytest.approx(100_000)
        text = render_fidelity(fid)
        assert "DRIFT in finalize:words" in text

    def test_no_drift_when_ratios_uniform(self):
        tracer = Tracer(Simulator(), enabled=True)
        _span(tracer, "map:a", 5.0)
        _span(tracer, "reduce:a", 2.0)
        snap = self._snapshot(
            [
                (ENGINE, "map:a", 5_000_000, 10, 0),
                (ENGINE, "reduce:a", 2_000_000, 10, 0),
            ]
        )
        fid = fidelity_dict(tracer, snap, "wc", "hamr")
        assert fid["drift"] == []
        assert "fidelity OK" in render_fidelity(fid)

    def test_rejects_non_snapshot_and_bad_tolerance(self):
        tracer = Tracer(Simulator(), enabled=True)
        with pytest.raises(ValueError, match="not a hostprof snapshot"):
            fidelity_dict(tracer, {"schema": "nope"}, "w", "hamr")
        snap = self._snapshot([(ENGINE, "map:a", 10, 1, 1)])
        with pytest.raises(ValueError, match="tolerance"):
            fidelity_dict(tracer, snap, "w", "hamr", tolerance=0.5)

    def test_bucket_join_covers_every_job(self):
        from repro.evaluation.runner import run_workload
        from repro.evaluation.workloads import workload_by_name

        row = run_workload(
            workload_by_name("naive_bayes", "tiny"), engines="hadoop", obs=True, profile=True
        )
        ledger = row.hadoop_obs.blame
        assert len(ledger.jobs()) == 2
        compute = sum(
            ledger.job_summary(job)["compute"] + ledger.job_summary(job)["atomic"]
            for job in ledger.jobs()
        )
        fid = fidelity_dict(row.hadoop_obs, row.hadoop_hostprof, "naive_bayes", "hadoop")
        assert fid["buckets"]["virtual_compute_seconds"] == pytest.approx(compute, abs=2e-6)


class TestCalibration:
    def test_fit_recovers_known_constants(self):
        # synthetic runs with exact cost 200ns/record + 2ns/byte,
        # record:byte mixes varied so the system is well-conditioned
        samples = [
            (1000, 10_000, 1000 * 200 + 10_000 * 2, "map:a"),
            (500, 100_000, 500 * 200 + 100_000 * 2, "reduce:a"),
            (2000, 5_000, 2000 * 200 + 5_000 * 2, "combine:a"),
            (100, 400_000, 100 * 200 + 400_000 * 2, "finalize:a"),
        ]
        fit = fit_cost_constants(samples, CostModel())
        assert not fit.degenerate
        assert fit.ns_per_record == pytest.approx(200.0)
        assert fit.ns_per_byte == pytest.approx(2.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_proposal_preserves_total_modeled_compute(self):
        cost = CostModel()
        samples = [
            (1000, 10_000, 350_000, "map:a"),
            (500, 900_000, 2_100_000, "reduce:a"),
            (2000, 5_000, 410_000, "combine:a"),
        ]
        fit = fit_cost_constants(samples, cost)
        current_total = sum(
            n * cost.cpu_per_record + b * cost.cpu_per_byte
            for n, b, _, _ in samples
        )
        proposed_total = sum(
            n * fit.proposed_cpu_per_record + b * fit.proposed_cpu_per_byte
            for n, b, _, _ in samples
        )
        assert proposed_total == pytest.approx(current_total)

    def test_collinear_samples_fall_back_to_ratio(self):
        # bytes always exactly 100x records: the 2x2 system is singular
        samples = [
            (n, n * 100, n * 1000, f"op{i}") for i, n in enumerate((10, 20, 40))
        ]
        fit = fit_cost_constants(samples, CostModel())
        assert fit.degenerate
        ratio = CostModel().cpu_per_byte / CostModel().cpu_per_record
        assert fit.ns_per_byte / fit.ns_per_record == pytest.approx(ratio)

    def test_empty_samples_return_none(self):
        assert fit_cost_constants([], CostModel()) is None
        assert fit_cost_constants([(0, 0, 100, "x")], CostModel()) is None

    def test_calibration_dict_and_render(self):
        samples = [
            (1000, 10_000, 220_000, "map:a"),
            (500, 100_000, 300_000, "reduce:a"),
            (2000, 5_000, 410_000, "combine:a"),
        ]
        fit = fit_cost_constants(samples, CostModel())
        cal = calibration_dict(fit, ["wc/hamr"])
        assert cal["schema"] == CALIBRATION_SCHEMA
        assert cal["samples"] == 3
        json.dumps(cal)
        text = render_calibration(cal)
        assert "NOT applied" in text
        assert "cpu_per_record" in text and "cpu_per_byte" in text

    def test_engine_samples_filter(self):
        prof, clock = _prof()
        prof.push(ENGINE, "map:a")
        prof.units(5, 50)
        clock.advance(10)
        prof.pop()
        prof.push(ENGINE, "process:w*")  # excluded: process frame
        prof.units(5, 50)
        clock.advance(10)
        prof.pop()
        prof.push(STORAGE, "spill")  # excluded: not the engine bucket
        prof.units(5, 50)
        clock.advance(10)
        prof.pop()
        prof.push(ENGINE, "reduce:a")  # excluded: no units recorded
        clock.advance(10)
        prof.pop()
        rows = _engine_samples(prof.snapshot())
        assert [label for _, _, _, label in rows] == ["map:a"]


class TestProfileCli:
    def test_unknown_workload_exits_2(self, capsys):
        from repro.evaluation.__main__ import main

        assert main(["profile", "--workload", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_unknown_engine_exits_2(self, capsys):
        from repro.evaluation.__main__ import main

        assert main(["report", "--engine", "warp"]) == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_profile_json_to_stdout(self, capsys):
        """The CI ``profile-smoke`` gate: schema, bucket-sum invariant and
        non-empty views for both engines, from the CLI's own JSON."""
        from repro.evaluation.__main__ import main

        for workload in ("wordcount", "histogram_movies"):
            code = main(
                [
                    "profile",
                    "--workload", workload,
                    "--fidelity", "tiny",
                    "--engine", "both",
                    "--json", "-",
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            payload = json.loads(out)  # stdout is pure JSON
            assert payload["schema"] == HOSTPROF_SCHEMA
            entry = payload["workloads"][workload]
            for engine in ("hamr", "hadoop"):
                where = f"{workload}/{engine}"
                snap = entry[engine]["hostprof"]
                assert snap["schema"] == HOSTPROF_SCHEMA
                assert snap["total_ns"] > 0, f"{where}: empty profile"
                assert sum(snap["buckets"].values()) == snap["total_ns"], where
                assert snap["flat"], f"{where}: no flat rows"
                fid = entry[engine]["fidelity"]
                assert fid["schema"] == FIDELITY_SCHEMA
                assert fid["operators"], f"{where}: empty fidelity join"


class TestRenderHostprof:
    """The ``profile`` command's text view of one hand-built snapshot."""

    @staticmethod
    def _flat(bucket, label, calls, self_ms, total_ms):
        return {"bucket": bucket, "label": label, "calls": calls,
                "self_ns": self_ms * 1_000_000, "total_ns": total_ms * 1_000_000}

    @staticmethod
    def _node(path, calls, total_ms, self_ms):
        return {"path": path, "calls": calls,
                "total_ns": total_ms * 1_000_000, "self_ns": self_ms * 1_000_000}

    def _snapshot(self):
        flat = self._flat
        node = self._node
        return {
            "schema": HOSTPROF_SCHEMA,
            "total_ns": 13_000_000,
            "buckets": {"engine": 6_000_000, "sim-kernel": 4_000_000, "storage": 3_000_000},
            "shares": {"engine": 6 / 13, "sim-kernel": 4 / 13, "storage": 3 / 13},
            # self-ns ties: bucket breaks engine/storage, label breaks map/reduce
            "flat": [
                flat("storage", "spill", 1, 3, 3),
                flat("engine", "reduce", 1, 3, 3),
                flat("sim-kernel", "dispatch", 4, 4, 13),
                flat("engine", "map", 2, 3, 3),
            ],
            "tree": [
                node(["sim-kernel/dispatch", "engine/map", "storage/spill"], 1, 3, 3),
                node(["sim-kernel/dispatch", "engine/map"], 2, 6, 3),
                node(["sim-kernel/dispatch", "engine/reduce"], 1, 3, 3),
                node(["sim-kernel/dispatch"], 4, 13, 4),
            ],
        }

    @staticmethod
    def _rows(text, title):
        """The body rows of the table titled ``title``."""
        section = next(s for s in text.split("\n\n") if s.startswith(title))
        return section.splitlines()[3:]

    def test_bucket_table_ends_with_the_total(self):
        from repro.evaluation.profilereport import render_hostprof

        text = render_hostprof(self._snapshot(), title="== profile ==")
        assert text.startswith("== profile ==\n")
        rows = self._rows(text, "Host time by subsystem bucket")
        assert [row.split()[0] for row in rows] == ["engine", "sim-kernel", "storage", "TOTAL"]
        assert rows[-1].split() == ["TOTAL", "13.00", "100.0%"]

    def test_flat_rows_sort_by_self_then_bucket_then_label_and_stop_at_top(self):
        from repro.evaluation.profilereport import render_hostprof

        text = render_hostprof(self._snapshot(), top=3)
        rows = self._rows(text, "Flat profile — hottest 3 of 4 rows")
        assert [row.split()[:2] for row in rows] == [
            ["sim-kernel", "dispatch"], ["engine", "map"], ["engine", "reduce"],
        ]
        assert rows[1].split()[2:] == ["2", "3.00", "3.00", "1,500,000"]

    def test_tree_rows_put_parents_before_children(self):
        from repro.evaluation.profilereport import render_hostprof

        rows = self._rows(render_hostprof(self._snapshot()), "Top-down tree")
        labels = [row[: len(row) - len(row.lstrip())] + row.split()[0] for row in rows]
        assert labels == [
            "sim-kernel/dispatch",
            "  engine/map",
            "    storage/spill",
            "  engine/reduce",
        ]

    def test_rejects_a_snapshot_of_another_schema(self):
        from repro.evaluation.profilereport import render_hostprof

        with pytest.raises(ValueError, match="not a hostprof snapshot"):
            render_hostprof(dict(self._snapshot(), schema="repro.obs.report/v5"))
