"""Tests for cluster telemetry: timelines, traffic matrix, skew, determinism."""

import json

import pytest

from repro.apps import wordcount
from repro.apps.base import AppEnv
from repro.cluster import small_cluster_spec
from repro.dataplane import exchange_targets
from repro.evaluation.telemetryreport import (
    render_telemetry,
    telemetry_dict,
    telemetry_json,
)
from repro.obs import Tracer
from repro.obs.telemetry import (
    CPU,
    TELEMETRY_SCHEMA,
    DISK,
    MEM_USED,
    NIC_RX,
    NIC_TX,
    QUEUE,
    TimelineSampler,
    TrafficMatrix,
    build_skew_report,
    merge_traffic_totals,
    skew_stats,
)
from repro.sim import Simulator


def _sampler(enabled=True):
    return TimelineSampler(Simulator(), enabled=enabled)


def _run_traced(engine="hamr", seed=0, target_bytes=50_000, profile=False, fabric="direct"):
    params = wordcount.WordCountParams(target_bytes=target_bytes, seed=seed)
    records = wordcount.generate_input(params)
    env = AppEnv(small_cluster_spec(num_workers=3), obs=True, fabric=fabric)
    runner = wordcount.run_hamr if engine == "hamr" else wordcount.run_hadoop
    if profile:
        from repro.obs.hostprof import HostProfiler, activation

        prof = HostProfiler()
        env.cluster.sim.attach(prof)
        with activation(prof):
            result = runner(env, params, records)
    else:
        result = runner(env, params, records)
    return env, result


class TestTimelineSampler:
    def test_step_track_binning_time_weighted_mean(self):
        sampler = _sampler()
        # busy level 4 over [0, 5), 0 afterwards; bin to 10 bins of 1s
        sampler.record_step(CPU, 1, 0.0, 4.0)
        sampler.record_step(CPU, 1, 5.0, 0.0)
        bins = sampler.binned(CPU, 1, bins=10, t_end=10.0)
        assert bins[:5] == pytest.approx([4.0] * 5)
        assert bins[5:] == pytest.approx([0.0] * 5)

    def test_watermark_track_carries_level_into_later_bins(self):
        sampler = _sampler()
        sampler.record_step(MEM_USED, 2, 1.0, 100.0)
        sampler.record_step(MEM_USED, 2, 7.0, 10.0)
        bins = sampler.binned(MEM_USED, 2, bins=4, t_end=8.0)
        # level 100 spans bins 0..3 until t=7; bin 3 still saw 100
        assert bins == pytest.approx([100.0, 100.0, 100.0, 100.0])

    def test_rate_track_spreads_weight_proportionally(self):
        sampler = _sampler()
        # 8 bytes moved over [1, 5) -> 2 bytes per 1s bin
        sampler.record_interval(NIC_TX, 1, 1.0, 5.0, 8.0)
        bins = sampler.binned(NIC_TX, 1, bins=8, t_end=8.0)
        assert sum(bins) == pytest.approx(8.0)
        assert bins[1] == pytest.approx(2.0)
        assert bins[4] == pytest.approx(2.0)
        assert bins[6] == 0.0

    def test_rate_weight_clipped_interval_stays_conserved(self):
        sampler = _sampler()
        sampler.record_interval(DISK, 1, 0.0, 4.0, 4.0)
        # t_end truncates the interval: only the covered share is charged
        bins = sampler.binned(DISK, 1, bins=2, t_end=2.0)
        assert sum(bins) == pytest.approx(2.0)

    def test_busy_seconds_integral(self):
        sampler = _sampler()
        sampler.record_step(CPU, 3, 0.0, 2.0)
        sampler.record_step(CPU, 3, 4.0, 1.0)
        assert sampler.busy_seconds(CPU, 3, t_end=10.0) == pytest.approx(
            2.0 * 4 + 1.0 * 6
        )

    def test_same_instant_step_collapses_keep_last(self):
        sampler = _sampler()
        sampler.record_step(QUEUE, 1, 2.0, 5.0)
        sampler.record_step(QUEUE, 1, 2.0, 9.0)
        assert sampler._steps[(QUEUE, 1)] == [(2.0, 9.0)]

    def test_disabled_sampler_records_nothing(self):
        sampler = _sampler(enabled=False)
        sampler.record_step(CPU, 1, 0.0, 1.0)
        sampler.record_interval(DISK, 1, 0.0, 1.0, 1.0)
        assert sampler.tracks() == []

    def test_depth_observer_aggregates_deltas(self):
        sampler = _sampler()
        observe = sampler.depth_observer(QUEUE, 4)
        observe(1.0, 10.0)
        observe(2.0, 5.0)
        observe(3.0, -10.0)
        assert sampler._steps[(QUEUE, 4)] == [(1.0, 10.0), (2.0, 15.0), (3.0, 5.0)]

    def test_to_dict_deterministic_and_serializable(self):
        sampler = _sampler()
        sampler.record_step(CPU, 1, 0.0, 1.0)
        sampler.record_interval(NIC_RX, 2, 0.0, 1.0, 7.0)
        d1 = json.dumps(sampler.to_dict(bins=4, t_end=2.0), sort_keys=True)
        d2 = json.dumps(sampler.to_dict(bins=4, t_end=2.0), sort_keys=True)
        assert d1 == d2

    def test_bad_bins_rejected(self):
        with pytest.raises(ValueError):
            _sampler().binned(CPU, 1, bins=0, t_end=1.0)


class TestTrafficMatrix:
    def test_edges_and_totals(self):
        m = TrafficMatrix("job")
        m.charge(1, 2, 100.0, records=10, mode="shuffle", partition=0)
        m.charge(1, 2, 50.0, records=5, mode="shuffle", partition=0)
        m.charge(2, 2, 30.0, records=3, mode="local")
        m.charge(1, 3, 20.0, records=2, mode="broadcast")
        assert m.edge_bytes(1, 2) == 150.0
        assert m.tx_bytes(1) == 170.0
        assert m.rx_bytes(2) == 180.0
        totals = m.totals()
        assert totals["total_bytes"] == 200.0
        assert totals["remote_bytes"] == 170.0  # the 2->2 local edge excluded
        assert totals["payloads"] == 4.0
        assert totals["records"] == 20.0
        assert totals["shuffle_bytes"] == 150.0
        assert totals["local_bytes"] == 30.0
        assert totals["broadcast_bytes"] == 20.0

    def test_partition_ledger_shuffle_only(self):
        m = TrafficMatrix("job")
        m.charge(1, 2, 10.0, records=1, mode="shuffle", partition=7)
        m.charge(1, 2, 10.0, records=1, mode="local", partition=7)
        assert m.partition_records() == {7: 1}
        assert m.partition_bytes() == {7: 10.0}

    def test_rejects_bad_inputs(self):
        m = TrafficMatrix()
        with pytest.raises(ValueError):
            m.charge(1, 2, -1.0)
        with pytest.raises(ValueError):
            m.charge(1, 2, 1.0, mode="teleport")

    def test_merge_totals(self):
        a, b = TrafficMatrix("a"), TrafficMatrix("b")
        a.charge(1, 2, 10.0, records=1, mode="shuffle", partition=0)
        b.charge(2, 1, 5.0, records=2, mode="local")
        merged = merge_traffic_totals([a, b])
        assert merged["total_bytes"] == 15.0
        assert merged["records"] == 3.0

    def test_to_dict_deterministic(self):
        m = TrafficMatrix("job")
        m.charge(3, 1, 5.0, mode="shuffle", partition=2)
        m.charge(1, 3, 5.0, mode="shuffle", partition=1)
        assert json.dumps(m.to_dict(), sort_keys=True) == json.dumps(
            m.to_dict(), sort_keys=True
        )
        assert m.to_dict()["edges"][0][:2] == [1, 3]  # sorted by (src, dst)


class TestExchangeChargesTraffic:
    def test_shuffle_charges_owner_edge(self):
        m = TrafficMatrix("j")
        targets = exchange_targets(
            "shuffle", 3,
            worker_index=0, num_workers=4, owner_of=lambda p: p % 4,
            traffic=m, src_node=10, node_of=lambda w: 20 + w,
            nbytes=64.0, nrecords=4,
        )
        assert targets == [3]
        assert m.edge_bytes(10, 23) == 64.0
        assert m.partition_records() == {3: 4}

    def test_broadcast_charges_every_worker(self):
        m = TrafficMatrix("j")
        exchange_targets(
            "broadcast", 0,
            worker_index=1, num_workers=3,
            traffic=m, src_node=1, node_of=lambda w: w + 1,
            nbytes=10.0, nrecords=1,
        )
        assert m.totals()["broadcast_bytes"] == 30.0
        assert m.payloads == 3

    def test_broadcast_partition_counts_as_broadcast_mode(self):
        m = TrafficMatrix("j")
        exchange_targets(
            "shuffle", -1,  # BROADCAST_PARTITION rides a shuffle edge
            worker_index=0, num_workers=2, owner_of=lambda p: 0,
            traffic=m, src_node=5, node_of=lambda w: w,
            nbytes=8.0, nrecords=1,
        )
        assert m.totals()["broadcast_bytes"] == 16.0
        assert m.totals()["shuffle_bytes"] == 0.0
        assert m.partition_records() == {}  # not a shuffle partition

    def test_charging_requires_resolvers(self):
        with pytest.raises(ValueError):
            exchange_targets(
                "local", 0, worker_index=0, num_workers=1,
                traffic=TrafficMatrix(), nbytes=1.0,
            )

    def test_no_traffic_kwarg_is_free(self):
        assert exchange_targets(
            "local", 0, worker_index=2, num_workers=4
        ) == [2]


class TestSkew:
    def test_stats_balanced(self):
        stats = skew_stats({0: 10.0, 1: 10.0, 2: 10.0})
        assert stats["max_mean_ratio"] == pytest.approx(1.0)
        assert stats["cv"] == pytest.approx(0.0)

    def test_stats_skewed(self):
        stats = skew_stats({0: 1.0, 1: 1.0, 2: 10.0})
        assert stats["max_mean_ratio"] == pytest.approx(10.0 / 4.0)
        assert stats["argmax"] == 2
        assert stats["cv"] > 1.0

    def test_stats_empty_and_zero(self):
        assert skew_stats({})["n"] == 0
        assert skew_stats({0: 0.0})["max_mean_ratio"] == 0.0

    def test_straggler_identification(self):
        sampler = _sampler()
        sampler.record_step(CPU, 1, 0.0, 1.0)
        sampler.record_step(CPU, 1, 2.0, 0.0)  # n1: 2 busy-seconds
        sampler.record_step(CPU, 2, 0.0, 1.0)
        sampler.record_step(CPU, 2, 8.0, 0.0)  # n2: 8 busy-seconds
        sampler.sim.now = 10.0
        report = build_skew_report(sampler, [])
        assert report.stragglers == [2]
        stats = report.sections["cpu_busy_seconds"]["stats"]
        assert stats["max_mean_ratio"] == pytest.approx(8.0 / 5.0)

    def test_report_dict_deterministic(self):
        m = TrafficMatrix("j")
        m.charge(1, 2, 10.0, records=5, mode="shuffle", partition=0)
        report = build_skew_report(_sampler(), [m])
        assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
            report.to_dict(), sort_keys=True
        )
        assert "exchange_tx_bytes" in report.sections


class TestTracedRunTelemetry:
    @pytest.fixture(scope="class")
    def traced(self):
        return _run_traced("hamr")

    def test_timeline_tracks_populated(self, traced):
        env, _result = traced
        timeline = env.obs.timeline
        tracks = timeline.tracks()
        for track in (CPU, DISK, NIC_TX, NIC_RX, MEM_USED, QUEUE):
            assert track in tracks, f"missing telemetry track {track!r}"
        assert timeline.nodes(CPU)
        assert timeline.busy_seconds(CPU, timeline.nodes(CPU)[0]) > 0

    def test_traffic_matrix_populated(self, traced):
        env, _result = traced
        matrices = env.obs.traffic_matrices()
        assert len(matrices) == 1
        matrix = matrices[0]
        assert matrix.total_bytes > 0
        assert matrix.payloads > 0
        totals = env.obs.traffic_totals()
        assert totals["total_bytes"] == pytest.approx(
            matrix.totals()["total_bytes"]
        )

    def test_memory_high_water_time_recorded(self, traced):
        env, _result = traced
        workers = env.cluster.workers
        peaks = [(n.memory.high_water, n.memory.high_water_time) for n in workers]
        assert any(hw > 0 for hw, _t in peaks)
        assert all(t >= 0.0 for _hw, t in peaks)
        assert any(t > 0.0 for hw, t in peaks if hw > 0)

    def test_render_telemetry_sections(self, traced):
        env, _result = traced
        text = render_telemetry(env.obs, title="T")
        assert "CPU slot occupancy" in text
        assert "traffic matrix" in text
        assert "Skew" in text

    def test_telemetry_dict_schema(self, traced):
        env, _result = traced
        d = telemetry_dict(env.obs, "wordcount", "hamr", bins=16)
        assert d["schema"] == TELEMETRY_SCHEMA
        assert d["timeline"]["bins"] == 16
        assert d["traffic_totals"]["total_bytes"] > 0
        assert d["skew"]["sections"]


def test_timeline_cli_document(tmp_path, capsys):
    """What ``timeline`` prints and writes for the tiny KCliques on both
    engines: the heatmap sections, and a document with a CPU track, a
    non-empty shuffle traffic matrix and a skew report per engine."""
    from repro.evaluation.__main__ import main

    out = tmp_path / "timeline.json"
    argv = ["timeline", "--workload", "kcliques", "--fidelity", "tiny", "--engine", "both"]
    assert main([*argv, "--json", str(out)]) == 0
    heat = capsys.readouterr().out
    assert "CPU slot occupancy" in heat
    assert "traffic matrix" in heat
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.obs.timeline/v1", doc["schema"]
    entry = doc["workloads"]["kcliques"]
    for engine in ("hamr", "hadoop"):
        tele = entry[engine]
        assert tele["schema"] == "repro.obs.telemetry/v1"
        assert "cpu" in tele["timeline"]["tracks"], f"{engine}: no cpu track"
        totals = tele["traffic_totals"]
        assert totals["total_bytes"] > 0, f"{engine}: empty traffic matrix"
        assert totals["shuffle_bytes"] > 0, f"{engine}: no shuffle traffic"
        assert tele["skew"]["sections"], f"{engine}: empty skew report"


class TestTelemetryDeterminism:
    def test_two_runs_byte_identical_hamr(self):
        env1, _ = _run_traced("hamr")
        env2, _ = _run_traced("hamr")
        j1 = telemetry_json(env1.obs, "wordcount", "hamr")
        j2 = telemetry_json(env2.obs, "wordcount", "hamr")
        assert j1 == j2

    def test_two_runs_byte_identical_hadoop(self):
        env1, _ = _run_traced("hadoop")
        env2, _ = _run_traced("hadoop")
        j1 = telemetry_json(env1.obs, "wordcount", "hadoop")
        j2 = telemetry_json(env2.obs, "wordcount", "hadoop")
        assert j1 == j2

    @pytest.mark.parametrize("engine", ["hamr", "hadoop"])
    def test_two_runs_byte_identical_twolevel_fabric(self, engine):
        # the rack-aware fabric (racked topology, combining gateways,
        # rerouted hops) must be as deterministic as the direct path
        env1, _ = _run_traced(engine, fabric="twolevel")
        env2, _ = _run_traced(engine, fabric="twolevel")
        j1 = telemetry_json(env1.obs, "wordcount", engine)
        j2 = telemetry_json(env2.obs, "wordcount", engine)
        assert j1 == j2

    def test_chrome_counter_events_deterministic(self):
        env1, _ = _run_traced("hamr")
        env2, _ = _run_traced("hamr")
        c1 = json.dumps(env1.obs.to_chrome_trace(), sort_keys=True)
        c2 = json.dumps(env2.obs.to_chrome_trace(), sort_keys=True)
        assert c1 == c2

    @pytest.mark.parametrize("engine", ["hamr", "hadoop"])
    def test_host_profiling_leaves_telemetry_byte_identical(self, engine):
        env_off, _ = _run_traced(engine)
        env_on, _ = _run_traced(engine, profile=True)
        assert telemetry_json(env_off.obs, "wordcount", engine) == telemetry_json(
            env_on.obs, "wordcount", engine
        )

    def test_both_engines_share_dataplane_accounting(self):
        # The two engines model different systems, so volumes differ — but
        # both must route every payload through the same dataplane charge
        # path: shuffle totals present, every edge a valid worker node.
        for engine in ("hamr", "hadoop"):
            env, _ = _run_traced(engine)
            [matrix] = env.obs.traffic_matrices()
            worker_ids = {n.node_id for n in env.cluster.workers}
            assert set(matrix.nodes()) <= worker_ids, engine
            assert matrix.totals()["shuffle_bytes"] > 0, engine


class TestDisabledTracerTelemetry:
    def test_disabled_tracer_charges_nothing(self):
        tracer = Tracer(Simulator(), enabled=False)
        assert tracer.timeline.enabled is False
        assert tracer.traffic_totals()["total_bytes"] == 0.0
        assert tracer.traffic_matrices() == []
