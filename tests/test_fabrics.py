"""Tests for pluggable exchange fabrics: routing, charging, topology.

Covers the fabric contract (DESIGN.md "Exchange fabrics"): ``plan()`` is
pure routing, ``charge()`` books wire bytes identically at either
engine's historical charge site, ``direct`` reproduces the legacy
single-hop accounting bit-exactly, and the rack-aware / tree / RDMA
fabrics deliver their modeled savings without changing job output.
"""

import json

import pytest

from repro.apps import wordcount
from repro.apps.base import AppEnv
from repro.cluster import Cluster, small_cluster_spec
from repro.common.sizeof import logical_sizeof, pair_size
from repro.core import (
    CollectionSource,
    EdgeMode,
    FlowletGraph,
    HamrEngine,
    Loader,
    Map,
    PartialReduce,
)
from repro.core.engine import HamrConfig
from repro.dataplane import exchange_targets
from repro.dataplane.fabrics import (
    FABRICS,
    DirectFabric,
    RdmaFabric,
    Topology,
    TreeFabric,
    TwoLevelFabric,
    make_fabric,
)
from repro.evaluation.telemetryreport import telemetry_json
from repro.obs.telemetry import TrafficMatrix


# -- topology ---------------------------------------------------------------------


class TestTopology:
    def test_rackless_default(self):
        topo = Topology(8)
        assert not topo.multi_rack
        assert topo.num_racks == 1
        assert topo.rack_of(5) == 0
        assert topo.gateway(0) == 0

    def test_racks_of_two(self):
        topo = Topology(8, 2)
        assert topo.multi_rack
        assert topo.num_racks == 4
        assert topo.rack_of(0) == 0
        assert topo.rack_of(5) == 2
        assert topo.gateway(2) == 4

    def test_uneven_last_rack(self):
        topo = Topology(5, 2)
        assert topo.num_racks == 3
        assert topo.rack_of(4) == 2

    def test_rack_covering_all_workers_is_rackless(self):
        assert not Topology(4, 4).multi_rack
        assert not Topology(4, 0).multi_rack


class TestMakeFabric:
    def test_every_registered_fabric_constructs(self):
        for name in FABRICS:
            fabric = make_fabric(name, topology=Topology(4, 2))
            assert fabric.name == name
            assert fabric.topology.num_workers == 4

    def test_unknown_fabric_rejected(self):
        with pytest.raises(ValueError):
            make_fabric("teleport")


# -- direct fabric: plan shape + legacy charge parity ------------------------------


def _node_of(worker):
    return 20 + worker


class TestDirectFabric:
    def test_shuffle_plan_single_hop(self):
        fabric = DirectFabric()
        plan = fabric.plan(
            "shuffle", 3, worker_index=0, num_workers=4,
            owner_of=lambda p: p % 4, nbytes=64.0, nrecords=4,
        )
        assert plan.mode == "shuffle"
        assert plan.targets == [3]
        [delivery] = plan.deliveries
        [hop] = delivery.hops
        assert (hop.src, hop.dst, hop.nbytes) == (0, 3, 64.0)
        assert plan.wire_bytes == 64.0

    def test_broadcast_plan_one_hop_per_worker(self):
        fabric = DirectFabric()
        plan = fabric.plan(
            "broadcast", 0, worker_index=1, num_workers=3, nbytes=10.0,
        )
        assert plan.targets == [0, 1, 2]
        assert all(len(d.hops) == 1 for d in plan.deliveries)
        assert plan.wire_bytes == 30.0

    @pytest.mark.parametrize(
        "mode,partition",
        [("shuffle", 3), ("broadcast", 0), ("shuffle", -1), ("local", 0)],
    )
    def test_charge_matches_legacy_exchange_targets(self, mode, partition):
        """The refactor moved the charge behind the fabric without moving
        a byte: fabric plan+charge must book exactly what the legacy
        one-shot ``exchange_targets`` call booked, mode and partition
        operands included."""
        kwargs = dict(
            worker_index=1, num_workers=4, owner_of=lambda p: p % 4,
            nbytes=48.0, nrecords=6,
        )
        legacy = TrafficMatrix("j")
        targets = exchange_targets(
            mode, partition, traffic=legacy,
            src_node=_node_of(1), node_of=_node_of, **kwargs,
        )
        fabric = DirectFabric()
        plan = fabric.plan(mode, partition, **kwargs)
        planned = TrafficMatrix("j")
        fabric.charge(plan, planned, node_of=_node_of)
        assert plan.targets == targets
        assert planned.to_dict() == legacy.to_dict()

    def test_charge_site_invariant(self):
        """Charging the same plan at HAMR's site (right after planning)
        and at Hadoop's site (after unrelated charges landed in between)
        books identical wire bytes — the plan fully determines the
        charge, call order only interleaves independent entries."""
        fabric = DirectFabric()
        plan = fabric.plan(
            "shuffle", 2, worker_index=0, num_workers=4,
            owner_of=lambda p: p % 4, nbytes=100.0, nrecords=10,
        )
        at_plan_time = TrafficMatrix("j")
        fabric.charge(plan, at_plan_time, node_of=_node_of)

        after_fetch = TrafficMatrix("j")
        # Hadoop charges DISK/NETWORK blame first; traffic entries from
        # other payloads may land in between — they must not perturb
        # this plan's booking.
        after_fetch.charge(_node_of(3), _node_of(3), 7.0, mode="local")
        fabric.charge(plan, after_fetch, node_of=_node_of)
        assert after_fetch.edge_bytes(_node_of(0), _node_of(2)) == (
            at_plan_time.edge_bytes(_node_of(0), _node_of(2))
        )
        assert (
            after_fetch.totals()["shuffle_bytes"]
            == at_plan_time.totals()["shuffle_bytes"]
            == 100.0
        )

    def test_charge_scale_applies_per_hop(self):
        fabric = DirectFabric()
        plan = fabric.plan(
            "broadcast", 0, worker_index=0, num_workers=3, nbytes=8.0,
        )
        m = TrafficMatrix("j")
        fabric.charge(plan, m, node_of=_node_of, scale=lambda b: b * 2.5)
        assert m.totals()["broadcast_bytes"] == 3 * 8.0 * 2.5

    def test_charge_none_traffic_is_noop(self):
        fabric = DirectFabric()
        plan = fabric.plan(
            "shuffle", 0, worker_index=0, num_workers=2, owner_of=lambda p: 0,
            nbytes=4.0,
        )
        fabric.charge(plan, None, node_of=_node_of)  # must not raise

    def test_rdma_is_direct_with_zero_serde(self):
        assert RdmaFabric().serde_factor == 0.0
        assert DirectFabric().serde_factor == 1.0
        plan_d = DirectFabric().plan(
            "shuffle", 1, worker_index=0, num_workers=4,
            owner_of=lambda p: p, nbytes=16.0,
        )
        plan_r = RdmaFabric().plan(
            "shuffle", 1, worker_index=0, num_workers=4,
            owner_of=lambda p: p, nbytes=16.0,
        )
        assert [(h.src, h.dst, h.nbytes) for d in plan_r.deliveries for h in d.hops] == [
            (h.src, h.dst, h.nbytes) for d in plan_d.deliveries for h in d.hops
        ]


# -- tree fabric ------------------------------------------------------------------


class TestTreeFabric:
    def _broadcast_plan(self, num_workers, root):
        fabric = TreeFabric(Topology(num_workers))
        return fabric.plan(
            "broadcast", 0, worker_index=root, num_workers=num_workers,
            nbytes=10.0,
        )

    @pytest.mark.parametrize("root", [0, 3, 7])
    def test_binomial_schedule_reaches_everyone_once(self, root):
        n = 8
        plan = self._broadcast_plan(n, root)
        assert sorted(plan.targets) == list(range(n))
        by_target = {d.target: d.hops for d in plan.deliveries}
        assert by_target[root] == []  # the root already holds the payload
        # one tree edge per non-root worker: N-1 timed hops total
        assert sum(len(h) for h in by_target.values()) == n - 1
        # every non-root target receives on its own single hop
        for target, hops in by_target.items():
            if target == root:
                continue
            [hop] = hops
            assert hop.dst == target
        # root sends exactly log2(N) copies down its subtrees
        root_sends = sum(
            1 for hops in by_target.values() for h in hops if h.src == root
        )
        assert root_sends == 3  # log2(8)

    @pytest.mark.parametrize("root", [0, 2, 5])
    def test_tree_parents_chain_to_root(self, root):
        n = 6
        plan = self._broadcast_plan(n, root)
        by_target = {d.target: d.hops for d in plan.deliveries}
        for target in range(n):
            if target == root:
                continue
            node, seen = target, set()
            while node != root:
                assert node not in seen, "cycle in broadcast tree"
                seen.add(node)
                [hop] = by_target[node]
                node = hop.src
            assert len(seen) <= n - 1

    def test_broadcast_wire_bytes_drop_vs_direct(self):
        n = 8
        tree = self._broadcast_plan(n, 0)
        direct = DirectFabric().plan(
            "broadcast", 0, worker_index=0, num_workers=n, nbytes=10.0,
        )
        assert tree.wire_bytes == (n - 1) * 10.0
        assert direct.wire_bytes == n * 10.0

    def test_shuffle_routes_direct(self):
        fabric = TreeFabric(Topology(4))
        plan = fabric.plan(
            "shuffle", 2, worker_index=0, num_workers=4,
            owner_of=lambda p: p % 4, nbytes=32.0,
        )
        [delivery] = plan.deliveries
        assert [(h.src, h.dst) for h in delivery.hops] == [(0, 2)]


# -- twolevel fabric --------------------------------------------------------------


class TestTwoLevelFabric:
    def _fabric(self, num_workers=4, rack_size=2):
        return TwoLevelFabric(Topology(num_workers, rack_size))

    def test_rackless_degrades_to_direct(self):
        fabric = TwoLevelFabric(Topology(4))
        plan = fabric.plan(
            "shuffle", 3, worker_index=0, num_workers=4,
            owner_of=lambda p: p % 4, nbytes=16.0,
        )
        [delivery] = plan.deliveries
        assert [(h.src, h.dst, h.nbytes) for h in delivery.hops] == [(0, 3, 16.0)]

    def test_remote_shuffle_routes_via_gateways(self):
        fabric = self._fabric()
        plan = fabric.plan(
            "shuffle", 3, worker_index=1, num_workers=4,
            owner_of=lambda p: p % 4, nbytes=16.0,
            records=[("k", 1)], stream="s",
        )
        [delivery] = plan.deliveries
        # worker 1 (rack 0) -> gateway 0 -> gateway 2 -> worker 3 (rack 1)
        assert [(h.src, h.dst) for h in delivery.hops] == [(1, 0), (0, 2), (2, 3)]
        assert all(h.nbytes == 16.0 for h in delivery.hops)  # unseen key: full

    def test_gateway_endpoints_skip_self_hops(self):
        fabric = self._fabric()
        plan = fabric.plan(
            "shuffle", 2, worker_index=0, num_workers=4,
            owner_of=lambda p: p % 4, nbytes=16.0,
        )
        [delivery] = plan.deliveries
        # src 0 IS rack 0's gateway, dst 2 IS rack 1's gateway: one hop
        assert [(h.src, h.dst) for h in delivery.hops] == [(0, 2)]

    def test_intra_rack_shuffle_stays_direct(self):
        fabric = self._fabric()
        plan = fabric.plan(
            "shuffle", 1, worker_index=0, num_workers=4,
            owner_of=lambda p: p % 4, nbytes=16.0,
        )
        [delivery] = plan.deliveries
        assert [(h.src, h.dst) for h in delivery.hops] == [(0, 1)]

    def test_aggregated_repeat_key_crosses_free(self):
        fabric = self._fabric()
        kwargs = dict(
            worker_index=1, num_workers=4, owner_of=lambda p: p % 4,
            records=[("k", 1)], aggregated=True, stream="e0",
        )
        nbytes = float(pair_size("k", 1))
        first = fabric.plan("shuffle", 3, nbytes=nbytes, **kwargs)
        second = fabric.plan("shuffle", 3, nbytes=nbytes, **kwargs)
        inter_first = first.deliveries[0].hops[1]
        inter_second = second.deliveries[0].hops[1]
        assert (inter_first.src, inter_first.dst) == (0, 2)
        assert inter_first.nbytes == nbytes
        assert inter_second.nbytes == 0.0  # folded into the combined record
        assert fabric.inter_rack_bytes_saved == pytest.approx(nbytes)

    def test_non_aggregated_repeat_still_ships_value(self):
        fabric = self._fabric()
        kwargs = dict(
            worker_index=1, num_workers=4, owner_of=lambda p: p % 4,
            records=[("key", 7)], aggregated=False, stream="e0",
        )
        nbytes = float(pair_size("key", 7))
        fabric.plan("shuffle", 3, nbytes=nbytes, **kwargs)
        second = fabric.plan("shuffle", 3, nbytes=nbytes, **kwargs)
        expected = nbytes * (nbytes - logical_sizeof("key")) / nbytes
        assert second.deliveries[0].hops[1].nbytes == pytest.approx(expected)

    def test_dedup_is_scoped_per_stream_and_rack_pair(self):
        fabric = self._fabric()
        kwargs = dict(
            worker_index=1, num_workers=4, owner_of=lambda p: p % 4,
            records=[("k", 1)], aggregated=True,
        )
        nbytes = float(pair_size("k", 1))
        fabric.plan("shuffle", 3, nbytes=nbytes, stream="e0", **kwargs)
        other_stream = fabric.plan("shuffle", 3, nbytes=nbytes, stream="e1", **kwargs)
        # a different logical exchange pays full freight again
        assert other_stream.deliveries[0].hops[1].nbytes == nbytes

    def test_broadcast_crosses_each_remote_rack_once(self):
        fabric = self._fabric(num_workers=6, rack_size=2)
        plan = fabric.plan(
            "broadcast", 0, worker_index=0, num_workers=6, nbytes=10.0,
        )
        topo = fabric.topology
        inter_hops = [
            h for d in plan.deliveries for h in d.hops
            if topo.rack_of(h.src) != topo.rack_of(h.dst)
        ]
        # two remote racks, one crossing each
        assert len(inter_hops) == 2
        assert sorted(h.dst for h in inter_hops) == [2, 4]  # the gateways
        assert sorted(plan.targets) == list(range(6))


# -- engine integration -----------------------------------------------------------


def _run_app(
    engine="hamr", target_bytes=30_000, num_workers=4, block_size=None, **env_kw
):
    params = wordcount.WordCountParams(target_bytes=target_bytes, seed=0)
    records = wordcount.generate_input(params)
    spec = small_cluster_spec(num_workers=num_workers)
    if block_size is not None:
        # shrink DFS blocks so tiny inputs still split into several map
        # tasks (the combining gateway needs repeated keys per rack pair)
        from dataclasses import replace

        spec = replace(spec, cost=replace(spec.cost, hdfs_block_size=block_size))
    env = AppEnv(spec, obs=True, **env_kw)
    runner = wordcount.run_hamr if engine == "hamr" else wordcount.run_hadoop
    result = runner(env, params, records)
    return env, result


class TestEngineFabricRuns:
    @pytest.fixture(scope="class")
    def direct_runs(self):
        return {engine: _run_app(engine) for engine in ("hamr", "hadoop")}

    @pytest.mark.parametrize("fabric", ["tree", "twolevel", "rdma"])
    @pytest.mark.parametrize("engine", ["hamr", "hadoop"])
    def test_fabrics_preserve_output(self, direct_runs, engine, fabric):
        _env, result = _run_app(engine, fabric=fabric)
        _denv, direct = direct_runs[engine]
        assert result.output == direct.output

    @pytest.mark.parametrize("engine", ["hamr", "hadoop"])
    def test_explicit_direct_is_byte_identical_to_default(self, direct_runs, engine):
        env, result = _run_app(engine, fabric="direct")
        denv, direct = direct_runs[engine]
        assert result.makespan == direct.makespan
        assert telemetry_json(env.obs, "wordcount", engine) == telemetry_json(
            denv.obs, "wordcount", engine
        )

    @pytest.mark.parametrize("engine", ["hamr", "hadoop"])
    def test_rdma_skips_serde_but_moves_identical_bytes(self, direct_runs, engine):
        env, result = _run_app(engine, fabric="rdma")
        denv, direct = direct_runs[engine]
        if engine == "hamr":
            # zero-copy exchange: strictly less virtual time
            assert result.makespan < direct.makespan
        else:
            # Hadoop serializes map output to *disk* (its serde charge
            # predates the exchange), so a zero-copy wire changes nothing
            assert result.makespan == direct.makespan
        assert env.obs.traffic_totals() == denv.obs.traffic_totals()

    @pytest.mark.parametrize("engine", ["hamr", "hadoop"])
    def test_twolevel_cuts_inter_rack_bytes(self, engine):
        # several map tasks per run: the gateway dedup needs the same key
        # crossing a rack pair more than once (4 KB blocks force ~8 maps)
        block = 4 * 1024 if engine == "hadoop" else None
        denv, _ = _run_app(engine, rack_size=2, block_size=block)
        tenv, _ = _run_app(engine, fabric="twolevel", rack_size=2, block_size=block)
        direct_net, two_net = denv.cluster.network, tenv.cluster.network
        assert direct_net.inter_rack_bytes > 0
        assert two_net.inter_rack_bytes < direct_net.inter_rack_bytes
        # the combining gateway's savings surface in the traffic matrix too
        direct_tm = denv.obs.traffic_totals()["inter_rack_bytes"]
        two_tm = tenv.obs.traffic_totals()["inter_rack_bytes"]
        assert two_tm < direct_tm

    def test_rackless_totals_omit_inter_rack_key(self):
        env, _ = _run_app("hamr")
        assert "inter_rack_bytes" not in env.obs.traffic_totals()

    @pytest.mark.parametrize("fabric", ["tree", "twolevel", "rdma"])
    def test_determinism_off_direct(self, fabric):
        env1, r1 = _run_app("hamr", fabric=fabric, rack_size=2)
        env2, r2 = _run_app("hamr", fabric=fabric, rack_size=2)
        assert r1.makespan == r2.makespan
        assert telemetry_json(env1.obs, "wordcount", "hamr") == telemetry_json(
            env2.obs, "wordcount", "hamr"
        )


class TestTrafficClassSplit:
    """Broadcast/shuffle/local accounting survives every fabric."""

    def _class_graph(self):
        pairs = [(f"k{i % 5}", i) for i in range(40)]
        g = FlowletGraph("classes")
        loader = g.add(Loader("load", CollectionSource(pairs)))
        tag = g.add(Map("tag", fn=lambda ctx, k, v: ctx.emit(k, v)))
        count = g.add(
            PartialReduce(
                "count", initial=lambda _k: 0, combine=lambda a, v: a + v,
                aggregated_output=True,
            )
        )
        announce = g.add(Map("announce", fn=lambda ctx, k, v: ctx.emit(k, v)))
        g.connect(loader, tag, mode=EdgeMode.LOCAL)
        g.connect(tag, count)
        g.connect(count, announce, mode=EdgeMode.BROADCAST)
        return g

    def _run(self, fabric, rack_size=0):
        spec = small_cluster_spec(num_workers=4)
        if rack_size:
            spec = spec.with_racks(rack_size)
        cluster = Cluster(spec, obs=True)
        engine = HamrEngine(cluster, config=HamrConfig(fabric=fabric))
        result = engine.run(self._class_graph())
        return cluster, result

    @pytest.mark.parametrize("fabric", FABRICS)
    def test_every_class_charged(self, fabric):
        cluster, result = self._run(fabric, rack_size=2)
        totals = cluster.obs.traffic_totals()
        assert totals["local_bytes"] > 0, fabric
        assert totals["shuffle_bytes"] > 0, fabric
        assert totals["broadcast_bytes"] > 0, fabric
        assert result.makespan > 0

    def test_tree_shrinks_broadcast_class_only(self):
        direct_cluster, _ = self._run("direct")
        tree_cluster, _ = self._run("tree")
        direct_totals = direct_cluster.obs.traffic_totals()
        tree_totals = tree_cluster.obs.traffic_totals()
        assert tree_totals["broadcast_bytes"] < direct_totals["broadcast_bytes"]
        assert tree_totals["shuffle_bytes"] == direct_totals["shuffle_bytes"]
        assert tree_totals["local_bytes"] == direct_totals["local_bytes"]

    def test_rdma_totals_match_direct(self):
        direct_cluster, _ = self._run("direct")
        rdma_cluster, _ = self._run("rdma")
        assert rdma_cluster.obs.traffic_totals() == (
            direct_cluster.obs.traffic_totals()
        )

    def test_per_edge_fabric_override(self):
        """Edge.fabric overrides the engine default on that edge alone."""
        pairs = [(f"k{i % 5}", i) for i in range(40)]
        g = FlowletGraph("override")
        loader = g.add(Loader("load", CollectionSource(pairs)))
        count = g.add(
            PartialReduce(
                "count", initial=lambda _k: 0, combine=lambda a, v: a + v,
                aggregated_output=True,
            )
        )
        announce = g.add(Map("announce", fn=lambda ctx, k, v: ctx.emit(k, v)))
        g.connect(loader, count)
        g.connect(count, announce, mode=EdgeMode.BROADCAST, fabric="tree")
        cluster = Cluster(small_cluster_spec(num_workers=4), obs=True)
        engine = HamrEngine(cluster)  # engine default stays direct
        engine.run(g)
        g2 = FlowletGraph("override")
        loader2 = g2.add(Loader("load", CollectionSource(pairs)))
        count2 = g2.add(
            PartialReduce(
                "count", initial=lambda _k: 0, combine=lambda a, v: a + v,
                aggregated_output=True,
            )
        )
        announce2 = g2.add(Map("announce", fn=lambda ctx, k, v: ctx.emit(k, v)))
        g2.connect(loader2, count2)
        g2.connect(count2, announce2, mode=EdgeMode.BROADCAST)
        cluster2 = Cluster(small_cluster_spec(num_workers=4), obs=True)
        HamrEngine(cluster2).run(g2)
        tree_bcast = cluster.obs.traffic_totals()["broadcast_bytes"]
        direct_bcast = cluster2.obs.traffic_totals()["broadcast_bytes"]
        assert tree_bcast < direct_bcast


class TestShardPartitionerSpillReroute:
    """Satellite: a shard-aware partitioner must move the Hadoop reducer —
    and its ``spill_pool.for_node`` manager — to the owning node."""

    def test_reducers_and_spills_land_on_owner_nodes(self):
        env, result = _run_app("hadoop", target_bytes=8_000, partitioner="shard")
        owners = env.cluster.partition_owners
        assert owners, "shard partitioner must install partition owners"
        assert len(owners) < env.cluster.num_workers, (
            "test input must be sparse enough that some workers hold no "
            "shards (otherwise the reroute is unobservable)"
        )
        owner_nodes = {
            env.cluster.workers[index].node_id for index in owners
        }
        reduce_spans = [
            s for s in env.obs.spans if s.cat == "task" and s.name == "reduce"
        ]
        assert reduce_spans
        assert all(s.node in owner_nodes for s in reduce_spans), (
            "every reducer (hence its SpillManager node) must sit on an "
            "input-shard owner"
        )

    def test_hash_default_keeps_round_robin_layout(self):
        env, _ = _run_app("hadoop")
        assert env.cluster.partition_owners is None
        reduce_spans = [
            s for s in env.obs.spans if s.cat == "task" and s.name == "reduce"
        ]
        nodes = {s.node for s in reduce_spans}
        worker_ids = {w.node_id for w in env.cluster.workers}
        assert nodes == worker_ids, "hash layout spreads reducers everywhere"

    def test_shard_and_hash_agree_on_output(self):
        _, hashed = _run_app("hadoop", target_bytes=8_000)
        _, sharded = _run_app("hadoop", target_bytes=8_000, partitioner="shard")
        assert hashed.output == sharded.output

    def test_hamr_shard_partitioner_matches_hash_output(self):
        _, hashed = _run_app("hamr", target_bytes=8_000)
        _, sharded = _run_app("hamr", target_bytes=8_000, partitioner="shard")
        assert hashed.output == sharded.output


class TestFabricDiffKeying:
    """Bench entries recorded off-direct must never gate against a direct
    baseline row in ``diff`` (they land as only_a/only_b instead)."""

    def _bench(self, fabric=None):
        entry = {"virtual_seconds": 45.0, "blame": {"network": 1.0}}
        if fabric is not None:
            entry["fabric"] = fabric
        return {
            "schema": "repro.obs.bench/v5",
            "fidelity": "tiny",
            "rows": {"wordcount": {"hamr": entry}},
        }

    def test_non_direct_entry_keys_engine_at_fabric(self):
        from repro.obs.diff import normalize

        rows = normalize(self._bench("twolevel"))
        assert list(rows["wordcount"]) == ["hamr@twolevel"]

    def test_direct_and_absent_fabric_share_the_legacy_key(self):
        from repro.obs.diff import normalize

        assert list(normalize(self._bench())["wordcount"]) == ["hamr"]
        assert list(normalize(self._bench("direct"))["wordcount"]) == ["hamr"]

    def test_cross_fabric_rows_never_compared(self):
        from repro.obs.diff import diff_artifacts, normalize

        result = diff_artifacts(
            normalize(self._bench()), normalize(self._bench("twolevel"))
        )
        # the keys don't intersect: no comparison, hence no false drift
        assert result.rows["wordcount"] == {}
        assert not result.drift


@pytest.mark.parametrize(
    "flags,stamp",
    [(("--fabric", fabric), {"fabric": fabric}) for fabric in ("tree", "twolevel", "rdma")]
    + [(("--partitioner", "shard"), {"partitioner": "shard"})],
    ids=["tree", "twolevel", "rdma", "shard"],
)
def test_off_default_report_completes_and_stamps_its_configuration(
    flags, stamp, tmp_path, capsys
):
    """Every off-default exchange configuration completes the tiny WordCount
    on both engines, and the report document carries exactly the fields
    that are not the default."""
    from repro.evaluation.__main__ import main

    out = tmp_path / "report.json"
    argv = ["report", "--workload", "wordcount", "--fidelity", "tiny", *flags]
    assert main([*argv, "--json", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert {key: report[key] for key in ("fabric", "partitioner") if key in report} == stamp
    for engine in ("hamr", "hadoop"):
        entry = report["engines"][engine]
        assert entry["virtual_end"] > 0, engine
        assert entry["trace_dropped"] == 0, engine
