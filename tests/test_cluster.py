"""Tests for the cluster substrate: specs, nodes, memory, network, YARN."""

import pytest

from repro.common.errors import ConfigError, MemoryBudgetExceeded
from repro.common.units import GB, MB
from repro.cluster import (
    Cluster,
    ClusterSpec,
    CostModel,
    MemoryAccount,
    NodeSpec,
    PAPER_CLUSTER,
    paper_cluster_spec,
    small_cluster_spec,
)


class TestSpecs:
    def test_paper_cluster_matches_table1(self):
        spec = PAPER_CLUSTER
        assert spec.num_nodes == 16
        assert spec.num_workers == 15
        assert spec.node.memory == 32 * GB
        assert spec.node.num_disks == 5
        assert spec.node.cpu_ghz == 2.0

    def test_aggregate_disk_bandwidth(self):
        node = NodeSpec()
        assert node.aggregate_disk_bandwidth == 5 * 150.0 * MB

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            NodeSpec(worker_threads=0)
        with pytest.raises(ConfigError):
            ClusterSpec(num_nodes=1)
        with pytest.raises(ConfigError):
            CostModel(scale=0)

    def test_with_scale_is_pure(self):
        scaled = paper_cluster_spec(scale=1000.0)
        assert scaled.cost.scale == 1000.0
        assert PAPER_CLUSTER.cost.scale == 1.0

    def test_cost_helpers_scale(self):
        cost = CostModel(scale=10.0, cpu_per_record=1e-6, cpu_per_byte=0.0)
        assert cost.cpu_cost(100, 0) == pytest.approx(10.0 * 100 * 1e-6)
        assert cost.scaled_bytes(5) == 50.0


class TestMemoryAccount:
    def test_allocate_and_free(self):
        mem = MemoryAccount(100)
        assert mem.allocate(60)
        assert mem.used == 60
        assert not mem.allocate(50)
        assert mem.failed_allocations == 1
        mem.free(60)
        assert mem.used == 0
        assert mem.high_water == 60

    def test_force_allocate_raises(self):
        mem = MemoryAccount(10)
        with pytest.raises(MemoryBudgetExceeded):
            mem.force_allocate(11)

    def test_over_free_rejected(self):
        mem = MemoryAccount(10)
        with pytest.raises(ValueError):
            mem.free(1)

    def test_pressure(self):
        mem = MemoryAccount(100)
        mem.allocate(25)
        assert mem.pressure == 0.25
        assert mem.available == 75


class TestCluster:
    def test_layout(self):
        cluster = Cluster(small_cluster_spec(num_workers=4))
        assert cluster.master.node_id == 0
        assert cluster.num_workers == 4
        assert [n.node_id for n in cluster.workers] == [1, 2, 3, 4]
        assert cluster.worker(2).node_id == 3

    def test_partition_ownership_round_robin(self):
        cluster = Cluster(small_cluster_spec(num_workers=3))
        owners = [cluster.owner_of_partition(p, 6).node_id for p in range(6)]
        assert owners == [1, 2, 3, 1, 2, 3]

    def test_partition_out_of_range(self):
        cluster = Cluster(small_cluster_spec(num_workers=3))
        with pytest.raises(ValueError):
            cluster.owner_of_partition(6, 6)

    def test_default_partitioner_covers_workers(self):
        cluster = Cluster(small_cluster_spec(num_workers=4))
        p = cluster.default_partitioner()
        assert p.num_partitions == 4

    def test_scaled_node_costs(self):
        spec = small_cluster_spec(num_workers=2, scale=100.0)
        cluster = Cluster(spec)
        node = cluster.worker(0)
        done = []

        def proc(sim):
            yield node.disk_read(1024)
            done.append(cluster.sim.now)

        cluster.sim.spawn(proc(cluster.sim))
        cluster.sim.run()
        # 1024 bytes at scale 100 = 102400 bytes at 150MB/s + 4ms latency
        expected = 0.004 + 102400 / (150.0 * MB)
        assert done == [pytest.approx(expected)]

    def test_striped_disk_read_runs_at_aggregate_bandwidth(self):
        # a Table 1 node stripes 3 GB over its 5 disks: 750 MB/s + 4ms latency
        cluster = Cluster(PAPER_CLUSTER)
        node = cluster.worker(0)

        def proc(sim):
            yield node.disk_read(3 * GB)

        cluster.sim.spawn(proc(cluster.sim))
        assert cluster.sim.run() == pytest.approx(0.004 + 3 * GB / (5 * 150.0 * MB))

    def test_memory_accounting_scaled(self):
        cluster = Cluster(small_cluster_spec(num_workers=2, memory=1000, scale=10.0))
        node = cluster.worker(0)
        assert node.alloc(99)  # 990 scaled
        assert not node.alloc(2)  # would exceed 1000
        node.free(99)
        assert node.memory.used == 0


class TestNetwork:
    def test_remote_send_charges_both_nics(self):
        cluster = Cluster(small_cluster_spec(num_workers=2))
        a, b = cluster.worker(0), cluster.worker(1)
        done = []

        def proc(sim):
            yield cluster.network.send(a, b, 1500 * MB)
            done.append(sim.now)

        cluster.sim.spawn(proc(cluster.sim))
        cluster.sim.run()
        # 1500MB at 1.5GB/s = ~0.9766s through each NIC serially + latency
        assert done[0] == pytest.approx(2 * (1500 * MB) / (1.5 * GB) + 50e-6)
        assert cluster.network.total_bytes == 1500 * MB
        assert cluster.network.cross_traffic_fraction() == 1.0

    def test_local_send_is_cheap(self):
        cluster = Cluster(small_cluster_spec(num_workers=2))
        a = cluster.worker(0)
        done = []

        def proc(sim):
            yield cluster.network.send(a, a, 1000)
            done.append(sim.now)

        cluster.sim.spawn(proc(cluster.sim))
        cluster.sim.run()
        assert done[0] < 1e-5
        assert cluster.network.cross_traffic_fraction() == 0.0

    def test_concurrent_sends_share_egress(self):
        cluster = Cluster(small_cluster_spec(num_workers=3))
        a = cluster.worker(0)
        finish = []

        def proc(sim, dst):
            yield cluster.network.send(a, dst, 1500 * MB)
            finish.append(sim.now)

        cluster.sim.spawn(proc(cluster.sim, cluster.worker(1)))
        cluster.sim.spawn(proc(cluster.sim, cluster.worker(2)))
        cluster.sim.run()
        # Both serialize on a's egress: second cannot finish at the same time.
        assert finish[1] > finish[0]


class TestResourceManager:
    def test_grant_and_release(self):
        cluster = Cluster(small_cluster_spec(num_workers=2, memory=1 * GB))
        rm = cluster.resource_manager
        node = cluster.worker(0)
        grants = []

        def proc(sim):
            container = yield rm.request(node, 600 * MB)
            grants.append((sim.now, container.container_id))
            yield 5.0
            rm.release(container)

        def proc2(sim):
            container = yield rm.request(node, 600 * MB)
            grants.append((sim.now, container.container_id))
            rm.release(container)

        cluster.sim.spawn(proc(cluster.sim))
        cluster.sim.spawn(proc2(cluster.sim))
        cluster.sim.run()
        # Second container cannot fit until the first releases at t=5.
        assert grants[0][0] == 0.0
        assert grants[1][0] == 5.0
        assert rm.available(node.node_id) == 1 * GB

    def test_oversized_request_rejected(self):
        cluster = Cluster(small_cluster_spec(num_workers=2, memory=1 * GB))
        with pytest.raises(ConfigError):
            cluster.resource_manager.request(cluster.worker(0), 2 * GB)

    def test_double_release_rejected(self):
        cluster = Cluster(small_cluster_spec(num_workers=2, memory=1 * GB))
        rm = cluster.resource_manager
        node = cluster.worker(0)
        state = {}

        def proc(sim):
            container = yield rm.request(node, MB)
            state["c"] = container
            rm.release(container)

        cluster.sim.spawn(proc(cluster.sim))
        cluster.sim.run()
        with pytest.raises(ConfigError):
            rm.release(state["c"])
