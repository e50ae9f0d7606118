"""Tests for simulated resources."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.sim import BandwidthResource, Resource, SerializedCell, Simulator
from repro.sim.resources import StripedBandwidth


class TestResource:
    def test_grant_immediately_when_free(self):
        sim = Simulator()
        pool = Resource(sim, capacity=4)
        done = []

        def proc(sim):
            yield pool.acquire(2)
            done.append(sim.now)
            pool.release(2)

        sim.spawn(proc(sim))
        sim.run()
        assert done == [0.0]
        assert pool.in_use == 0

    def test_serializes_when_exhausted(self):
        sim = Simulator()
        pool = Resource(sim, capacity=1)
        finish = []

        def proc(sim, tag):
            yield pool.acquire()
            yield 5.0
            pool.release()
            finish.append((tag, sim.now))

        sim.spawn(proc(sim, "a"))
        sim.spawn(proc(sim, "b"))
        sim.run()
        assert finish == [("a", 5.0), ("b", 10.0)]

    def test_parallelism_up_to_capacity(self):
        sim = Simulator()
        pool = Resource(sim, capacity=3)

        def proc(sim):
            yield pool.acquire()
            yield 5.0
            pool.release()

        for _ in range(6):
            sim.spawn(proc(sim))
        assert sim.run() == 10.0
        assert pool.total_acquired == 6

    def test_fifo_grant_order(self):
        sim = Simulator()
        pool = Resource(sim, capacity=1)
        order = []

        def proc(sim, tag):
            yield pool.acquire()
            order.append(tag)
            yield 1.0
            pool.release()

        for tag in "abcd":
            sim.spawn(proc(sim, tag))
        sim.run()
        assert order == list("abcd")

    def test_over_release_rejected(self):
        sim = Simulator()
        pool = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            pool.release()

    def test_acquire_more_than_capacity_rejected(self):
        sim = Simulator()
        pool = Resource(sim, capacity=2)
        with pytest.raises(SimulationError):
            pool.acquire(3)

    def test_utilization(self):
        sim = Simulator()
        pool = Resource(sim, capacity=2)

        def proc(sim):
            yield pool.acquire(2)
            yield 10.0
            pool.release(2)
            yield 10.0  # idle tail

        def main(sim):
            yield sim.spawn(proc(sim))

        sim.spawn(main(sim))
        sim.run()
        assert pool.utilization() == pytest.approx(0.5)


class TestBandwidthResource:
    def test_single_transfer_time(self):
        sim = Simulator()
        disk = BandwidthResource(sim, bandwidth=100.0, latency=1.0)
        done = []

        def proc(sim):
            yield disk.transfer(500)
            done.append(sim.now)

        sim.spawn(proc(sim))
        sim.run()
        assert done == [6.0]  # 1s latency + 500/100

    def test_transfers_serialize(self):
        sim = Simulator()
        disk = BandwidthResource(sim, bandwidth=100.0)
        times = []

        def proc(sim):
            yield disk.transfer(200)
            times.append(sim.now)
            # submitted by a second process at t=0 (below)

        def proc2(sim):
            yield disk.transfer(300)
            times.append(sim.now)

        sim.spawn(proc(sim))
        sim.spawn(proc2(sim))
        sim.run()
        assert times == [2.0, 5.0]

    def test_metrics(self):
        sim = Simulator()
        disk = BandwidthResource(sim, bandwidth=10.0)

        def proc(sim):
            yield disk.transfer(50)
            yield disk.transfer(50)

        sim.spawn(proc(sim))
        sim.run()
        assert disk.total_bytes == 100
        assert disk.total_ops == 2
        assert disk.utilization() == pytest.approx(1.0)

    def test_zero_byte_transfer_has_latency_only(self):
        sim = Simulator()
        nic = BandwidthResource(sim, bandwidth=1e9, latency=0.001)

        def proc(sim):
            yield nic.transfer(0)

        sim.spawn(proc(sim))
        assert sim.run() == pytest.approx(0.001)

    @given(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=20),
        st.floats(min_value=1.0, max_value=1e6),
    )
    def test_makespan_is_total_bytes_over_bandwidth(self, sizes, bw):
        sim = Simulator()
        disk = BandwidthResource(sim, bandwidth=bw)

        def proc(sim, n):
            yield disk.transfer(n)

        for n in sizes:
            sim.spawn(proc(sim, n))
        assert sim.run() == pytest.approx(sum(sizes) / bw)


class TestSerializedCell:
    def test_updates_serialize(self):
        sim = Simulator()
        cell = SerializedCell(sim, update_cost=0.5)
        times = []

        def proc(sim):
            yield cell.update()
            times.append(sim.now)

        for _ in range(4):
            sim.spawn(proc(sim))
        sim.run()
        assert times == [0.5, 1.0, 1.5, 2.0]
        assert cell.total_updates == 4

    def test_batched_updates(self):
        sim = Simulator()
        cell = SerializedCell(sim, update_cost=0.1)

        def proc(sim):
            yield cell.update(10)

        sim.spawn(proc(sim))
        assert sim.run() == pytest.approx(1.0)

    def test_zero_cost_is_instant(self):
        sim = Simulator()
        cell = SerializedCell(sim, update_cost=0.0)

        def proc(sim):
            yield cell.update(1000)

        sim.spawn(proc(sim))
        assert sim.run() == 0.0


class TestStripedBandwidth:
    def test_stripes_across_devices(self):
        sim = Simulator()
        disks = [BandwidthResource(sim, bandwidth=100.0) for _ in range(5)]
        striped = StripedBandwidth(disks, stripe_unit=10)

        def proc(sim):
            yield striped.transfer(1000)

        sim.spawn(proc(sim))
        # 1000 bytes over 5 disks at 100 B/s each → 200/100 = 2s, not 10s
        assert sim.run() == pytest.approx(2.0)
        assert striped.total_bytes == 1000

    def test_small_transfer_single_device(self):
        sim = Simulator()
        disks = [BandwidthResource(sim, bandwidth=100.0) for _ in range(2)]
        striped = StripedBandwidth(disks, stripe_unit=1000)

        def proc(sim):
            yield striped.transfer(100)
            yield striped.transfer(100)

        sim.spawn(proc(sim))
        sim.run()
        # round-robin: one op per device
        assert disks[0].total_ops == 1
        assert disks[1].total_ops == 1
