"""Edge-case tests for the simulation kernel and substrate pieces that the
engine paths don't exercise directly."""

import pytest

from repro.common.errors import SimulationError
from repro.core import Edge, EdgeMode, Map
from repro.core.bins import Bin, BinPacker
from repro.sim import BandwidthResource, SerializedCell, Simulator, SimQueue


class TestEventFailures:
    def test_all_of_fails_with_first_failure(self):
        sim = Simulator()
        caught = []

        def failer(sim):
            yield 1.0
            raise ValueError("child died")

        def parent(sim):
            child = sim.spawn(failer(sim))
            try:
                yield sim.all_of([sim.timeout(5), child.completion])
            except ValueError as exc:
                caught.append((sim.now, str(exc)))

        sim.spawn(parent(sim))
        sim.run()
        assert caught == [(1.0, "child died")]

    def test_any_of_failure_propagates(self):
        sim = Simulator()
        caught = []

        def failer(sim):
            yield 1.0
            raise RuntimeError("fast failure")

        def parent(sim):
            child = sim.spawn(failer(sim))
            try:
                yield sim.any_of([sim.timeout(10), child.completion])
            except RuntimeError:
                caught.append(sim.now)

        sim.spawn(parent(sim))
        sim.run()
        assert caught == [1.0]

    def test_any_of_requires_events(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.any_of([])

    def test_join_after_completion(self):
        sim = Simulator()
        got = []

        def quick(sim):
            yield 1.0
            return "done"

        def late_joiner(sim, child):
            yield 5.0  # child finished long ago
            got.append((yield child))

        child = sim.spawn(quick(sim))
        sim.spawn(late_joiner(sim, child))
        sim.run()
        assert got == ["done"]

    def test_event_fail_then_callback(self):
        sim = Simulator()
        evt = sim.event("e")
        evt.fail(ValueError("late"))
        sim.run()
        seen = []
        evt.add_callback(lambda e: seen.append(type(e.exception).__name__))
        sim.run()
        assert seen == ["ValueError"]


class TestRunControl:
    def test_run_until_then_resume_preserves_order(self):
        sim = Simulator()
        order = []

        def proc(sim, tag, delay):
            yield delay
            order.append(tag)

        sim.spawn(proc(sim, "a", 1.0))
        sim.spawn(proc(sim, "b", 3.0))
        sim.run(until=2.0)
        assert order == ["a"]
        sim.run()
        assert order == ["a", "b"]

    def test_step(self):
        sim = Simulator()

        def proc(sim):
            yield 1.0
            yield 1.0

        sim.spawn(proc(sim))
        steps = 0
        while sim.step():
            steps += 1
        assert steps >= 2
        assert sim.now == 2.0


    def test_negative_delay_rejected_before_the_event_is_marked_triggered(self):
        sim = Simulator()
        for arm in ("trigger", "fail"):
            event = sim.event()
            got = []

            def waiter(event=event, got=got):
                try:
                    got.append((yield event))
                except ValueError as exc:
                    got.append(exc)

            sim.spawn(waiter())
            payload = "v" if arm == "trigger" else ValueError("late")
            with pytest.raises(SimulationError, match="negative delay"):
                getattr(event, arm)(payload, delay=-1.0)
            assert not event.triggered
            getattr(event, arm)(payload, delay=1.0)  # the corrected retry works
            sim.run()
            assert got == [payload]  # and the waiter did not hang

    def test_run_until_the_past_is_rejected_and_leaves_the_clock_alone(self):
        sim = Simulator()
        sim.timeout(6.0)
        sim.timeout(9.0)
        assert sim.run(until=6.0) == 6.0
        with pytest.raises(SimulationError, match="already at"):
            sim.run(until=3.0)
        assert sim.now == 6.0  # the clock never goes backwards
        assert sim.run(until=6.0) == 6.0  # "until now" stays a no-op
        assert sim.run() == 9.0


class TestQueueEdgeCases:
    def test_try_get(self):
        sim = Simulator()
        q = SimQueue(sim)
        assert q.try_get() == (False, None)
        q.try_put("x")
        assert q.try_get() == (True, "x")

    def test_close_with_blocked_producer_rejected(self):
        sim = Simulator()
        q = SimQueue(sim, capacity=1)
        q.try_put("a")
        q.put("b")  # blocks
        with pytest.raises(SimulationError):
            q.close()

    def test_getter_gets_handed_item_directly(self):
        sim = Simulator()
        q = SimQueue(sim, capacity=1)
        got = []

        def consumer(sim):
            got.append((yield q.get()))

        def producer(sim):
            yield 1.0
            yield q.put("direct")

        sim.spawn(consumer(sim))
        sim.spawn(producer(sim))
        sim.run()
        assert got == ["direct"]
        assert len(q) == 0


class TestCellContention:
    def test_idle_cell_charges_base_cost(self):
        sim = Simulator()
        cell = SerializedCell(sim, update_cost=1.0, base_cost=0.1)

        def proc(sim):
            yield cell.update()
            yield 10.0  # let the cell go idle
            yield cell.update()

        sim.spawn(proc(sim))
        sim.run()
        assert cell.contended_updates == 0
        assert sim.now == pytest.approx(0.1 + 10.0 + 0.1)

    def test_busy_cell_charges_contended_cost(self):
        sim = Simulator()
        cell = SerializedCell(sim, update_cost=1.0, base_cost=0.1)

        def hammer(sim):
            yield cell.update()

        for _ in range(4):
            sim.spawn(hammer(sim))
        sim.run()
        # first update uncontended (0.1), the rest pile on (1.0 each)
        assert cell.contended_updates == 3
        assert sim.now == pytest.approx(0.1 + 3.0)

    def test_base_cannot_exceed_contended(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            SerializedCell(sim, update_cost=0.1, base_cost=1.0)


class TestBinPackerAggregated:
    def test_flag_propagates_to_bins(self):
        packer = BinPacker(bin_size=8, aggregated=True)
        edge = Edge(0, Map("src"), Map("dst"), EdgeMode.LOCAL)
        (sealed,) = packer.add_many([edge], [("key", 123)], local_partition=0)
        assert sealed.aggregated

    def test_effective_records(self):
        b = Bin(0, 0)
        b.append("a", 1)
        b.append("b", 2)
        assert b.effective_records == 2
        combined = Bin(0, 0, represents=50)
        combined.append("a", 3)
        assert combined.effective_records == 50


class TestBandwidthEta:
    def test_eta_has_no_side_effects(self):
        sim = Simulator()
        pipe = BandwidthResource(sim, bandwidth=10.0, latency=0.5)
        eta = pipe.eta(100)
        assert eta == pytest.approx(0.5 + 10.0)
        assert pipe.total_ops == 0
        assert pipe.backlog == 0.0
