"""Tests for the discrete-event kernel."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import DeadlockError, SimulationError
from repro.sim import KernelHooks, Simulator


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_empty_run(self):
        sim = Simulator()
        assert sim.run() == 0.0

    def test_timeout_advances_clock(self):
        sim = Simulator()

        def proc(sim):
            yield 2.5
            yield 1.5

        sim.spawn(proc(sim))
        assert sim.run() == 4.0

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=20))
    def test_clock_is_max_of_parallel_sleeps(self, delays):
        sim = Simulator()

        def sleeper(sim, d):
            yield d

        for d in delays:
            sim.spawn(sleeper(sim, d))
        assert sim.run() == pytest.approx(max(delays))


class TestProcesses:
    def test_join_returns_value(self):
        sim = Simulator()
        results = []

        def child(sim):
            yield 1.0
            return 42

        def parent(sim):
            value = yield sim.spawn(child(sim))
            results.append(value)

        sim.spawn(parent(sim))
        sim.run()
        assert results == [42]

    def test_exception_propagates_to_joiner(self):
        sim = Simulator()
        caught = []

        def child(sim):
            yield 1.0
            raise ValueError("boom")

        def parent(sim):
            try:
                yield sim.spawn(child(sim))
            except ValueError as exc:
                caught.append(str(exc))

        sim.spawn(parent(sim))
        sim.run()
        assert caught == ["boom"]

    def test_unobserved_failure_aborts(self):
        sim = Simulator()

        def bad(sim):
            yield 1.0
            raise RuntimeError("silent")

        sim.spawn(bad(sim))
        with pytest.raises(SimulationError):
            sim.run()

    def test_yield_bad_object_raises(self):
        sim = Simulator()

        def bad(sim):
            yield object()

        def parent(sim):
            yield sim.spawn(bad(sim))

        sim.spawn(parent(sim))
        with pytest.raises(SimulationError):
            sim.run()

    def test_sequential_spawns_are_fifo_at_same_time(self):
        sim = Simulator()
        order = []

        def proc(sim, tag):
            order.append(tag)
            yield 0.0
            order.append(tag + "!")

        for tag in "abc":
            sim.spawn(proc(sim, tag))
        sim.run()
        assert order == ["a", "b", "c", "a!", "b!", "c!"]

    def test_determinism(self):
        def build_and_run():
            sim = Simulator()
            log = []

            def worker(sim, i):
                yield (i * 7) % 3 + 0.5
                log.append((sim.now, i))
                yield 0.25
                log.append((sim.now, -i))

            for i in range(10):
                sim.spawn(worker(sim, i))
            sim.run()
            return log

        assert build_and_run() == build_and_run()


class TestEvents:
    def test_manual_event_value(self):
        sim = Simulator()
        got = []

        def waiter(sim, evt):
            got.append((yield evt))

        evt = sim.event("signal")
        sim.spawn(waiter(sim, evt))

        def firer(sim):
            yield 3.0
            evt.trigger("payload")

        sim.spawn(firer(sim))
        sim.run()
        assert got == ["payload"]

    def test_double_trigger_rejected(self):
        sim = Simulator()
        evt = sim.event()
        evt.trigger(1)
        with pytest.raises(SimulationError):
            evt.trigger(2)

    def test_callback_after_trigger_still_fires(self):
        sim = Simulator()
        evt = sim.event()
        evt.trigger("v")
        sim.run()
        fired = []
        evt.add_callback(lambda e: fired.append(e.value))
        sim.run()
        assert fired == ["v"]

    def test_all_of(self):
        sim = Simulator()
        got = []

        def proc(sim):
            values = yield sim.all_of([sim.timeout(1, "a"), sim.timeout(3, "b")])
            got.append((sim.now, values))

        sim.spawn(proc(sim))
        sim.run()
        assert got == [(3.0, ["a", "b"])]

    def test_all_of_empty(self):
        sim = Simulator()
        done = []

        def proc(sim):
            yield sim.all_of([])
            done.append(sim.now)

        sim.spawn(proc(sim))
        sim.run()
        assert done == [0.0]

    def test_any_of_first_wins(self):
        sim = Simulator()
        got = []

        def proc(sim):
            index, value = yield sim.any_of([sim.timeout(5, "slow"), sim.timeout(1, "fast")])
            got.append((sim.now, index, value))

        sim.spawn(proc(sim))
        sim.run()
        assert got == [(1.0, 1, "fast")]


class TestDeadlock:
    def test_detects_deadlock(self):
        sim = Simulator()

        def stuck(sim):
            yield sim.event("never")

        sim.spawn(stuck(sim))
        with pytest.raises(DeadlockError):
            sim.run()

    def test_run_until_pauses(self):
        sim = Simulator()

        def proc(sim):
            yield 10.0

        sim.spawn(proc(sim))
        assert sim.run(until=4.0) == 4.0
        assert sim.pending_events == 1
        assert sim.run() == 10.0


class Recorder(KernelHooks):
    """A hooks fake that writes every callback into a (shared) log."""

    def __init__(self, log, tag=""):
        self.log = log
        self.tag = tag

    def dispatch_start(self, now, event):
        self.log.append((f"{self.tag}dispatch_start", now, event.name))

    def dispatch_end(self, now, event):
        self.log.append((f"{self.tag}dispatch_end", now, event.name))

    def resume_start(self, process):
        self.log.append((f"{self.tag}resume_start", process.sim.now, process.name))

    def resume_end(self, process):
        self.log.append((f"{self.tag}resume_end", process.sim.now, process.name))


def _two_process_program(sim):
    def child(sim):
        yield 2.0
        return "c"

    def parent(sim):
        got = yield sim.spawn(child(sim), name="child")
        assert got == "c"

    sim.spawn(parent(sim), name="parent")


class TestKernelHooks:
    def test_callback_order_for_a_two_process_program(self):
        sim = Simulator()
        log = []
        sim.attach(Recorder(log))
        _two_process_program(sim)
        sim.run()
        assert log == [
            # parent starts, spawns child, blocks on its completion
            ("dispatch_start", 0.0, "parent.start"),
            ("resume_start", 0.0, "parent"),
            ("resume_end", 0.0, "parent"),
            ("dispatch_end", 0.0, "parent.start"),
            # child starts, sleeps
            ("dispatch_start", 0.0, "child.start"),
            ("resume_start", 0.0, "child"),
            ("resume_end", 0.0, "child"),
            ("dispatch_end", 0.0, "child.start"),
            # the sleep ends, child returns
            ("dispatch_start", 2.0, "timeout(2)"),
            ("resume_start", 2.0, "child"),
            ("resume_end", 2.0, "child"),
            ("dispatch_end", 2.0, "timeout(2)"),
            # its completion wakes the parent
            ("dispatch_start", 2.0, "child.completion"),
            ("resume_start", 2.0, "parent"),
            ("resume_end", 2.0, "parent"),
            ("dispatch_end", 2.0, "child.completion"),
            # nobody waits on the parent's completion: a bare dispatch
            ("dispatch_start", 2.0, "parent.completion"),
            ("dispatch_end", 2.0, "parent.completion"),
        ]

    def test_attached_observers_nest_in_attach_order(self):
        sim = Simulator()
        log = []
        for tag in ("a.", "b.", "c."):
            sim.attach(Recorder(log, tag))
        sim.timeout(1.0)
        sim.run()
        assert [entry[0] for entry in log] == [
            "a.dispatch_start", "b.dispatch_start", "c.dispatch_start",
            "c.dispatch_end", "b.dispatch_end", "a.dispatch_end",
        ]
        log.clear()

        def instant(sim):
            return
            yield

        sim.spawn(instant(sim), name="p")
        sim.run()
        assert [entry[0] for entry in log if "resume" in entry[0]] == [
            "a.resume_start", "b.resume_start", "c.resume_start",
            "c.resume_end", "b.resume_end", "a.resume_end",
        ]

    def test_nothing_held_or_wrapped_until_something_attaches(self):
        sim = Simulator()
        _two_process_program(sim)
        sim.run()
        assert sim._hooks is None  # the unobserved kernel allocates no observer
        hooks = KernelHooks()  # the base is a usable no-op
        sim.attach(hooks)
        assert sim._hooks is hooks  # a single observer is called directly
        _two_process_program(sim)
        assert sim.run() == 4.0

    def test_step_and_run_make_the_same_callbacks(self):
        def by_steps(sim):
            while sim.step():
                pass

        logs = []
        for drive in (Simulator.run, by_steps):
            sim = Simulator()
            logs.append([])
            sim.attach(Recorder(logs[-1]))
            _two_process_program(sim)
            drive(sim)
        assert logs[0] == logs[1] and logs[0]

    def test_every_start_gets_its_end_when_the_callback_raises(self):
        sim = Simulator()
        log = []
        sim.attach(Recorder(log))

        def bad(sim):
            yield object()  # not an event: SimulationError out of the dispatch

        sim.spawn(bad(sim), name="bad")
        with pytest.raises(SimulationError, match="unsupported object"):
            sim.run()
        assert [entry[0] for entry in log] == [
            "dispatch_start", "resume_start", "resume_end", "dispatch_end",
        ]

    @pytest.mark.parametrize("engine", ["hamr", "hadoop"])
    def test_attaching_hooks_leaves_the_schedule_untouched(self, engine, monkeypatch):
        from repro.apps import wordcount
        from repro.apps.base import AppEnv
        from repro.cluster.spec import small_cluster_spec

        # every _schedule call (when, how far ahead, what) in order: the
        # firing order is a function of this log
        schedule = []
        original = Simulator._schedule

        def recording(self, delay, event):
            schedule.append((self.now, delay, event.name))
            original(self, delay, event)

        monkeypatch.setattr(Simulator, "_schedule", recording)
        params = wordcount.WordCountParams(target_bytes=20_000, seed=0)
        records = wordcount.generate_input(params)
        outcomes = []
        for observed in (False, True):
            del schedule[:]
            env = AppEnv(small_cluster_spec(num_workers=3))
            sim = env.cluster.sim
            log = []
            if observed:
                sim.attach(Recorder(log))
            result = getattr(wordcount, f"run_{engine}")(env, params, records)
            outcomes.append((result.makespan, sim.now, sim._sequence, list(schedule)))
            assert bool(log) == observed
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] == len(outcomes[0][3]) > 50
