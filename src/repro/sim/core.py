"""The discrete-event kernel: virtual clock, events, processes.

Design notes
------------
* The event queue is a binary heap of ``(time, sequence, event)``; the
  sequence number makes ordering total and the whole simulation
  deterministic — two runs of the same program produce identical schedules.
* ``SimEvent`` is the single synchronization primitive. Everything else
  (timeouts, resource grants, queue slots, process completion) is expressed
  as an event that triggers with a value or an exception.
* Processes are generators resumed by the kernel. A process that raises
  propagates the exception to joiners; a failure nobody observes aborts the
  simulation rather than passing silently.
* Observers plug in through one seam: :meth:`Simulator.attach` takes a
  :class:`KernelHooks` and the kernel brackets every event dispatch and
  every process resume with its callbacks. The kernel knows nothing else
  about an observer — no name, no label, no bucket. Hooks are read-only:
  they may look at the clock, the event and the process, never trigger
  or schedule anything, so the virtual schedule is byte-identical with
  any number of observers attached. With none attached the cost is one
  ``is None`` test per dispatch and per resume.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from repro.common.errors import DeadlockError, SimulationError

ProcessGen = Generator[Any, Any, Any]


class KernelHooks:
    """No-op base for kernel observers (see :meth:`Simulator.attach`).

    ``dispatch_start``/``dispatch_end`` bracket the firing of one event
    (the clock already reads ``now``); ``resume_start``/``resume_end``
    bracket one resumption of a process generator, which always happens
    inside a dispatch. Every start gets its end, also when the bracketed
    code raises. Implementations override what they need and must not
    trigger, schedule or otherwise touch simulation state.
    """

    __slots__ = ()

    def dispatch_start(self, now: float, event: "SimEvent") -> None:
        pass

    def dispatch_end(self, now: float, event: "SimEvent") -> None:
        pass

    def resume_start(self, process: "Process") -> None:
        pass

    def resume_end(self, process: "Process") -> None:
        pass


class _NestedHooks(KernelHooks):
    """Two observers as one: ``outer`` starts first and ends last."""

    __slots__ = ("_outer", "_inner")

    def __init__(self, outer: KernelHooks, inner: KernelHooks):
        self._outer = outer
        self._inner = inner

    def dispatch_start(self, now: float, event: "SimEvent") -> None:
        self._outer.dispatch_start(now, event)
        self._inner.dispatch_start(now, event)

    def dispatch_end(self, now: float, event: "SimEvent") -> None:
        self._inner.dispatch_end(now, event)
        self._outer.dispatch_end(now, event)

    def resume_start(self, process: "Process") -> None:
        self._outer.resume_start(process)
        self._inner.resume_start(process)

    def resume_end(self, process: "Process") -> None:
        self._inner.resume_end(process)
        self._outer.resume_end(process)


class SimEvent:
    """A one-shot event that may carry a value or an exception.

    Callbacks attached via :meth:`add_callback` run when the event fires.
    Processes that ``yield`` an event are resumed with its value (or the
    exception is thrown into them).
    """

    __slots__ = ("sim", "triggered", "fired", "value", "exception", "_callbacks", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.triggered = False  # trigger()/fail() called: fire time is scheduled
        self.fired = False  # callbacks have run
        self.value: Any = None
        self.exception: Optional[BaseException] = None
        self._callbacks: list[Callable[["SimEvent"], None]] = []
        self.name = name

    def add_callback(self, callback: Callable[["SimEvent"], None]) -> None:
        if self.fired:
            # Fire immediately but still via the scheduler to preserve
            # deterministic ordering relative to other pending events.
            self.sim._schedule(0.0, _CallbackEvent(self.sim, callback, self))
        else:
            self._callbacks.append(callback)

    def trigger(self, value: Any = None, delay: float = 0.0) -> "SimEvent":
        """Arrange for this event to fire ``delay`` seconds from now."""
        if self.triggered:
            raise SimulationError(f"event {self.name or id(self)} triggered twice")
        # schedule first: a rejected (negative) delay must leave the event
        # untriggered, so a corrected retry works and waiters don't hang
        self.sim._schedule(delay, self)
        self.triggered = True
        self.value = value
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "SimEvent":
        """Arrange for this event to fire with an exception."""
        if self.triggered:
            raise SimulationError(f"event {self.name or id(self)} triggered twice")
        self.sim._schedule(delay, self)  # before mutating, as in trigger()
        self.triggered = True
        self.exception = exception
        return self

    # -- kernel internals ---------------------------------------------------

    def _fire(self) -> None:
        self.fired = True
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<SimEvent {self.name or hex(id(self))} {state}>"


class _CallbackEvent(SimEvent):
    """Internal: delivers a late-registered callback on an already-fired event."""

    __slots__ = ("_late_callback", "_source")

    def __init__(self, sim: "Simulator", callback: Callable[[SimEvent], None], source: SimEvent):
        super().__init__(sim, name="late-callback")
        self.triggered = True
        self._late_callback = callback
        self._source = source

    def _fire(self) -> None:
        self._late_callback(self._source)


class AllOf(SimEvent):
    """Fires when every child event has fired; value is the list of values.

    If any child fails, this fails with the first failure (by fire order).
    """

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent]):
        super().__init__(sim, name="all_of")
        self._events = list(events)
        self._pending = len(self._events)
        if self._pending == 0:
            self.trigger([])
            return
        for event in self._events:
            event.add_callback(self._child_fired)

    def _child_fired(self, event: SimEvent) -> None:
        if self.triggered:
            return
        if event.exception is not None:
            self.fail(event.exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.trigger([e.value for e in self._events])


class AnyOf(SimEvent):
    """Fires when the first child event fires; value is ``(index, value)``."""

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent]):
        super().__init__(sim, name="any_of")
        self._events = list(events)
        if not self._events:
            raise SimulationError("AnyOf requires at least one event")
        for index, event in enumerate(self._events):
            event.add_callback(self._make_callback(index))

    def _make_callback(self, index: int) -> Callable[[SimEvent], None]:
        def on_fire(event: SimEvent) -> None:
            if self.triggered:
                return
            if event.exception is not None:
                self.fail(event.exception)
            else:
                self.trigger((index, event.value))

        return on_fire


class Process:
    """A running generator-coroutine.

    ``completion`` is a :class:`SimEvent` that fires with the generator's
    return value, or fails with its exception. Yielding a ``Process`` from
    another process joins it.
    """

    __slots__ = ("sim", "name", "generator", "completion", "_waited_on")

    def __init__(self, sim: "Simulator", generator: ProcessGen, name: str = ""):
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self.generator = generator
        self.completion = SimEvent(sim, name=f"{self.name}.completion")
        self._waited_on = False
        # Kick off at the current time, after already-queued events.
        start = SimEvent(sim, name=f"{self.name}.start")
        start.add_callback(lambda _evt: self._resume(None, None))
        start.trigger()

    @property
    def alive(self) -> bool:
        return not self.completion.triggered

    # -- kernel internals ---------------------------------------------------

    def _resume(self, value: Any, exception: Optional[BaseException]) -> None:
        self.sim._blocked.discard(self)
        hooks = self.sim._hooks
        if hooks is not None:
            hooks.resume_start(self)
        try:
            try:
                if exception is not None:
                    yielded = self.generator.throw(exception)
                else:
                    yielded = self.generator.send(value)
            except StopIteration as stop:
                self.completion.trigger(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - must forward user errors
                self.completion.fail(exc)
                self.sim._note_failure(self, exc)
                return
            event = self._as_event(yielded)
            self.sim._blocked.add(self)
            event.add_callback(self._on_event)
        finally:
            if hooks is not None:
                hooks.resume_end(self)

    def _on_event(self, event: SimEvent) -> None:
        if event.exception is not None:
            self._resume(None, event.exception)
        else:
            self._resume(event.value, None)

    def _as_event(self, yielded: Any) -> SimEvent:
        if isinstance(yielded, SimEvent):
            return yielded
        if isinstance(yielded, Process):
            yielded._waited_on = True
            return yielded.completion
        if isinstance(yielded, (int, float)):
            return self.sim.timeout(float(yielded))
        as_event = getattr(yielded, "as_event", None)
        if as_event is not None:
            return as_event(self.sim)
        raise SimulationError(
            f"process {self.name!r} yielded unsupported object {yielded!r}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name} {state}>"


class Simulator:
    """The event loop and virtual clock.

    ``run()`` executes events until the queue drains, a deadline passes, or
    an unobserved process failure aborts the run. Time never goes backwards;
    ties are broken by scheduling order, making runs fully deterministic.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, SimEvent]] = []
        self._sequence = 0
        self._blocked: set[Process] = set()
        self._failures: list[tuple[Process, BaseException]] = []
        self._processes_started = 0
        self._hooks: Optional[KernelHooks] = None

    # -- public API ----------------------------------------------------------

    def attach(self, hooks: KernelHooks) -> None:
        """Attach an observer; its callbacks bracket every dispatch and
        process resume from now on. Observers attached later nest inside
        earlier ones: starts run in attach order, ends in reverse."""
        self._hooks = hooks if self._hooks is None else _NestedHooks(self._hooks, hooks)

    def spawn(self, generator: ProcessGen, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        self._processes_started += 1
        return Process(self, generator, name=name or f"p{self._processes_started}")

    def timeout(self, delay: float, value: Any = None) -> SimEvent:
        """An event that fires ``delay`` virtual seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        event = SimEvent(self, name=f"timeout({delay:g})")
        event.triggered = True
        event.value = value
        self._schedule(delay, event)
        return event

    def event(self, name: str = "") -> SimEvent:
        """A fresh untriggered event for manual coordination."""
        return SimEvent(self, name=name)

    def all_of(self, events: Iterable[SimEvent]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[SimEvent]) -> AnyOf:
        return AnyOf(self, events)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue drains (or ``until`` is reached).

        Returns the final virtual time. Raises :class:`DeadlockError` if
        processes remain blocked with no pending events, and re-raises the
        first unobserved process failure.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"cannot run until {until}: clock is already at {self.now}")
        heap = self._heap
        while heap:
            if until is not None and heap[0][0] > until:
                # Leave it queued; the caller may resume later.
                self.now = until
                return self.now
            self._dispatch()
        if self._blocked:
            alive = ", ".join(sorted(p.name for p in self._blocked))
            raise DeadlockError(
                f"simulation deadlocked at t={self.now:g}: blocked processes: {alive}"
            )
        return self.now

    def step(self) -> bool:
        """Fire a single event; returns False when the queue is empty."""
        if not self._heap:
            return False
        self._dispatch()
        return True

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    # -- kernel internals ----------------------------------------------------

    def _dispatch(self) -> None:
        """Pop the earliest event, advance the clock to it and fire it."""
        time, _seq, event = heapq.heappop(self._heap)
        if time < self.now:
            raise SimulationError(f"time went backwards: {time} < {self.now}")
        self.now = time
        hooks = self._hooks
        if hooks is not None:
            hooks.dispatch_start(time, event)
        try:
            event._fire()
        finally:
            if hooks is not None:
                hooks.dispatch_end(time, event)
        self._raise_unobserved_failure()

    def _schedule(self, delay: float, event: SimEvent) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._sequence += 1
        heapq.heappush(self._heap, (self.now + delay, self._sequence, event))

    def _note_failure(self, process: Process, exc: BaseException) -> None:
        if not process._waited_on and not process.completion._callbacks:
            self._failures.append((process, exc))

    def _raise_unobserved_failure(self) -> None:
        if self._failures:
            process, exc = self._failures[0]
            raise SimulationError(
                f"process {process.name!r} failed with unobserved exception"
            ) from exc
