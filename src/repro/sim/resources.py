"""Simulated resources: capacity pools, bandwidth pipes, serialized cells.

Two modeling styles are used:

* :class:`Resource` — an explicit capacity pool with FIFO grant order.
  Thread pools and loader-concurrency throttles are Resources; a task holds
  a slot for the duration of its compute.
* :class:`BandwidthResource` and :class:`SerializedCell` — *virtual
  timeline* devices. A transfer of ``n`` bytes on a device with bandwidth
  ``bw`` occupies the device for ``n / bw`` seconds, FIFO after whatever is
  already queued; the caller simply waits for the completion event. This
  models disks, NICs and atomic-variable serialization without spawning a
  process per operation, which keeps large runs cheap and deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.sim.core import SimEvent, Simulator


class Resource:
    """A FIFO capacity pool (e.g. a node's worker-thread pool).

    ``acquire(n)`` returns an event that fires once ``n`` units are granted;
    the caller must later call ``release(n)``. Grants are strictly FIFO: a
    large request at the head blocks smaller ones behind it, matching a
    thread pool's admission order.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity <= 0:
            raise SimulationError(f"{name}: capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: Deque[Tuple[SimEvent, int]] = deque()
        # Metrics
        self.total_acquired = 0
        self._busy_integral = 0.0
        self._last_change = 0.0
        #: optional observability hook, called as ``observer(now, in_use)``
        #: after every occupancy change (None keeps the fast path free)
        self.observer = None

    def acquire(self, n: int = 1) -> SimEvent:
        if n <= 0 or n > self.capacity:
            raise SimulationError(
                f"{self.name}: cannot acquire {n} of {self.capacity}"
            )
        event = SimEvent(self.sim, name=f"{self.name}.acquire({n})")
        self._waiters.append((event, n))
        self._dispatch()
        return event

    def release(self, n: int = 1) -> None:
        if n <= 0 or n > self.in_use:
            raise SimulationError(
                f"{self.name}: release({n}) with in_use={self.in_use}"
            )
        self._account()
        self.in_use -= n
        self._dispatch()
        if self.observer is not None:
            self.observer(self.sim.now, self.in_use)

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def utilization(self) -> float:
        """Mean fraction of capacity in use since t=0."""
        self._account()
        if self.sim.now == 0:
            return 0.0
        return self._busy_integral / (self.capacity * self.sim.now)

    def _dispatch(self) -> None:
        while self._waiters:
            event, n = self._waiters[0]
            if n > self.available:
                return
            self._waiters.popleft()
            self._account()
            self.in_use += n
            self.total_acquired += n
            if self.observer is not None:
                self.observer(self.sim.now, self.in_use)
            event.trigger(n)

    def _account(self) -> None:
        self._busy_integral += self.in_use * (self.sim.now - self._last_change)
        self._last_change = self.sim.now


class BandwidthResource:
    """A FIFO pipe with fixed bandwidth and optional per-operation latency.

    Models a disk or a NIC. ``transfer(nbytes)`` returns an event firing when
    the transfer completes; transfers serialize in submission order. The
    aggregate behaviour (total bytes / bandwidth) matches fair sharing for
    sustained load while staying exactly deterministic.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        latency: float = 0.0,
        name: str = "pipe",
    ):
        if bandwidth <= 0:
            raise SimulationError(f"{name}: bandwidth must be positive")
        if latency < 0:
            raise SimulationError(f"{name}: latency must be non-negative")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.name = name
        self._free_at = 0.0
        # Metrics
        self.total_bytes = 0
        self.total_ops = 0
        self.busy_time = 0.0
        #: optional observability hook, called as
        #: ``observer(start, finish, nbytes)`` when a transfer is scheduled
        #: (None keeps the fast path free)
        self.observer = None

    def transfer(self, nbytes: float) -> SimEvent:
        """Schedule a transfer; the event fires at its completion time."""
        if nbytes < 0:
            raise SimulationError(f"{self.name}: negative transfer size")
        start = max(self.sim.now, self._free_at)
        occupancy = nbytes / self.bandwidth
        finish = start + self.latency + occupancy
        self._free_at = finish
        self.total_bytes += int(nbytes)
        self.total_ops += 1
        self.busy_time += self.latency + occupancy
        if self.observer is not None:
            self.observer(start, finish, nbytes)
        event = SimEvent(self.sim, name=f"{self.name}.transfer({int(nbytes)})")
        return event.trigger(value=int(nbytes), delay=finish - self.sim.now)

    def eta(self, nbytes: float) -> float:
        """Completion time a transfer submitted now would have (no side effects)."""
        start = max(self.sim.now, self._free_at)
        return start + self.latency + nbytes / self.bandwidth

    @property
    def backlog(self) -> float:
        """Seconds of queued work ahead of a new submission."""
        return max(0.0, self._free_at - self.sim.now)

    def utilization(self) -> float:
        if self.sim.now == 0:
            return 0.0
        return min(1.0, self.busy_time / self.sim.now)


class SerializedCell:
    """A memory cell whose updates serialize (one writer at a time).

    Models the atomic-variable contention the paper describes for
    HistogramRatings (§5.2): with five rating keys spread over five nodes,
    all 32 threads of a node hammer a single accumulator and their updates
    serialize. ``update(n)`` charges ``n`` updates of exclusive cell time,
    FIFO behind pending updates.

    Contention awareness: an update submitted while the cell is *busy*
    (another updater queued ahead) pays ``update_cost`` per update — the
    cross-socket cache-line ping-pong price; an update hitting an idle
    cell pays only ``base_cost`` (a plain uncontended LOCK'd add). Hot
    cells therefore degrade hard while a wide key space stays cheap,
    which is exactly the paper's HistogramRatings-vs-WordCount asymmetry.
    """

    def __init__(
        self,
        sim: Simulator,
        update_cost: float,
        base_cost: Optional[float] = None,
        name: str = "cell",
    ):
        if update_cost < 0:
            raise SimulationError(f"{name}: update_cost must be non-negative")
        self.sim = sim
        self.update_cost = float(update_cost)
        self.base_cost = float(base_cost) if base_cost is not None else float(update_cost)
        if self.base_cost > self.update_cost:
            raise SimulationError(f"{name}: base_cost must not exceed update_cost")
        self.name = name
        self._free_at = 0.0
        self.total_updates = 0
        self.contended_updates = 0

    def update(self, n_updates: int = 1) -> SimEvent:
        finish = self._charge(n_updates)
        event = SimEvent(self.sim, name=f"{self.name}.update({n_updates})")
        return event.trigger(value=n_updates, delay=finish - self.sim.now)

    def _charge(self, n_updates: int) -> float:
        """Book ``n_updates`` behind the pending ones; returns their finish time."""
        if n_updates < 0:
            raise SimulationError(f"{self.name}: negative update count")
        contended = self._free_at > self.sim.now
        per_update = self.update_cost if contended else self.base_cost
        if contended:
            self.contended_updates += n_updates
        start = max(self.sim.now, self._free_at)
        finish = start + n_updates * per_update
        self._free_at = finish
        self.total_updates += n_updates
        return finish

    @property
    def backlog(self) -> float:
        return max(0.0, self._free_at - self.sim.now)


class UpdateChain(SimEvent):
    """A run of :class:`SerializedCell` updates, issued back to back, as one event.

    ``steps`` is a non-empty sequence of ``(cell, n_updates)``. Step k is
    charged the instant step k-1 completes, exactly as a process yielding
    ``cell.update(n)`` once per step would issue it: each step makes one
    ``_schedule`` call with the same delay, from the dispatch of the step
    before, so the ``(time, sequence)`` order of every event is unchanged.
    The chain re-arms itself from its own ``_fire`` instead of resuming
    the waiting process in between, and wakes its waiters once, after the
    last step, with that step's update count.
    """

    __slots__ = ("_steps", "_next")

    def __init__(self, sim: Simulator, steps: Sequence[Tuple[SerializedCell, int]]):
        if not steps:
            raise SimulationError("UpdateChain requires at least one step")
        super().__init__(sim, name="update-chain")
        self.triggered = True
        self.value = steps[-1][1]
        self._steps = steps
        self._next = 0
        self._charge_next()

    def _charge_next(self) -> None:
        cell, n_updates = self._steps[self._next]
        self._next += 1
        self.sim._schedule(cell._charge(n_updates) - self.sim.now, self)

    def _fire(self) -> None:
        if self._next < len(self._steps):
            self._charge_next()
        else:
            super()._fire()


class StripedBandwidth:
    """Round-robin striping over several :class:`BandwidthResource` devices.

    Models a node's 5 local SATA disks: large transfers split into
    per-device chunks and complete when the slowest chunk does.
    """

    def __init__(self, devices: list[BandwidthResource], stripe_unit: float = 4 * 1024 * 1024):
        if not devices:
            raise SimulationError("StripedBandwidth requires at least one device")
        self.devices = devices
        self.stripe_unit = float(stripe_unit)
        self._next = 0

    @property
    def sim(self) -> Simulator:
        return self.devices[0].sim

    def transfer(self, nbytes: float) -> SimEvent:
        ndev = len(self.devices)
        if nbytes <= self.stripe_unit or ndev == 1:
            device = self.devices[self._next]
            self._next = (self._next + 1) % ndev
            return device.transfer(nbytes)
        per_device = nbytes / ndev
        events = [device.transfer(per_device) for device in self.devices]
        done = self.sim.all_of(events)
        total = SimEvent(self.sim, name=f"stripe.transfer({int(nbytes)})")
        done.add_callback(
            lambda evt: total.fail(evt.exception)
            if evt.exception is not None
            else total.trigger(int(nbytes))
        )
        return total

    @property
    def total_bytes(self) -> int:
        return sum(device.total_bytes for device in self.devices)

    def utilization(self) -> float:
        return sum(device.utilization() for device in self.devices) / len(self.devices)
