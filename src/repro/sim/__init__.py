"""A small discrete-event simulation kernel.

This is the substrate the whole reproduction stands on: a deterministic
virtual clock, generator-coroutine processes, capacity resources (thread
pools), bandwidth resources (disks, NICs), bounded queues (the basis of
HAMR's flow control) and serialized cells (the atomic-variable contention
model of §5.2). It is written from scratch — in the spirit of SimPy but
specialized and dependency-free — so that both the HAMR engine and the
Hadoop-style baseline execute *real data* while charging modeled costs to
the virtual clock.

Processes are plain generator functions. They interact with the kernel by
yielding:

* a ``SimEvent`` — suspend until the event triggers, receive its value;
* another ``Process`` — join it, receive its return value (exceptions
  propagate);
* a ``float``/``int`` — sleep that many virtual seconds;
* request objects returned by :class:`Resource`, :class:`SimQueue`, etc.

Example::

    sim = Simulator()

    def worker(sim):
        yield 1.5                      # compute for 1.5 virtual seconds
        return "done"

    def main(sim):
        result = yield sim.spawn(worker(sim))
        assert result == "done"

    sim.spawn(main(sim))
    sim.run()
    assert sim.now == 1.5
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    KernelHooks,
    Process,
    SimEvent,
    Simulator,
)
from repro.sim.resources import (
    BandwidthResource,
    Resource,
    SerializedCell,
    UpdateChain,
)
from repro.sim.queues import QueueClosed, SimQueue

__all__ = [
    "Simulator",
    "SimEvent",
    "Process",
    "AllOf",
    "AnyOf",
    "KernelHooks",
    "Resource",
    "BandwidthResource",
    "SerializedCell",
    "UpdateChain",
    "SimQueue",
    "QueueClosed",
]
