"""Exception hierarchy for the reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch the library's failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """An invalid configuration value (cluster spec, workload, engine knob)."""


class GraphError(ReproError):
    """A malformed flowlet graph (cycle, dangling edge, bad flowlet type)."""


class SimulationError(ReproError):
    """The discrete-event kernel detected an inconsistent state.

    Examples: a process yielded an unknown request type, the event queue
    went back in time, or the simulation deadlocked with live processes.
    """


class DeadlockError(SimulationError):
    """All live processes are blocked and no event can make progress."""


class StorageError(ReproError):
    """A storage-layer failure (missing file/block, replication impossible)."""


class MemoryBudgetExceeded(ReproError):
    """An allocation did not fit in a node's memory budget and could not spill."""


class JobError(ReproError):
    """A job failed: user code raised, or the engine aborted the run."""
