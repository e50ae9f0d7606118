"""Flowlet definitions — the paper's four phase types (§2).

A *flowlet* is one MapReduce-style phase in a HAMR job. Users subclass one
of the four types (or pass plain functions to the convenience
constructors) and wire instances into a :class:`~repro.core.graph.FlowletGraph`:

* :class:`Loader` — heads the workflow; pulls from a data source
  (DFS, local disks, the KV store, a stream) and emits key-value pairs.
* :class:`Map` — consumes pairs bin-by-bin, emits new pairs; may connect
  to any flowlet type, unlike Hadoop's fixed map→reduce order.
* :class:`Reduce` — collects *all* pairs grouped by key (internal
  barrier: runs only after every upstream flowlet completes); spills to
  local disk when the collection outgrows memory.
* :class:`PartialReduce` — folds arriving values into per-key
  accumulators *immediately* (commutative + associative operations),
  emitting only at upstream completion; overlaps network latency and
  compresses memory, per §2.

Each flowlet instance on each node moves through the paper's three states:
``DORMANT`` → ``READY`` → ``COMPLETE`` (§2, Fig. 2).
"""

from __future__ import annotations

import enum
from collections.abc import Mapping, MutableMapping
from typing import Any, Callable, Iterable, Optional, TYPE_CHECKING

from repro.common.errors import ConfigError
from repro.common.sizeof import logical_sizeof, sizeof_many

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.context import TaskContext
    from repro.core.sources import DataSource


class FlowletKind(enum.Enum):
    LOADER = "loader"
    MAP = "map"
    REDUCE = "reduce"
    PARTIAL_REDUCE = "partial_reduce"


class Flowlet:
    """Base class. ``name`` must be unique within a graph.

    ``compute_factor`` scales the shared per-record CPU cost for this
    flowlet's user code (cosine similarity is costlier than tokenizing).

    ``aggregated_output`` declares that this flowlet's emissions are
    key-space-bounded aggregates (word counts, histogram bins, label
    vectors) rather than per-input-record data. Under the scale model
    (DESIGN.md §7) such streams are charged *unscaled*: their true modeled
    volume is bounded by the number of distinct keys, which does not grow
    with the data size. Leave it False for aggregates whose key space
    scales with the input (per-page ranks, per-clique records).
    """

    kind: FlowletKind

    def __init__(
        self,
        name: str,
        compute_factor: float = 1.0,
        aggregated_output: bool = False,
    ):
        if not name:
            raise ConfigError("flowlet needs a non-empty name")
        if compute_factor <= 0:
            raise ConfigError(f"{name}: compute_factor must be positive")
        self.name = name
        self.compute_factor = compute_factor
        self.aggregated_output = aggregated_output

    def setup(self, ctx: "TaskContext") -> None:
        """Called once per node before any task of this flowlet runs."""

    def teardown(self, ctx: "TaskContext") -> None:
        """Called once per node when this instance completes."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class Loader(Flowlet):
    """Pulls records from a :class:`DataSource` and emits key-value pairs.

    ``load`` receives the source's raw records for one split and emits
    pairs through the context; the default implementation assumes the
    source already yields ``(key, value)`` pairs.
    """

    kind = FlowletKind.LOADER

    def __init__(
        self,
        name: str,
        source: "DataSource",
        compute_factor: float = 1.0,
        aggregated_output: bool = False,
    ):
        super().__init__(name, compute_factor, aggregated_output)
        if source is None:
            raise ConfigError(f"{name}: loader requires a data source")
        self.source = source

    def load(self, ctx: "TaskContext", records: Iterable[Any]) -> None:
        ctx.emit_many(records)


class Map(Flowlet):
    """Per-pair transformation. Override ``map`` or pass ``fn(ctx, k, v)``."""

    kind = FlowletKind.MAP

    def __init__(
        self,
        name: str,
        fn: Optional[Callable[["TaskContext", Any, Any], None]] = None,
        compute_factor: float = 1.0,
        aggregated_output: bool = False,
    ):
        super().__init__(name, compute_factor, aggregated_output)
        self._fn = fn

    def map(self, ctx: "TaskContext", key: Any, value: Any) -> None:
        if self._fn is None:
            raise NotImplementedError(f"{self.name}: override map() or pass fn=")
        self._fn(ctx, key, value)


class Reduce(Flowlet):
    """Full grouping reduce. Override ``reduce`` or pass ``fn(ctx, k, values)``.

    Internally forms a barrier: values for a key are only handed to user
    code after every upstream flowlet has completed (§2).
    """

    kind = FlowletKind.REDUCE

    def __init__(
        self,
        name: str,
        fn: Optional[Callable[["TaskContext", Any, list], None]] = None,
        compute_factor: float = 1.0,
        aggregated_output: bool = False,
    ):
        super().__init__(name, compute_factor, aggregated_output)
        self._fn = fn

    def reduce(self, ctx: "TaskContext", key: Any, values: list) -> None:
        if self._fn is None:
            raise NotImplementedError(f"{self.name}: override reduce() or pass fn=")
        self._fn(ctx, key, values)


class PartialReduce(Flowlet):
    """Incremental fold for commutative + associative computations.

    ``initial(key)`` makes a fresh accumulator, ``combine(acc, value)``
    folds one value in (must be commutative and associative across
    values), ``finalize(ctx, key, acc)`` emits results at upstream
    completion. The default finalize emits ``(key, acc)``.

    Updates to an accumulator model the shared-variable contention of
    §5.2: each node serializes updates per key through an atomic cell, so
    tiny key spaces (HistogramRatings' five ratings) degrade exactly as
    the paper reports.
    """

    kind = FlowletKind.PARTIAL_REDUCE

    def __init__(
        self,
        name: str,
        initial: Optional[Callable[[Any], Any]] = None,
        combine: Optional[Callable[[Any, Any], Any]] = None,
        finalize: Optional[Callable[["TaskContext", Any, Any], None]] = None,
        compute_factor: float = 1.0,
        update_weight: float = 1.0,
        aggregated_output: bool = False,
    ):
        super().__init__(name, compute_factor, aggregated_output)
        if update_weight <= 0:
            raise ConfigError(f"{name}: update_weight must be positive")
        self._initial = initial
        self._combine = combine
        self._finalize = finalize
        #: accumulator cells (cache lines) touched per combined value — 1
        #: for a scalar counter, ~#fields for a vector sum. Scales the
        #: serialized atomic-update charge per record.
        self.update_weight = update_weight

    def initial(self, key: Any) -> Any:
        if self._initial is None:
            raise NotImplementedError(f"{self.name}: override initial() or pass initial=")
        return self._initial(key)

    def combine(self, acc: Any, value: Any) -> Any:
        if self._combine is None:
            raise NotImplementedError(f"{self.name}: override combine() or pass combine=")
        return self._combine(acc, value)

    def finalize(self, ctx: "TaskContext", key: Any, acc: Any) -> None:
        if self._finalize is not None:
            self._finalize(ctx, key, acc)
        else:
            ctx.emit(key, acc)


#: a sum's stored values: exactly these types, each sized as one number
_NUMBER_TYPES = frozenset((int, float))
_EMPTY_SIZE = logical_sizeof({})
_NUMBER_SIZE = logical_sizeof(0)
_NOT_A_NUMBER = "SumMap: a value must be exactly an int or a float"


class SumMap(dict):
    """Sparse sum vector for a :class:`PartialReduce` accumulator: a
    ``dict`` of key → number that carries its own logical size.

    ``add`` is a ready-made ``combine`` (``initial=lambda _k: SumMap()``,
    ``combine=SumMap.add``). ``logical_size`` always equals
    ``logical_sizeof(dict(self))`` and is kept current as keys arrive,
    each key sized once when inserted, so the runtime's re-size after
    every fold costs O(1) instead of a walk over the whole vector
    (DESIGN.md §6.1). Values must be exactly ``int`` or ``float`` (a
    ``bool`` would be 1 byte, not 8). ``add`` sizes a vector's new keys in
    one pass before it changes anything; every other mutator goes through
    ``__setitem__``/``__delitem__``, which keep the count.
    """

    __slots__ = ("logical_size",)

    def __init__(self, entries: Mapping = ()):
        self.logical_size = _EMPTY_SIZE
        self.update(entries)

    def add(self, vector: Mapping) -> "SumMap":
        """Add ``vector`` into this map key by key; returns ``self``.

        All or nothing: a non-number value or an unsizable key raises
        before any entry changes.
        """
        if not _NUMBER_TYPES.issuperset(map(type, vector.values())):
            raise TypeError(_NOT_A_NUMBER)
        new = [key for key in vector if key not in self]
        if new:
            self.logical_size += sizeof_many(new) + _NUMBER_SIZE * len(new)
        get, setitem = self.get, dict.__setitem__
        for key, weight in vector.items():
            setitem(self, key, get(key, 0) + weight)
        return self

    def __setitem__(self, key: Any, value: Any) -> None:
        if value.__class__ not in _NUMBER_TYPES:
            raise TypeError(_NOT_A_NUMBER)
        if key not in self:
            self.logical_size += logical_sizeof(key) + _NUMBER_SIZE
        dict.__setitem__(self, key, value)

    def __delitem__(self, key: Any) -> None:
        dict.__delitem__(self, key)
        self.logical_size -= logical_sizeof(key) + _NUMBER_SIZE

    # dict's own versions write the table directly and would bypass the
    # count; these are built on __setitem__/__delitem__ (so popitem takes
    # the oldest entry, not the newest)
    update = MutableMapping.update
    popitem = MutableMapping.popitem
    setdefault = MutableMapping.setdefault
    clear = MutableMapping.clear

    def pop(self, key: Any, *default: Any) -> Any:
        if default and key not in self:
            return default[0]
        value = self[key]
        del self[key]
        return value

    def __ior__(self, other: Any) -> "SumMap":
        self.update(other)
        return self

    def copy(self) -> "SumMap":
        return self.__class__(self)

    def __reduce__(self):
        # rebuilt entry by entry, so a copy or unpickled map re-derives
        # its count instead of trusting a stored one
        return (self.__class__, (dict(self),))
