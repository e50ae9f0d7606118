"""The metrics registry: counters, gauges, virtual-time histograms, series.

Both engines and the substrate report into one :class:`MetricsRegistry`
(held by the tracer). Metrics are identified by a name plus a sorted label
set, e.g. ``registry.counter("dfs.local_reads", node=3)``. Everything is
deterministic: snapshots iterate metrics and labels in sorted order, so two
identical runs serialize to byte-identical JSON.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Any, Optional, Sequence, Tuple

from repro.obs.columns import Column

#: default virtual-seconds histogram bucket upper bounds
DEFAULT_BOUNDS = (0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 300.0, 1800.0)

LabelKey = Tuple[Tuple[str, Any], ...]


class Counter:
    """A monotonically increasing count (events, bytes, records).

    ``_j`` is the optional journal emit hook (None unless the registry was
    built with a :class:`~repro.obs.journal.JournalWriter`); when set,
    every state change is recorded as it happens.
    """

    __slots__ = ("value", "_j")

    def __init__(self) -> None:
        self.value = 0.0
        self._j = None

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be non-negative: {amount}")
        self.value += amount
        if self._j is not None:
            self._j(amount)

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A value that goes up and down (queue depth, resident bytes)."""

    __slots__ = ("value", "_j")

    def __init__(self) -> None:
        self.value = 0.0
        self._j = None

    def set(self, value: float) -> None:
        self.value = value
        if self._j is not None:
            self._j("set", value)

    def add(self, delta: float) -> None:
        self.value += delta
        if self._j is not None:
            self._j("add", delta)

    def snapshot(self) -> float:
        return self.value


#: percentile summaries reported by histogram snapshots, in report order
PERCENTILES = (50.0, 95.0, 99.0)


class Histogram:
    """Fixed-bucket histogram of observations (virtual-time durations).

    ``bounds`` are inclusive upper edges; observations above the last bound
    land in an implicit overflow bucket. Raw observations are retained so
    percentile summaries (p50/p95/p99) are exact, not bucket-interpolated.
    """

    __slots__ = ("bounds", "counts", "count", "total", "values", "_j")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS):
        self.bounds = tuple(sorted(bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.values = Column("d")
        self._j = None

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if type(value) is float:  # fits a "d" column's storage as it is
            self.values.data.append(value)
        else:
            self.values.append(value)
        if self._j is not None:
            self._j(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentiles(self) -> dict[str, float]:
        """The standard summary ``{"p50": ..., "p95": ..., "p99": ...}``:
        exact nearest-rank percentiles (0 when empty), read from one sort
        of the observations."""
        ordered = sorted(self.values.data)
        n = len(ordered)
        return {
            f"p{q:g}": ordered[max(1, math.ceil(q / 100.0 * n)) - 1] if n else 0.0
            for q in PERCENTILES
        }

    def snapshot(self) -> dict:
        snap = {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
        }
        snap.update(self.percentiles())
        return snap


class TimeSeries:
    """(virtual time, value) samples, e.g. a node's busy-thread count."""

    __slots__ = ("times", "values", "_j")

    def __init__(self) -> None:
        self.times = Column("d")
        self.values = Column()
        self._j = None

    def append(self, time: float, value: float) -> None:
        if self._j is not None:
            self._j(time, value)
        # Collapse same-instant updates: keep the latest sample per time.
        if self.times.data and self.times.data[-1] == time:
            self.times[-1] = time
            self.values[-1] = value
        else:
            self.times.append(time)
            self.values.append(value)

    @property
    def points(self) -> list[tuple[float, float]]:
        """The ``(time, value)`` samples, oldest first."""
        return list(zip(self.times.data, self.values.data))

    def value_at(self, time: float) -> float:
        """The most recent sample at or before ``time`` (0.0 before any)."""
        value = 0.0
        for t, v in zip(self.times.data, self.values.data):
            if t > time:
                break
            value = v
        return value

    def snapshot(self) -> list[list[float]]:
        return [[t, v] for t, v in zip(self.times.data, self.values.data)]


class MetricsRegistry:
    """A flat namespace of labelled metrics.

    Accessors create on first use, so reporting sites never pre-register.
    With a ``journal`` attached, each creation is declared and each
    metric object gets a per-metric emit hook — call sites that captured
    the object in a closure still journal every mutation.
    """

    def __init__(self, journal=None) -> None:
        self._counters: dict[str, dict[LabelKey, Counter]] = {}
        self._gauges: dict[str, dict[LabelKey, Gauge]] = {}
        self._histograms: dict[str, dict[LabelKey, Histogram]] = {}
        self._series: dict[str, dict[LabelKey, TimeSeries]] = {}
        self._journal = journal

    @staticmethod
    def _key(labels: dict) -> LabelKey:
        return tuple(sorted(labels.items()))

    def counter(self, name: str, **labels: Any) -> Counter:
        family = self._counters.setdefault(name, {})
        key = self._key(labels)
        metric = family.get(key)
        if metric is None:
            metric = family[key] = Counter()
            if self._journal is not None:
                self._journal.declare_metric("c", name, key)
                metric._j = self._journal.metric_hook("c", name, key)
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        family = self._gauges.setdefault(name, {})
        key = self._key(labels)
        metric = family.get(key)
        if metric is None:
            metric = family[key] = Gauge()
            if self._journal is not None:
                self._journal.declare_metric("g", name, key)
                metric._j = self._journal.metric_hook("g", name, key)
        return metric

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None, **labels: Any
    ) -> Histogram:
        family = self._histograms.setdefault(name, {})
        key = self._key(labels)
        metric = family.get(key)
        if metric is None:
            metric = family[key] = Histogram(bounds or DEFAULT_BOUNDS)
            if self._journal is not None:
                self._journal.declare_metric(
                    "h", name, key,
                    bounds=None if metric.bounds == DEFAULT_BOUNDS else metric.bounds,
                )
                metric._j = self._journal.metric_hook("h", name, key)
        return metric

    def series(self, name: str, **labels: Any) -> TimeSeries:
        family = self._series.setdefault(name, {})
        key = self._key(labels)
        metric = family.get(key)
        if metric is None:
            metric = family[key] = TimeSeries()
            if self._journal is not None:
                self._journal.declare_metric("s", name, key)
                metric._j = self._journal.metric_hook("s", name, key)
        return metric

    # -- aggregation -----------------------------------------------------------

    def counter_total(self, name: str) -> float:
        """Sum of a counter family over all label sets."""
        return sum(c.value for c in self._counters.get(name, {}).values())

    def counter_values(self, name: str) -> dict[LabelKey, float]:
        """Counter family as ``{label_key: value}`` in deterministic order."""
        family = self._counters.get(name, {})
        return {
            key: c.value
            for key, c in sorted(family.items(), key=lambda kv: repr(kv[0]))
        }

    def gauge_values(self, name: str) -> dict[LabelKey, float]:
        """Gauge family as ``{label_key: value}`` in deterministic order."""
        family = self._gauges.get(name, {})
        return {
            key: g.value
            for key, g in sorted(family.items(), key=lambda kv: repr(kv[0]))
        }

    def counter_by(self, name: str, label: str) -> dict[Any, float]:
        """Counter family aggregated by one label (missing label -> None)."""
        out: dict[Any, float] = {}
        for key, counter in self._counters.get(name, {}).items():
            value = dict(key).get(label)
            out[value] = out.get(value, 0.0) + counter.value
        return out

    def histogram_families(self) -> dict[str, list[tuple[dict, "Histogram"]]]:
        """Histograms grouped by name, label sets in deterministic order."""
        return {
            name: [
                (dict(key), metric)
                for key, metric in sorted(family.items(), key=lambda kv: repr(kv[0]))
            ]
            for name, family in sorted(self._histograms.items())
        }

    def names(self) -> list[str]:
        return sorted(
            set(self._counters) | set(self._gauges)
            | set(self._histograms) | set(self._series)
        )

    def snapshot(self) -> dict:
        """A deterministic, JSON-serializable dump of every metric."""

        def family(metrics: dict[str, dict[LabelKey, Any]]) -> dict:
            return {
                name: [
                    {"labels": dict(key), "value": metric.snapshot()}
                    for key, metric in sorted(values.items(), key=lambda kv: repr(kv[0]))
                ]
                for name, values in sorted(metrics.items())
            }

        return {
            "counters": family(self._counters),
            "gauges": family(self._gauges),
            "histograms": family(self._histograms),
            "series": family(self._series),
        }
