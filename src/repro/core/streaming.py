"""Streaming sources.

HAMR "naturally supports streaming and real-time computing" (§1) with the
same programming and processing model — the Lambda-architecture pitch. A
:class:`StreamSource` feeds loader flowlets batches that *arrive over
virtual time*; the engine's loader tasks consume each batch as it lands
and the downstream DAG processes it incrementally, exactly as for batch
inputs. The stream ends when its schedule is exhausted (tests/examples) —
an unbounded deployment would simply keep appending batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.common.errors import ConfigError
from repro.common.sizeof import sizeof_many
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.core.sources import DataSource, SourceSplit


@dataclass(frozen=True)
class TimedBatch:
    """A batch of records that becomes available at ``time`` (virtual s)."""

    time: float
    records: tuple

    @staticmethod
    def make(time: float, records: Sequence[Any]) -> "TimedBatch":
        return TimedBatch(time, tuple(records))


class _StreamReader:
    """Pull interface used by loader tasks: one call per arriving batch."""

    def __init__(self, batches: list[TimedBatch]):
        self._batches = batches
        self._cursor = 0

    def next_chunk(self, node: Node):
        if self._cursor >= len(self._batches):
            if False:  # pragma: no cover - generator protocol
                yield None
            return None
        batch = self._batches[self._cursor]
        self._cursor += 1
        wait = batch.time - node.sim.now
        if wait > 0:
            yield node.sim.timeout(wait)
        return list(batch.records)


class _StreamSplit(SourceSplit):
    def __init__(self, split_id: int, preferred: list[int], batches: list[TimedBatch]):
        nrecords = sum(len(b.records) for b in batches)
        nbytes = sum(sizeof_many(b.records) for b in batches)
        super().__init__(split_id, preferred, nrecords, nbytes)
        self._batches = batches

    def reader(self) -> _StreamReader:
        return _StreamReader(self._batches)


class StreamSource(DataSource):
    """A message-broker-like source: per-partition timed batches.

    ``batches`` is a list of :class:`TimedBatch` in non-decreasing time
    order; they are spread over ``partitions`` stream partitions, each
    becoming one loader split pinned round-robin to a worker (like Kafka
    partitions with sticky consumers).
    """

    def __init__(self, batches: Sequence[TimedBatch], partitions: int = 0):
        self.batches = list(batches)
        if any(
            self.batches[i].time > self.batches[i + 1].time
            for i in range(len(self.batches) - 1)
        ):
            raise ConfigError("stream batches must be in non-decreasing time order")
        self.partitions = partitions

    def splits(self, cluster: Cluster) -> list[SourceSplit]:
        nparts = self.partitions or cluster.num_workers
        shards: list[list[TimedBatch]] = [[] for _ in range(nparts)]
        for i, batch in enumerate(self.batches):
            shards[i % nparts].append(batch)
        out = []
        for i, shard in enumerate(shards):
            preferred = [cluster.workers[i % cluster.num_workers].node_id]
            out.append(_StreamSplit(i, preferred, shard))
        return out
