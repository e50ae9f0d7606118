"""Deterministic key partitioning.

Both engines shuffle key-value pairs by mapping keys onto a fixed number of
partitions; each node of the cluster owns a contiguous slice of the
partition space. Python's built-in ``hash`` is randomized per process for
strings, so all partitioners here are built on a stable FNV-1a hash to keep
runs reproducible across processes and sessions.
"""

from __future__ import annotations

import bisect
import struct
from typing import Any, Iterable, Sequence

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def stable_hash(key: Any) -> int:
    """A process-stable 64-bit hash of a key.

    Supports the key types the benchmarks produce: ``str``, ``bytes``,
    ``int``, ``float``, ``bool``, ``None`` and (nested) tuples thereof.
    """
    if isinstance(key, bytes):
        return _fnv1a(b"b" + key)
    if isinstance(key, str):
        return _fnv1a(b"s" + key.encode("utf-8", "surrogatepass"))
    if isinstance(key, bool):
        return _fnv1a(b"B1" if key else b"B0")
    if isinstance(key, int):
        try:
            return _fnv1a(b"i" + key.to_bytes(16, "little", signed=True))
        except OverflowError:
            # Outside [-2**127, 2**127): own tag and >= 17 signed bytes, so a
            # wide int cannot collide with the fixed 16-byte encoding.
            width = key.bit_length() // 8 + 1
            return _fnv1a(b"I" + key.to_bytes(width, "little", signed=True))
    if isinstance(key, float):
        return _fnv1a(b"f" + struct.pack("<d", key))
    if key is None:
        return _fnv1a(b"n")
    if isinstance(key, tuple):
        h = _FNV_OFFSET
        for item in key:
            h ^= stable_hash(item)
            h = (h * _FNV_PRIME) & _MASK64
        return h
    raise TypeError(f"unhashable key type for stable_hash: {type(key).__name__}")


class Partitioner:
    """Maps keys to partition ids in ``[0, num_partitions)``."""

    def __init__(self, num_partitions: int):
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = num_partitions

    def partition(self, key: Any) -> int:
        raise NotImplementedError

    def __call__(self, key: Any) -> int:
        return self.partition(key)


#: The only key types the memo may hold: for these, ``a == b`` implies the
#: same ``stable_hash`` bytes. Dict equality is coarser elsewhere
#: (``1 == 1.0 == True``, ``0.0 == -0.0``, and tuples inherit both).
_MEMO_KEY_TYPES = frozenset({str, bytes, int})


class HashPartitioner(Partitioner):
    """The default partitioner: stable hash modulo partition count.

    This matches Hadoop's ``HashPartitioner`` and the paper's statement that
    "each node works on a portion of the whole key space"; an evenly
    distributed key space balances the workload, a skewed one does not —
    which is exactly the HistogramRatings pathology of §5.2.

    Each distinct key is hashed once per instance: keys of exact type
    ``str``/``bytes``/``int`` — where ``==`` implies identical hash bytes —
    are answered from a private memo (DESIGN.md §6.1.1). Engines build one
    instance per run/job, so the memo never outlives a run.
    """

    def __init__(self, num_partitions: int):
        super().__init__(num_partitions)
        self._memo: dict[Any, int] = {}

    def partition(self, key: Any) -> int:
        if type(key) not in _MEMO_KEY_TYPES:
            return stable_hash(key) % self.num_partitions
        try:
            return self._memo[key]
        except KeyError:
            p = self._memo[key] = stable_hash(key) % self.num_partitions
            return p


class ModPartitioner(Partitioner):
    """Partition integer keys by value modulo the partition count.

    Used where the paper's benchmarks rely on direct key→node placement
    (e.g. routing a line-offset back to the node that stores the file).
    """

    def partition(self, key: Any) -> int:
        return int(key) % self.num_partitions


class RangePartitioner(Partitioner):
    """Partition orderable keys by split points (Hadoop TotalOrderPartitioner).

    ``boundaries`` must be sorted; keys <= ``boundaries[i]`` land in
    partition ``i``, keys above every boundary land in the last partition.
    """

    def __init__(self, boundaries: Sequence[Any]):
        super().__init__(len(boundaries) + 1)
        self.boundaries = list(boundaries)
        if any(self.boundaries[i] > self.boundaries[i + 1] for i in range(len(self.boundaries) - 1)):
            raise ValueError("range boundaries must be sorted")

    def partition(self, key: Any) -> int:
        return bisect.bisect_left(self.boundaries, key)


def partition_counts(partitioner: Partitioner, keys: Iterable[Any]) -> list[int]:
    """Histogram of how many of ``keys`` land in each partition (skew probe)."""
    counts = [0] * partitioner.num_partitions
    for key in keys:
        counts[partitioner.partition(key)] += 1
    return counts
