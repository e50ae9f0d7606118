"""Record batches — the unit of data motion shared by both engines.

The paper's HAMR engine wins by moving data through in-memory,
flowlet-to-flowlet channels instead of disk-staged record streams
(PAPER §2–§3). Reproducing that comparison credibly requires both
engines to move data through *one* factored layer, so that measured
differences come from the architectures, not from two divergent
re-implementations of partitioning, size accounting and spill staging.

A :class:`RecordBatch` is a list of records plus a **cached logical byte
count** and the scale-model ``aggregated`` flag. The cache is the hot-path
contract: every payload is sized by *one amortized pass per batch* —
made when the batch is built or inherited from a producer that already
knew the size — and never re-sized downstream. The accounting rule
(asserted by tests) is::

    batch.nbytes == sum(map(logical_sizeof, batch))

so batching changes how often sizes are computed, never what they sum to:
virtual-clock results are byte-identical to per-record accounting.

:class:`BatchBuilder` streams records into size-bounded batches (loader
chunks, DFS blocks), sealing exactly where per-record accumulation would
— chunk boundaries, and therefore simulation event counts, are unchanged.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Optional

from repro.common.sizeof import logical_sizeof, pair_size, sizeof_many
from repro.obs import hostprof as _hostprof

__all__ = [
    "RecordBatch",
    "BatchBuilder",
    "batch_nbytes",
    "pair_nbytes",
    "chunk_records",
]


def batch_nbytes(records: Iterable[Any]) -> int:
    """Logical size of ``records`` in one amortized pass.

    Exactly ``sum(map(logical_sizeof, records))`` — the per-record
    measure is the semantics, :func:`~repro.common.sizeof.sizeof_many`
    is how it is computed (column-wise when the records share a shape).
    """
    with _hostprof.scope(_hostprof.DATAPLANE, "sizing") as frame:
        total = sizeof_many(records)
        frame.units(0, total)
    return total


#: logical size of one key-value pair (re-exported so engine hot paths
#: depend only on the dataplane for sizing)
pair_nbytes = pair_size


class RecordBatch:
    """Records + cached logical byte count + aggregated flag.

    ``nbytes`` is computed lazily on first access and cached; builders
    and producers that already know the size pass it in and no sizing
    pass ever runs. For key-value payloads note that a pair's record
    size equals ``pair_size``: ``logical_sizeof((k, v)) == pair_size(k, v)``,
    so one batch type covers record streams and pair streams alike.
    """

    __slots__ = ("records", "aggregated", "_nbytes")

    def __init__(
        self,
        records: Optional[list[Any]] = None,
        *,
        nbytes: Optional[int] = None,
        aggregated: bool = False,
    ):
        self.records: list[Any] = records if records is not None else []
        self.aggregated = aggregated
        self._nbytes = nbytes

    @property
    def nbytes(self) -> int:
        """Cached logical size (one amortized pass on first access)."""
        if self._nbytes is None:
            self._nbytes = batch_nbytes(self.records)
        return self._nbytes

    @property
    def nrecords(self) -> int:
        return len(self.records)

    def append(self, record: Any) -> int:
        """Add one record, keeping the cache valid; returns its size."""
        size = logical_sizeof(record)
        self.records.append(record)
        if self._nbytes is not None:
            self._nbytes += size
        return size

    def extend(self, records: Iterable[Any]) -> None:
        records = list(records)
        if self._nbytes is not None:
            self._nbytes += batch_nbytes(records)
        self.records.extend(records)

    def sort(self, key: Callable[[Any], Any]) -> None:
        """Sort records in place (sizes are order-independent)."""
        self.records.sort(key=key)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __bool__(self) -> bool:
        return bool(self.records)

    def __eq__(self, other: Any) -> bool:
        """Batches compare by content — against lists too, so consumers
        that treated payloads as plain record lists keep working."""
        if isinstance(other, RecordBatch):
            return self.records == other.records
        if isinstance(other, list):
            return self.records == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment] - mutable container

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sized = "?" if self._nbytes is None else str(self._nbytes)
        return (
            f"<RecordBatch n={len(self.records)} nbytes={sized}"
            f"{' aggregated' if self.aggregated else ''}>"
        )


class BatchBuilder:
    """Streams records into size-bounded :class:`RecordBatch` chunks.

    Seals the open batch once its accumulated size satisfies
    ``scale_fn(size) >= limit`` (``scale_fn`` defaults to identity; the
    DFS passes the cost model's byte scaling so block boundaries land in
    *scaled* bytes) — byte-for-byte the rule the engines' inline
    accumulation loops used, so chunk boundaries are unchanged.
    """

    def __init__(
        self,
        limit: float,
        *,
        aggregated: bool = False,
        scale_fn: Optional[Callable[[int], float]] = None,
    ):
        if limit <= 0:
            raise ValueError("batch size limit must be positive")
        self.limit = limit
        self.aggregated = aggregated
        self.scale_fn = scale_fn
        self._open: list[Any] = []
        self._open_bytes = 0
        # Metrics
        self.batches_sealed = 0
        self.records_added = 0

    def add(self, record: Any) -> Optional[RecordBatch]:
        """Add one record; returns the sealed batch when one fills up."""
        self._open.append(record)
        self._open_bytes += logical_sizeof(record)
        self.records_added += 1
        scaled = (
            self.scale_fn(self._open_bytes) if self.scale_fn else self._open_bytes
        )
        if scaled >= self.limit:
            return self._seal()
        return None

    def drain(self) -> Optional[RecordBatch]:
        """Seal and return whatever is buffered (None when empty)."""
        if not self._open:
            return None
        return self._seal()

    def _seal(self) -> RecordBatch:
        batch = RecordBatch(
            self._open, nbytes=self._open_bytes, aggregated=self.aggregated
        )
        self._open, self._open_bytes = [], 0
        self.batches_sealed += 1
        return batch


def chunk_records(
    records: Iterable[Any], chunk_bytes: float, *, aggregated: bool = False
) -> list[RecordBatch]:
    """Split ``records`` into size-bounded batches (loader chunking).

    Fast path: a :class:`RecordBatch` whose cached size already fits in
    one chunk passes through without any per-record sizing.
    """
    if (
        isinstance(records, RecordBatch)
        and records._nbytes is not None
        and records.nbytes <= chunk_bytes
    ):
        return [records] if records.records else []
    with _hostprof.scope(_hostprof.DATAPLANE, "chunk_records") as frame:
        builder = BatchBuilder(chunk_bytes, aggregated=aggregated)
        chunks = []
        for record in records:
            sealed = builder.add(record)
            if sealed is not None:
                chunks.append(sealed)
        last = builder.drain()
        if last is not None:
            chunks.append(last)
        frame.units(builder.records_added, sum(c.nbytes for c in chunks))
    return chunks
