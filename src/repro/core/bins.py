"""Bins — the engine's unit of data movement and task enablement.

"Each bin represents the minimum data required to enable a flowlet" (§2):
producers pack emitted key-value pairs into per-(edge, partition) bins;
a sealed bin is shipped through the shuffle to the partition's owner node,
where it lands in the destination flowlet's bounded inbox and enables one
fine-grain flowlet task.

A :class:`Bin` is a routed :class:`~repro.dataplane.RecordBatch`: the
shared data plane supplies the records, the cached logical byte count and
the scale-model ``aggregated`` flag; the bin adds the routing state
(edge, partition) and the combiner / trace bookkeeping.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.common.sizeof import _CONTAINER_OVERHEAD, _SIZERS, _resolve_sizer, pair_size
from repro.core.graph import Edge, EdgeMode
from repro.dataplane.batch import RecordBatch
from repro.dataplane.exchange import BROADCAST_PARTITION


def pair_list(pairs: Iterable[Any]) -> list[tuple[Any, Any]]:
    """The ``(key, value)`` pairs of ``pairs`` as a list, iterated once.

    An exact 2-tuple is kept as the object the caller emitted (tuples are
    immutable, and sizing reads the key and value, not the container);
    any other pair, e.g. a ``[key, value]`` list, is unpacked into a new
    tuple, and a non-pair raises the error of unpacking it.
    """
    # ``for key, value in (pair,)`` compiles to one unpacking of ``pair``
    return [
        pair if pair.__class__ is tuple else (key, value)
        for pair in pairs
        for key, value in (pair,)
    ]


class Bin(RecordBatch):
    """A packed batch of key-value pairs bound for one (edge, partition).

    ``aggregated`` marks key-space-bounded aggregate data, charged
    unscaled under the scale model (see ``Flowlet.aggregated_output``).
    """

    __slots__ = ("edge_id", "partition", "represents", "trace_src")

    def __init__(
        self,
        edge_id: int,
        partition: int,
        pairs: Optional[list[tuple[Any, Any]]] = None,
        nbytes: int = 0,
        aggregated: bool = False,
        represents: int = 0,
        trace_src: int = 0,
    ):
        super().__init__(
            pairs if pairs is not None else [], nbytes=nbytes, aggregated=aggregated
        )
        self.edge_id = edge_id
        self.partition = partition
        #: original record count this bin stands for (set by combiners; 0 =
        #: its own pair count). Accumulator-update pressure follows the
        #: original records — Table 3's finding is that combining shrinks
        #: shuffle volume but not the serialized accumulator path.
        self.represents = represents
        #: id of the ship span that delivered this bin (0 when untraced);
        #: the consuming task emits a shuffle producer -> consumer edge
        self.trace_src = trace_src

    @property
    def pairs(self) -> list[tuple[Any, Any]]:
        return self.records

    @property
    def effective_records(self) -> int:
        return self.represents or len(self.records)

    def append(self, key: Any, value: Any) -> None:  # type: ignore[override]
        self.records.append((key, value))
        self._nbytes += pair_size(key, value)

    def __iter__(self) -> Iterator[tuple[Any, Any]]:
        return iter(self.records)


class BinPacker:
    """Accumulates emitted pairs into bins for one producing flowlet instance.

    One open bin per (edge, partition). ``add_many`` packs pairs and
    returns the bins they sealed; ``drain`` seals and returns everything
    left (called at task/flowlet completion so no pair is ever stranded).
    """

    def __init__(self, bin_size: int, aggregated: bool = False):
        if bin_size <= 0:
            raise ValueError("bin_size must be positive")
        self.bin_size = bin_size
        self.aggregated = aggregated
        self._open: dict[tuple[int, int], Bin] = {}

    def add_many(
        self, edges: Sequence[Edge], pairs: Iterable[Any], local_partition: int
    ) -> list[Bin]:
        """Pack each ``(key, value)`` of ``pairs`` onto every edge of ``edges``.

        Pairs are taken in order and, per pair, the edges in order: route
        (SHUFFLE edges by the edge's partitioner, LOCAL edges to
        ``local_partition``, BROADCAST edges to :data:`BROADCAST_PARTITION`),
        append, size, and seal the bin the moment its running byte count
        reaches ``bin_size``. Seal points and the order of the returned
        bins are therefore those of packing the pairs one at a time.
        ``pairs`` is iterated once, so a generator may fan out to several
        edges; an exact 2-tuple is stored as it is, any other pair as a new
        tuple (see :func:`pair_list`), and an element that is not a pair
        raises the error of unpacking it.
        """
        routes = [
            (
                edge.edge_id,
                edge.partitioner.partition if edge.mode is EdgeMode.SHUFFLE else None,
                local_partition if edge.mode is EdgeMode.LOCAL else BROADCAST_PARTITION,
            )
            for edge in edges
        ]
        open_bins = self._open
        bin_size = self.bin_size
        sizers = _SIZERS
        sealed: list[Bin] = []
        for pair in pairs:
            key, value = pair
            if pair.__class__ is not tuple:
                pair = (key, value)
            # pair_size, inline: one table lookup per component
            size = (
                (sizers.get(key.__class__) or _resolve_sizer(key.__class__))(key)
                + (sizers.get(value.__class__) or _resolve_sizer(value.__class__))(value)
                + _CONTAINER_OVERHEAD
            )
            for edge_id, partition_of, partition in routes:
                if partition_of is not None:
                    partition = partition_of(key)
                slot = (edge_id, partition)
                open_bin = open_bins.get(slot)
                if open_bin is None:
                    open_bin = open_bins[slot] = Bin(
                        edge_id, partition, aggregated=self.aggregated
                    )
                open_bin.records.append(pair)
                open_bin._nbytes += size
                if open_bin._nbytes >= bin_size:
                    del open_bins[slot]
                    sealed.append(open_bin)
        return sealed

    def drain(self, edge_id: Optional[int] = None) -> list[Bin]:
        """Seal and return all open bins (optionally only one edge's)."""
        drained: list[Bin] = []
        for slot in sorted(self._open):
            if edge_id is not None and slot[0] != edge_id:
                continue
            bin_ = self._open[slot]
            if bin_.pairs:
                drained.append(bin_)
        for bin_ in drained:
            del self._open[(bin_.edge_id, bin_.partition)]
        return drained

    @property
    def open_bins(self) -> int:
        return len(self._open)
