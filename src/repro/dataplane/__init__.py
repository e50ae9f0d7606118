"""The unified record-batch data plane shared by both engines.

Everything that moves records between tasks, nodes, or memory and disk —
flowlet bins, map output, shuffle payloads, spill runs, DFS blocks —
flows through this package as :class:`RecordBatch` objects: records plus
a cached logical byte count plus the scale-model ``aggregated`` flag.

Size accounting is **one amortized pass per batch** instead of a
``logical_sizeof`` call per record at every layer, with the invariant
(asserted in tests) that the batch charge equals the sum of per-record
charges — so virtual-clock results are byte-identical to per-record
accounting while real wall-clock drops.

Later sharding / multi-backend work plugs in here: a new exchange
backend or shard-aware partitioner only has to speak batches.
"""

from repro.dataplane.batch import (
    BatchBuilder,
    RecordBatch,
    batch_nbytes,
    chunk_records,
    pair_nbytes,
)
from repro.dataplane.exchange import (
    BROADCAST,
    BROADCAST_PARTITION,
    LOCAL,
    SHUFFLE,
    SpillPool,
    exchange_targets,
    partition_batch,
)
from repro.dataplane.fabrics import (
    FABRICS,
    ExchangeFabric,
    ExchangePlan,
    Topology,
    make_fabric,
)

__all__ = [
    "RecordBatch",
    "BatchBuilder",
    "batch_nbytes",
    "pair_nbytes",
    "chunk_records",
    "partition_batch",
    "exchange_targets",
    "SpillPool",
    "SHUFFLE",
    "LOCAL",
    "BROADCAST",
    "BROADCAST_PARTITION",
    "FABRICS",
    "ExchangeFabric",
    "ExchangePlan",
    "Topology",
    "make_fabric",
]
