"""The HAMR flowlet engine — the paper's core contribution.

Public surface:

* flowlet types: :class:`Loader`, :class:`Map`, :class:`Reduce`,
  :class:`PartialReduce` (§2's four phase types);
* :class:`FlowletGraph` with :class:`EdgeMode` (shuffle / local /
  broadcast) and per-edge :class:`Combiner`;
* data sources: DFS, node-local files, the KV store, in-memory
  collections, and streaming sources;
* :class:`HamrEngine` / :class:`HamrConfig` / :class:`JobResult`.

Minimal WordCount::

    graph = FlowletGraph("wordcount")
    loader = graph.add(Loader("lines", DFSSource(dfs, "input.txt")))
    tokenize = graph.add(Map("tokenize", fn=lambda ctx, off, line:
        ctx.emit_many((w, 1) for w in line.split())))
    counts = graph.add(PartialReduce("count",
        initial=lambda k: 0, combine=lambda acc, v: acc + v))
    graph.connect(loader, tokenize)
    graph.connect(tokenize, counts)
    result = HamrEngine(cluster).run(graph)
"""

from repro.core.bins import Bin, BinPacker
from repro.core.combiner import Combiner, sum_combiner
from repro.core.context import TaskContext
from repro.core.engine import HamrConfig, HamrEngine, JobResult
from repro.core.flowlet import (
    Flowlet,
    FlowletKind,
    Loader,
    Map,
    PartialReduce,
    Reduce,
    SumMap,
)
from repro.core.graph import Edge, EdgeMode, FlowletGraph
from repro.core.sources import (
    CollectionSource,
    DataSource,
    DFSSource,
    KVStoreSource,
    LocalFSSource,
    PerNodeSource,
    SourceSplit,
)
from repro.core.master import HamrMaster, JobHandle, JobState
from repro.core.streaming import StreamSource, TimedBatch
from repro.core.windows import TumblingWindows

__all__ = [
    "Flowlet",
    "FlowletKind",
    "Loader",
    "Map",
    "Reduce",
    "PartialReduce",
    "SumMap",
    "FlowletGraph",
    "Edge",
    "EdgeMode",
    "Combiner",
    "sum_combiner",
    "Bin",
    "BinPacker",
    "TaskContext",
    "HamrEngine",
    "HamrConfig",
    "JobResult",
    "DataSource",
    "SourceSplit",
    "DFSSource",
    "LocalFSSource",
    "KVStoreSource",
    "CollectionSource",
    "PerNodeSource",
    "StreamSource",
    "TimedBatch",
    "HamrMaster",
    "JobHandle",
    "JobState",
    "TumblingWindows",
]
