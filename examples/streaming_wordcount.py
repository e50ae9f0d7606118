#!/usr/bin/env python
"""Streaming WordCount: the same flowlet DAG over an unbounded-style feed.

§1's pitch: HAMR "naturally supports streaming and real-time computing"
with the same programming model. Here a StreamSource delivers micro-
batches at t = 2, 4, 6, ... virtual seconds (a message broker with four
partitions); the identical Tokenize -> PartialReduce pipeline counts
words as batches land, and the job finishes shortly after the last batch
— not after a batch-wide barrier.

Run:  python examples/streaming_wordcount.py
"""

from repro.cluster import Cluster, small_cluster_spec
from repro.core import (
    FlowletGraph,
    HamrEngine,
    Loader,
    Map,
    PartialReduce,
    StreamSource,
    TimedBatch,
)

FEED = [
    (2.0, ["tick alpha beta", "alpha gamma"]),
    (4.0, ["beta beta tick", "delta"]),
    (6.0, ["tick gamma gamma alpha"]),
    (8.0, ["omega tick"]),
]


def tokenize(ctx, _key, line):
    ctx.emit_many([(word, 1) for word in line.split()])


def main() -> None:
    batches = [
        TimedBatch.make(t, [(i, line) for i, line in enumerate(lines)])
        for t, lines in FEED
    ]
    source = StreamSource(batches, partitions=4)

    cluster = Cluster(small_cluster_spec(num_workers=4))
    engine = HamrEngine(cluster)

    graph = FlowletGraph("streaming-wordcount")
    loader = graph.add(Loader("feed", source))
    tok = graph.add(Map("tokenize", fn=tokenize))
    count = graph.add(
        PartialReduce("count", initial=lambda _w: 0, combine=lambda acc, v: acc + v)
    )
    graph.connect(loader, tok)
    graph.connect(tok, count)

    result = engine.run(graph)
    print("stream schedule: batches at t = " + ", ".join(f"{t:.0f}s" for t, _ in FEED))
    print(f"job finished at t = {result.end_time:.3f}s "
          f"(latency after last batch: {result.end_time - FEED[-1][0]:.3f}s)")
    print("\nfinal word counts:")
    for word, n in result.sorted_output("count"):
        print(f"  {word:>6s}  {n}")


if __name__ == "__main__":
    main()
