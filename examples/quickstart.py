#!/usr/bin/env python
"""Quickstart: WordCount on the HAMR flowlet engine, in ~30 lines.

Builds a 4-worker simulated cluster, wires the three-flowlet WordCount
DAG (TextLoader -> Tokenize -> PartialReduce), runs it, and prints the
counts with the engine's virtual-clock makespan. Then runs the identical
computation on the Hadoop-style baseline for comparison.

Run:  python examples/quickstart.py
"""

from repro.cluster import Cluster, small_cluster_spec
from repro.core import (
    CollectionSource,
    FlowletGraph,
    HamrEngine,
    Loader,
    Map,
    PartialReduce,
)
from repro.mapreduce import HadoopEngine, Mapper, MRJob, Reducer
from repro.storage import DFS

LINES = [
    (0, "the quick brown fox jumps over the lazy dog"),
    (1, "the dog barks and the fox runs"),
    (2, "quick quick slow"),
]


def tokenize(ctx, _offset, line):
    ctx.emit_many([(word, 1) for word in line.split()])


def main() -> None:
    # --- HAMR: a flowlet DAG ------------------------------------------------
    cluster = Cluster(small_cluster_spec(num_workers=4))
    engine = HamrEngine(cluster)

    graph = FlowletGraph("wordcount")
    loader = graph.add(Loader("lines", CollectionSource(LINES)))
    tok = graph.add(Map("tokenize", fn=tokenize))
    count = graph.add(
        PartialReduce("count", initial=lambda _w: 0, combine=lambda acc, v: acc + v)
    )
    graph.connect(loader, tok)
    graph.connect(tok, count)

    result = engine.run(graph)
    print("HAMR word counts:")
    for word, n in result.sorted_output("count"):
        print(f"  {word:>6s}  {n}")
    print(f"HAMR makespan: {result.makespan:.4f} virtual seconds")

    # --- the Hadoop-style baseline, same data -------------------------------
    baseline_cluster = Cluster(small_cluster_spec(num_workers=4))
    dfs = DFS(baseline_cluster)
    dfs.ingest("input.txt", LINES)
    hadoop = HadoopEngine(baseline_cluster, dfs)
    job = MRJob(
        "wordcount",
        "input.txt",
        "out",
        mapper=Mapper(fn=tokenize),
        reducer=Reducer(fn=lambda ctx, w, counts: ctx.emit(w, sum(counts))),
    )
    mr_result = hadoop.run(job)
    assert dict(mr_result.outputs) == dict(result.output("count"))
    print(f"Hadoop makespan: {mr_result.makespan:.4f} virtual seconds")
    print(
        f"(the baseline pays {baseline_cluster.cost.hadoop_job_startup:.0f}s of job "
        "startup plus per-task JVM launches — HAMR's resident runtime does not)"
    )


if __name__ == "__main__":
    main()
