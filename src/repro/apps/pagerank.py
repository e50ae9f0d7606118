"""PageRank (§4, Algorithm 2).

Flowlet version — one multi-phase job per iteration, state in memory:

* iteration 1: EdgeFileLoader → HashJoinRed (reduce per src: store the
  dst list in the KV store, send ``rank/outdegree`` to each dst)
  → MergeRed (reduce per dst: damped sum, compare with the old rank,
  store) → ContMap (convergence counters);
* iterations ≥ 2: EdgeLoader reads adjacency *from memory*
  (:class:`KVStoreSource`) — no disk, no join job.

The KV-store keys ``("adj", p)`` and ``("rank", p)`` are partitioned by
the same default hash partitioner that routes reduce keys, so every
lookup in the pipeline is node-local.

Hadoop version — the classic two-jobs-per-iteration chain (plus an
initialization job): adjacency lists ride the shuffle and the DFS on
*every* job, which is exactly the §3.2 overhead HAMR removes; Table 2
reports 13.6x.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import AppEnv, AppResult
from repro.core import (
    FlowletGraph,
    KVStoreSource,
    Loader,
    LocalFSSource,
    Map,
    Reduce,
)
from repro.data.webgraph import webgraph_edges
from repro.mapreduce import Mapper, MRJob, Reducer, run_chain
from repro.mapreduce.chain import chain_makespan

APP = "pagerank"
INPUT = f"{APP}-edges"
DAMPING = 0.85


@dataclass(frozen=True)
class PageRankParams:
    n_pages: int = 500
    n_edges: int = 2_500
    iterations: int = 3
    seed: int = 0
    damping: float = DAMPING


def generate_input(params: PageRankParams) -> list[tuple[int, int]]:
    return webgraph_edges(params.n_pages, params.n_edges, seed=params.seed)


# -- HAMR ----------------------------------------------------------------------------


class _EdgeLoader(Loader):
    """Iteration >= 2 loader: adjacency straight out of the KV store."""

    def load(self, ctx, records) -> None:
        for key, dsts in records:
            if not (isinstance(key, tuple) and key[0] == "adj"):
                continue
            src = key[1]
            rank = ctx.kv_get(("rank", src))
            contribution = rank / len(dsts)
            pairs = [(dst, contribution) for dst in dsts]
            pairs.append((src, 0.0))  # ensure every page gets a MergeRed visit
            ctx.emit_many(pairs)


def _merge_and_cont(graph: FlowletGraph, upstream, params: PageRankParams) -> None:
    n = params.n_pages
    d = params.damping

    def merge_red(ctx, page: int, contributions: list) -> None:
        new_rank = (1.0 - d) / n + d * sum(contributions)
        old_rank = ctx.kv_get(("rank", page), 1.0 / n)
        ctx.kv_put(("rank", page), new_rank)
        ctx.emit(page, abs(new_rank - old_rank))

    merge = graph.add(Reduce("MergeRed", fn=merge_red))

    def cont_map(ctx, _page: int, delta: float) -> None:
        ctx.counter("delta_sum", delta)
        ctx.counter("pages_updated")

    cont = graph.add(Map("ContMap", fn=cont_map))
    graph.connect(upstream, merge)
    graph.connect(merge, cont)


def build_hamr_first_iteration(env: AppEnv, params: PageRankParams) -> FlowletGraph:
    graph = FlowletGraph(f"{APP}-iter1")
    loader = graph.add(Loader("EdgeFileLoader", LocalFSSource(env.localfs, INPUT)))
    n = params.n_pages

    def hash_join(ctx, src: int, dsts: list) -> None:
        dst_list = tuple(dsts)
        ctx.kv_put(("adj", src), dst_list)  # "save it into memory" (step 5)
        rank = 1.0 / n
        ctx.kv_put(("rank", src), rank)
        contribution = rank / len(dst_list)
        pairs = [(dst, contribution) for dst in dst_list]
        pairs.append((src, 0.0))
        ctx.emit_many(pairs)

    join = graph.add(Reduce("HashJoinRed", fn=hash_join))
    graph.connect(loader, join)
    _merge_and_cont(graph, join, params)
    return graph


def build_hamr_next_iteration(env: AppEnv, params: PageRankParams, iteration: int) -> FlowletGraph:
    graph = FlowletGraph(f"{APP}-iter{iteration}")
    loader = graph.add(_EdgeLoader("EdgeLoader", KVStoreSource(env.kvstore)))
    _merge_and_cont(graph, loader, params)
    return graph


def run_hamr_until_converged(
    env: AppEnv,
    params: PageRankParams,
    edges=None,
    tolerance: float = 1e-4,
    max_iterations: int = 25,
) -> tuple[AppResult, int]:
    """Alg. 2's driver loop verbatim: "while not converge and less than
    max number of iterations" — the convergence signal is ContMap's
    summed rank movement. Returns ``(result, iterations_run)``."""
    if edges is None:
        edges = generate_input(params)
    env.ingest_local(INPUT, edges)
    total_start = env.cluster.sim.now
    iterations_run = 0
    for iteration in range(1, max_iterations + 1):
        if iteration == 1:
            graph = build_hamr_first_iteration(env, params)
        else:
            graph = build_hamr_next_iteration(env, params, iteration)
        result = env.hamr.run(graph)
        iterations_run = iteration
        if result.counters.get("delta_sum", float("inf")) < tolerance:
            break
    makespan = env.cluster.sim.now - total_start
    ranks = {
        key[1]: value
        for key, value in env.kvstore.all_items()
        if isinstance(key, tuple) and key[0] == "rank"
    }
    return (
        AppResult(APP, "hamr", makespan, ranks, counters={"iterations": iterations_run}),
        iterations_run,
    )


def run_hamr(env: AppEnv, params: PageRankParams, edges=None) -> AppResult:
    if edges is None:
        edges = generate_input(params)
    env.ingest_local(INPUT, edges)
    total_start = env.cluster.sim.now
    counters: dict[str, float] = {}
    metrics: dict[str, float] = {}
    for iteration in range(1, params.iterations + 1):
        if iteration == 1:
            graph = build_hamr_first_iteration(env, params)
        else:
            graph = build_hamr_next_iteration(env, params, iteration)
        result = env.hamr.run(graph)
        for k, v in result.counters.items():
            counters[f"iter{iteration}_{k}"] = v
        for k, v in result.metrics.items():
            metrics[k] = metrics.get(k, 0.0) + v
    makespan = env.cluster.sim.now - total_start
    ranks = {
        key[1]: value
        for key, value in env.kvstore.all_items()
        if isinstance(key, tuple) and key[0] == "rank"
    }
    return AppResult(APP, "hamr", makespan, ranks, counters=counters, metrics=metrics)


# -- Hadoop --------------------------------------------------------------------------------


def build_hadoop_jobs(params: PageRankParams) -> list[MRJob]:
    n = params.n_pages
    d = params.damping
    identity = Mapper(fn=lambda ctx, k, v: ctx.emit(k, v))

    def init_reduce(ctx, src: int, dsts: list) -> None:
        ctx.emit(src, ("A", tuple(dsts)))
        ctx.emit(src, ("R", 1.0 / n))

    jobs = [
        MRJob(
            f"{APP}-init",
            INPUT,
            f"{APP}-state-0",
            mapper=Mapper(fn=lambda ctx, src, dst: ctx.emit(src, dst)),
            reducer=Reducer(fn=init_reduce),
        )
    ]

    def contrib_reduce(ctx, page: int, values: list) -> None:
        adj: tuple = ()
        rank = 1.0 / n
        for tag, payload in values:
            if tag == "A":
                adj = payload
            elif tag == "R":
                rank = payload
        ctx.emit(page, ("A", adj))  # adjacency rides the shuffle every job
        ctx.emit(page, ("C", 0.0))
        if adj:
            contribution = rank / len(adj)
            ctx.emit_many([(dst, ("C", contribution)) for dst in adj])

    def update_reduce(ctx, page: int, values: list) -> None:
        adj: tuple = ()
        total = 0.0
        for tag, payload in values:
            if tag == "A":
                adj = payload
            else:
                total += payload
        ctx.emit(page, ("A", adj))
        ctx.emit(page, ("R", (1.0 - d) / n + d * total))

    for i in range(1, params.iterations + 1):
        jobs.append(
            MRJob(
                f"{APP}-contrib-{i}",
                f"{APP}-state-{i - 1}",
                f"{APP}-contrib-{i}",
                mapper=identity,
                reducer=Reducer(fn=contrib_reduce),
            )
        )
        jobs.append(
            MRJob(
                f"{APP}-update-{i}",
                f"{APP}-contrib-{i}",
                f"{APP}-state-{i}",
                mapper=identity,
                reducer=Reducer(fn=update_reduce),
            )
        )
    return jobs


def run_hadoop(env: AppEnv, params: PageRankParams, edges=None) -> AppResult:
    if edges is None:
        edges = generate_input(params)
    env.ingest_dfs(INPUT, edges)
    results = run_chain(env.hadoop, build_hadoop_jobs(params))
    final = env.dfs.get_file(f"{APP}-state-{params.iterations}")
    ranks = {page: payload for page, (tag, payload) in final.records() if tag == "R"}
    metrics: dict[str, float] = {}
    for r in results:
        for k, v in r.metrics.items():
            metrics[k] = metrics.get(k, 0.0) + v
    return AppResult(
        APP, "hadoop", chain_makespan(results), ranks, metrics=metrics
    )


# -- reference -----------------------------------------------------------------------------------


def reference(edges: list[tuple[int, int]], params: PageRankParams) -> dict[int, float]:
    n = params.n_pages
    d = params.damping
    adjacency: dict[int, list[int]] = {}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
    ranks = {page: 1.0 / n for page in adjacency}
    for _ in range(params.iterations):
        incoming: dict[int, float] = {page: 0.0 for page in adjacency}
        for src, dsts in adjacency.items():
            contribution = ranks[src] / len(dsts)
            for dst in dsts:
                incoming[dst] = incoming.get(dst, 0.0) + contribution
        ranks = {
            page: (1.0 - d) / n + d * total for page, total in incoming.items()
        }
    return ranks
