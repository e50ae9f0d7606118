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

from repro.apps.base import AppEnv, AppResult, run_on_hadoop, run_on_hamr
from repro.core import (
    FlowletGraph,
    KVStoreSource,
    Loader,
    LocalFSSource,
    Map,
    Reduce,
)
from repro.data.webgraph import webgraph_edges
from repro.mapreduce import Mapper, MRJob, Reducer

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


def _iterations(env: AppEnv, params: PageRankParams, count: int):
    """One graph per iteration: the first joins the edge file, the rest
    load adjacency from memory. Built lazily, each after the last ran."""
    for iteration in range(1, count + 1):
        if iteration == 1:
            yield build_hamr_first_iteration(env, params)
        else:
            yield build_hamr_next_iteration(env, params, iteration)


def _ranks(env: AppEnv) -> dict[int, float]:
    return {
        key[1]: value
        for key, value in env.kvstore.all_items()
        if isinstance(key, tuple) and key[0] == "rank"
    }


def run_hamr_until_converged(
    env: AppEnv,
    params: PageRankParams,
    edges,
    tolerance: float = 1e-4,
    max_iterations: int = 25,
) -> tuple[AppResult, int]:
    """Alg. 2's driver loop verbatim: "while not converge and less than
    max number of iterations" — the convergence signal is ContMap's
    summed rank movement. Returns ``(result, iterations_run)``."""
    movements: list[float] = []

    def converged(result) -> bool:
        movements.append(result.counters.get("delta_sum", float("inf")))
        return movements[-1] < tolerance

    result = run_on_hamr(
        env, APP, INPUT, edges, _iterations(env, params, max_iterations),
        lambda _last: _ranks(env), until=converged,
    )
    return result, len(movements)


def run_hamr(env: AppEnv, params: PageRankParams, edges) -> AppResult:
    return run_on_hamr(
        env, APP, INPUT, edges, _iterations(env, params, params.iterations),
        lambda _last: _ranks(env),
    )


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


def run_hadoop(env: AppEnv, params: PageRankParams, edges) -> AppResult:
    def read_ranks(last) -> dict[int, float]:
        final = env.dfs.get_file(last.output_file)  # the last update's state
        return {page: payload for page, (tag, payload) in final.records() if tag == "R"}

    return run_on_hadoop(env, APP, INPUT, edges, build_hadoop_jobs(params), read_ranks)


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
