"""K-Cliques (§4, Algorithm 3).

Find all fully-connected vertex sets of size K. Flowlet version (one
multi-phase job):

* RelationshipLoader streams ``a knows b`` pairs (both directions);
* KCliquesGraphBuilder (reduce per vertex) stores each adjacency set in
  the node-shared KV store — the paper's "building the graph into memory
  distributedly ... one JVM per node so all tasks can share memory";
* TwoCliquesGenerator (reduce) fires only after the builder completes on
  every node (a pure control edge models Alg. 3's "when all data is ready
  in memory, call TwoCliquesGenerator") and streams 2-clique candidates;
* a chain of ICliquesVerify map flowlets (I = 2..K) validates candidates
  against the locally stored adjacency of their newest vertex and extends
  them — fine-grain, asynchronous, in-memory.

Each clique ``{v1 < ... < vK}`` is generated along exactly one path
(ascending vertex order), so no deduplication pass is needed.

Hadoop version: K-1 chained jobs; adjacency lists must ride the shuffle
and the DFS through *every* level — and for larger graphs the per-task
JVM heap simply cannot hold the graph (the paper: "Hadoop quickly runs
out of memory for larger graphs"), which :class:`MemoryBudgetExceeded`
reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import AppEnv, AppResult
from repro.core import (
    FlowletGraph,
    Loader,
    LocalFSSource,
    Map,
    Reduce,
)
from repro.data.rmat import rmat_edges
from repro.mapreduce import Mapper, MRJob, Reducer, run_chain
from repro.mapreduce.chain import chain_makespan

APP = "kcliques"
INPUT = f"{APP}-edges"

#: set-membership probing over candidate tuples is CPU-heavy
COMPUTE_FACTOR = 48.0


@dataclass(frozen=True)
class KCliquesParams:
    scale: int = 7  # 2**scale vertices
    n_edges: int = 1_500
    k: int = 3
    seed: int = 0
    #: reducers per Hadoop job; the vertex key space is wide, so PUMA-style
    #: configs use many waves of reducers
    hadoop_reducers: int = 0  # 0 = engine default

    def __post_init__(self):
        if self.k < 3:
            raise ValueError("k must be >= 3")


def generate_input(params: KCliquesParams) -> list[tuple[int, int]]:
    return rmat_edges(params.scale, params.n_edges, seed=params.seed)


# -- HAMR -------------------------------------------------------------------------------


class _RelationshipLoader(Loader):
    """Streams each undirected relationship in both directions."""

    def load(self, ctx, records) -> None:
        ctx.emit_many([pair for u, v in records for pair in ((u, v), (v, u))])


def build_hamr_graph(env: AppEnv, params: KCliquesParams) -> FlowletGraph:
    graph = FlowletGraph(APP)
    loader = graph.add(
        _RelationshipLoader("KCliquesLoader", LocalFSSource(env.localfs, INPUT))
    )

    def build_graph(ctx, vertex: int, neighbors: list) -> None:
        ctx.kv_put(("adj", vertex), frozenset(neighbors))

    builder = graph.add(Reduce("KCliquesGraphBuilder", fn=build_graph))

    def two_cliques(ctx, vertex: int, neighbors: list) -> None:
        ctx.emit_many([(w, (vertex,)) for w in sorted(set(neighbors)) if w > vertex])

    generator = graph.add(Reduce("TwoCliquesGenerator", fn=two_cliques))

    def make_verify(level: int):
        final = level == params.k

        def verify(ctx, w: int, base: tuple) -> None:
            adjacency = ctx.kv_get(("adj", w))
            if adjacency is None or any(b not in adjacency for b in base):
                return
            clique = base + (w,)
            if final:
                ctx.emit(clique, 1)
            else:
                ctx.emit_many([(x, clique) for x in sorted(adjacency) if x > w])

        return verify

    graph.connect(loader, builder)
    graph.connect(loader, generator)
    # Control edge: the generator must not run before every node's graph
    # is resident in memory (Alg. 3 step 3). The builder emits no data.
    graph.connect(builder, generator)
    previous = generator
    for level in range(2, params.k + 1):
        verify = graph.add(
            Map(
                f"{level}CliquesVerify",
                fn=make_verify(level),
                compute_factor=COMPUTE_FACTOR,
            )
        )
        graph.connect(previous, verify)
        previous = verify
    return graph


def run_hamr(env: AppEnv, params: KCliquesParams, edges=None) -> AppResult:
    if edges is None:
        edges = generate_input(params)
    env.ingest_local(INPUT, edges)
    result = env.hamr.run(build_hamr_graph(env, params))
    cliques = sorted(clique for clique, _one in result.output(f"{params.k}CliquesVerify"))
    return AppResult(
        APP, "hamr", result.makespan, cliques,
        counters=result.counters, metrics=result.metrics,
    )


# -- Hadoop ------------------------------------------------------------------------------


def build_hadoop_jobs(params: KCliquesParams) -> list[MRJob]:
    def symmetrize(ctx, u: int, v: int) -> None:
        ctx.emit(u, v)
        ctx.emit(v, u)

    def build_and_seed(ctx, vertex: int, neighbors: list) -> None:
        adjacency = tuple(sorted(set(neighbors)))
        ctx.emit(vertex, ("A", adjacency))
        ctx.emit_many([(w, ("C", (vertex,))) for w in adjacency if w > vertex])

    jobs = [
        MRJob(
            f"{APP}-build",
            INPUT,
            f"{APP}-cands-2",
            mapper=Mapper(fn=symmetrize),
            reducer=Reducer(fn=build_and_seed, compute_factor=COMPUTE_FACTOR),
            num_reducers=params.hadoop_reducers or None,
        )
    ]

    def make_level_reducer(level: int):
        # Verifies candidate cliques ``base + (w,)`` of size ``level`` and,
        # unless this is the final level, extends them by one vertex.
        final = level == params.k

        def verify_level(ctx, w: int, values: list) -> None:
            adjacency: tuple = ()
            candidates = []
            for tag, payload in values:
                if tag == "A":
                    adjacency = payload
                else:
                    candidates.append(payload)
            adjacency_set = set(adjacency)
            if not final:
                ctx.emit(w, ("A", adjacency))  # graph reshuffles every level
            for base in candidates:
                if any(b not in adjacency_set for b in base):
                    continue
                clique = base + (w,)
                if final:
                    ctx.emit(clique, ("K", 1))
                else:
                    ctx.emit_many([(x, ("C", clique)) for x in adjacency if x > w])

        return verify_level

    for level in range(2, params.k + 1):
        jobs.append(
            MRJob(
                f"{APP}-verify-{level}",
                f"{APP}-cands-{level}",
                f"{APP}-out" if level == params.k else f"{APP}-cands-{level + 1}",
                mapper=Mapper(fn=lambda ctx, k, v: ctx.emit(k, v)),
                reducer=Reducer(fn=make_level_reducer(level), compute_factor=COMPUTE_FACTOR),
                num_reducers=params.hadoop_reducers or None,
            )
        )
    return jobs


def run_hadoop(env: AppEnv, params: KCliquesParams, edges=None) -> AppResult:
    if edges is None:
        edges = generate_input(params)
    env.ingest_dfs(INPUT, edges)
    results = run_chain(env.hadoop, build_hadoop_jobs(params))
    # The build job already emits verified 2-cliques; for k >= 3 the final
    # level's ("K", 1) records are the answer.
    cliques = sorted(
        key for key, value in results[-1].outputs if value[0] == "K"
    )
    metrics: dict[str, float] = {}
    for r in results:
        for k, v in r.metrics.items():
            metrics[k] = metrics.get(k, 0.0) + v
    return AppResult(APP, "hadoop", chain_makespan(results), cliques, metrics=metrics)


# -- reference ---------------------------------------------------------------------------------


def reference(edges: list[tuple[int, int]], k: int) -> list[tuple]:
    """All k-cliques (ascending vertex tuples) by direct enumeration."""
    adjacency: dict[int, set[int]] = {}
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)

    cliques: list[tuple] = []

    def extend(clique: tuple, candidates: set[int]) -> None:
        if len(clique) == k:
            cliques.append(clique)
            return
        for w in sorted(candidates):
            if w > clique[-1]:
                extend(clique + (w,), candidates & adjacency[w])

    for vertex in sorted(adjacency):
        extend((vertex,), adjacency[vertex])
    return sorted(cliques)
