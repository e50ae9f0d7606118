"""Classification (§4).

"Classifies the movies into one of k predetermined clusters. As K-Means,
it computes the cosine vector similarity of a given movie with the
centroids, and assigns the movie to the cluster whose centroid it is
closest to" — but centroids are fixed, so there is no centroid
regeneration. The flowlet version "reads/writes the data directly from/to
local disk" (§3.3): assignments land on node-local disks and only tiny
per-cluster counts shuffle. The Hadoop version ships each movie through
the shuffle and writes per-movie assignments to the DFS.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.apps.base import AppEnv, AppResult, run_on_hadoop, run_on_hamr
from repro.core import (
    EdgeMode,
    FlowletGraph,
    Loader,
    LocalFSSource,
    Map,
    PartialReduce,
)
from repro.data.movies import movie_corpus, parse_movie_line
from repro.apps.kmeans import COMPUTE_FACTOR, assign_cluster, initial_centroids
from repro.mapreduce import Mapper, MRJob, Reducer

APP = "classification"
INPUT = f"{APP}-input"


@dataclass(frozen=True)
class ClassificationParams:
    n_movies: int = 1_000
    k: int = 8
    seed: int = 0
    n_users: int = 1_000


def generate_input(params: ClassificationParams) -> list[tuple[int, str]]:
    return movie_corpus(params.n_movies, seed=params.seed, n_users=params.n_users)


# -- HAMR ---------------------------------------------------------------------------


def build_hamr_graph(env: AppEnv, params: ClassificationParams, centroids) -> FlowletGraph:
    graph = FlowletGraph(APP)
    loader = graph.add(Loader("TextLoader", LocalFSSource(env.localfs, INPUT)))

    def classify(ctx, _offset: int, line: str) -> None:
        record = parse_movie_line(line)
        best, _sim = assign_cluster(record.vector(), centroids)
        ctx.write_local(f"{APP}-cluster-{best}", [(record.movie_id, best)])
        ctx.emit(best, 1)

    mapper = graph.add(Map("Classify", fn=classify, compute_factor=COMPUTE_FACTOR))
    count = graph.add(
        PartialReduce(
            "ClusterSizes",
            initial=lambda _k: 0,
            combine=lambda a, v: a + v,
            aggregated_output=True,  # k cluster sizes
        )
    )
    graph.connect(loader, mapper, mode=EdgeMode.LOCAL)
    graph.connect(mapper, count)
    return graph


def run_hamr(env: AppEnv, params: ClassificationParams, records) -> AppResult:
    graph = build_hamr_graph(env, params, initial_centroids(records, params.k))
    return run_on_hamr(
        env, APP, INPUT, records, [graph],
        lambda result: dict(result.output("ClusterSizes")),
    )


# -- Hadoop ---------------------------------------------------------------------------


def build_hadoop_job(params: ClassificationParams, centroids) -> MRJob:
    def classify_map(ctx, _offset: int, line: str) -> None:
        record = parse_movie_line(line)
        best, _sim = assign_cluster(record.vector(), centroids)
        ctx.emit(best, line)  # full movie data through the shuffle (PUMA)

    def classify_reduce(ctx, cluster: int, lines: list) -> None:
        ctx.emit_many([(parse_movie_line(line).movie_id, cluster) for line in lines])

    return MRJob(
        APP,
        INPUT,
        f"{APP}-out",
        mapper=Mapper(fn=classify_map, compute_factor=COMPUTE_FACTOR),
        reducer=Reducer(fn=classify_reduce),
    )


def run_hadoop(env: AppEnv, params: ClassificationParams, records) -> AppResult:
    job = build_hadoop_job(params, initial_centroids(records, params.k))
    return run_on_hadoop(  # cluster sizes from the per-movie assignments
        env, APP, INPUT, records, [job],
        lambda result: dict(Counter(cluster for _movie, cluster in result.outputs)),
    )


# -- reference ------------------------------------------------------------------------


def reference(records: list[tuple[int, str]], k: int) -> dict[int, int]:
    """Cluster sizes under the fixed centroids."""
    centroids = initial_centroids(records, k)
    sizes: dict[int, int] = {}
    for _off, line in records:
        cluster, _ = assign_cluster(parse_movie_line(line).vector(), centroids)
        sizes[cluster] = sizes.get(cluster, 0) + 1
    return sizes
