"""K-Means, single iteration (§4, Algorithm 1).

The flowlet implementation is the paper's showcase for locality awareness
(§3.3): ClusterGen writes each movie's bulk data to a *local* cluster
file and passes only ``(similarity, movie_id, LocationRef)`` downstream;
NewCentroidGen picks each cluster's new centroid from similarity info
alone and routes the 24-byte reference back to the node holding the data;
NewCentroidInfoGet reads the movie locally and broadcasts the new
centroid to every node; CentroidUpdate installs it. The Hadoop/PUMA
version shuffles the *entire* movie data set to the reducers — the 10.3x
gap in Table 2 is that difference.

The "new centroid" follows the similarity-info rule of Alg. 1: the member
most similar to its old centroid (deterministic tie-break on movie id),
so both engines and the reference produce identical centroids.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import AppEnv, AppResult, run_on_hadoop, run_on_hamr
from repro.common.partitioner import ModPartitioner
from repro.core import EdgeMode, FlowletGraph, Loader, LocalFSSource, Map, Reduce
from repro.data.movies import cosine_similarity, movie_corpus, parse_movie_line
from repro.mapreduce import Mapper, MRJob, Reducer

APP = "kmeans"
INPUT = f"{APP}-input"

#: cosine similarity over sparse vectors is much heavier than tokenizing
COMPUTE_FACTOR = 8.0


@dataclass(frozen=True)
class KMeansParams:
    n_movies: int = 1_000
    k: int = 8
    seed: int = 0
    n_users: int = 1_000


def generate_input(params: KMeansParams) -> list[tuple[int, str]]:
    return movie_corpus(params.n_movies, seed=params.seed, n_users=params.n_users)


def initial_centroids(records: list[tuple[int, str]], k: int) -> list[dict[int, float]]:
    """The first k movies' vectors (the PUMA convention for iteration 0)."""
    return [parse_movie_line(line).vector() for _off, line in records[:k]]


def assign_cluster(vector: dict[int, float], centroids: list[dict[int, float]]):
    """Returns ``(best_cluster, similarity)`` with a deterministic tie-break."""
    best, best_sim = 0, -1.0
    for i, centroid in enumerate(centroids):
        sim = cosine_similarity(vector, centroid)
        if sim > best_sim:
            best, best_sim = i, sim
    return best, best_sim


# -- HAMR ---------------------------------------------------------------------------


def _centroid_update(ctx, cluster: int, payload) -> None:
    """CentroidUpdate (both K-Means graphs): install the broadcast centroid."""
    movie_id, vector = payload
    ctx.kv_put(("centroid", cluster), vector)
    if ctx.worker_index == 0:  # emit the job-level answer exactly once
        ctx.emit(cluster, movie_id)


def build_hamr_graph(env: AppEnv, params: KMeansParams, centroids) -> FlowletGraph:
    graph = FlowletGraph(APP)
    loader = graph.add(Loader("TextLoader", LocalFSSource(env.localfs, INPUT)))

    def cluster_gen(ctx, _offset: int, line: str) -> None:
        record = parse_movie_line(line)
        best, sim = assign_cluster(record.vector(), centroids)
        ctx.counter(f"cluster_size_{best}")
        ref = ctx.write_local(f"{APP}-cluster-{best}", [line])
        ctx.emit(best, (sim, -record.movie_id, ctx.worker_index, ref))

    cluster_map = graph.add(Map("ClusterGen", fn=cluster_gen, compute_factor=COMPUTE_FACTOR))

    def new_centroid_gen(ctx, cluster: int, infos: list) -> None:
        # "Get the new centroids based on similarity info; pass the line
        # offset of the new centroid to the corresponding node" (step 4).
        sim, neg_id, worker_index, ref = max(infos)
        ctx.emit(worker_index, (cluster, ref), to="NewCentroidInfoGet")

    # Picking a max over similarity floats is far cheaper than user-code
    # record processing, hence the small factor.
    centroid_gen = graph.add(
        Reduce(
            "NewCentroidGen",
            fn=new_centroid_gen,
            compute_factor=0.2,
            aggregated_output=True,  # k references, one per cluster
        )
    )

    def centroid_info_get(ctx, _worker: int, payload) -> None:
        cluster, ref = payload
        (line,) = ctx.read_local(ref)
        record = parse_movie_line(line)
        ctx.emit(cluster, (record.movie_id, record.vector()))

    info_get = graph.add(Map("NewCentroidInfoGet", fn=centroid_info_get))
    update = graph.add(Map("CentroidUpdate", fn=_centroid_update, aggregated_output=True))

    graph.connect(loader, cluster_map, mode=EdgeMode.LOCAL)
    graph.connect(cluster_map, centroid_gen)
    graph.connect(
        centroid_gen,
        info_get,
        partitioner=ModPartitioner(env.cluster.num_workers),
    )
    graph.connect(info_get, update, mode=EdgeMode.BROADCAST)
    return graph


def build_hamr_graph_bulk(env: AppEnv, params: KMeansParams, centroids) -> FlowletGraph:
    """Ablation A6: locality awareness OFF — ship the full movie line
    through the shuffle instead of a 24-byte :class:`LocationRef`."""
    graph = FlowletGraph(f"{APP}-bulk")
    loader = graph.add(Loader("TextLoader", LocalFSSource(env.localfs, INPUT)))

    def cluster_gen_bulk(ctx, _offset: int, line: str) -> None:
        record = parse_movie_line(line)
        best, sim = assign_cluster(record.vector(), centroids)
        ctx.emit(best, (sim, -record.movie_id, line))  # bulk data rides the shuffle

    cluster_map = graph.add(
        Map("ClusterGen", fn=cluster_gen_bulk, compute_factor=COMPUTE_FACTOR)
    )

    def new_centroid_bulk(ctx, cluster: int, infos: list) -> None:
        _sim, _neg_id, line = max(infos)
        record = parse_movie_line(line)
        ctx.emit(cluster, (record.movie_id, record.vector()))

    centroid_gen = graph.add(
        Reduce(
            "NewCentroidGen",
            fn=new_centroid_bulk,
            compute_factor=0.2,
            aggregated_output=True,
        )
    )

    update = graph.add(Map("CentroidUpdate", fn=_centroid_update, aggregated_output=True))
    graph.connect(loader, cluster_map, mode=EdgeMode.LOCAL)
    graph.connect(cluster_map, centroid_gen)
    graph.connect(centroid_gen, update, mode=EdgeMode.BROADCAST)
    return graph


def run_hamr(
    env: AppEnv, params: KMeansParams, records, use_locality: bool = True
) -> AppResult:
    builder = build_hamr_graph if use_locality else build_hamr_graph_bulk
    graph = builder(env, params, initial_centroids(records, params.k))
    return run_on_hamr(
        env, APP, INPUT, records, [graph],
        lambda result: dict(result.output("CentroidUpdate")),
    )


# -- Hadoop (PUMA single job; full movie data through the shuffle) ----------------------


def build_hadoop_job(params: KMeansParams, centroids) -> MRJob:
    def kmeans_map(ctx, _offset: int, line: str) -> None:
        record = parse_movie_line(line)
        best, _sim = assign_cluster(record.vector(), centroids)
        ctx.counter(f"cluster_size_{best}")
        ctx.emit(best, line)  # the whole movie rides the shuffle

    def kmeans_reduce(ctx, cluster: int, lines: list) -> None:
        best_key = None
        best_id = None
        for line in lines:
            record = parse_movie_line(line)
            sim = cosine_similarity(record.vector(), centroids[cluster])
            key = (sim, -record.movie_id)
            if best_key is None or key > best_key:
                best_key, best_id = key, record.movie_id
        ctx.emit(cluster, best_id)

    return MRJob(
        APP,
        INPUT,
        f"{APP}-out",
        mapper=Mapper(fn=kmeans_map, compute_factor=COMPUTE_FACTOR),
        # PUMA's reduce derives the new centroid with one pass of cheap
        # vector arithmetic over the members, not a k-way similarity scan.
        reducer=Reducer(fn=kmeans_reduce, compute_factor=2.0),
        aggregated_output=True,  # k centroids
    )


def run_hadoop(env: AppEnv, params: KMeansParams, records) -> AppResult:
    job = build_hadoop_job(params, initial_centroids(records, params.k))
    return run_on_hadoop(env, APP, INPUT, records, [job])


# -- reference --------------------------------------------------------------------------


def reference(records: list[tuple[int, str]], k: int) -> dict[int, int]:
    """New centroid movie id per cluster after one iteration."""
    centroids = initial_centroids(records, k)
    best_by_cluster: dict[int, tuple] = {}
    for _off, line in records:
        record = parse_movie_line(line)
        cluster, sim = assign_cluster(record.vector(), centroids)
        key = (sim, -record.movie_id)
        if cluster not in best_by_cluster or key > best_by_cluster[cluster]:
            best_by_cluster[cluster] = key
    return {cluster: -key[1] for cluster, key in best_by_cluster.items()}


def reference_sizes(records: list[tuple[int, str]], k: int) -> dict[int, int]:
    centroids = initial_centroids(records, k)
    sizes: dict[int, int] = {}
    for _off, line in records:
        cluster, _ = assign_cluster(parse_movie_line(line).vector(), centroids)
        sizes[cluster] = sizes.get(cluster, 0) + 1
    return sizes
