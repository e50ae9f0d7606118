"""HistogramMovies and HistogramRatings (§4).

HistogramMovies bins movies by average rating (0.5-wide bins, 1..5);
HistogramRatings counts each of the five rating values. Both are simple
scan + aggregate workloads where "Hadoop is very good" — and
HistogramRatings is the paper's pathological case for HAMR: five keys
shuffle to five nodes, all threads there hammer one accumulator each
(atomic contention), the hot inboxes fill, and flow control throttles the
loaders (§5.2). Table 3 adds a combiner on the HAMR shuffle edge, which
"helps flow control" and lifts HistogramRatings from 0.26x to 0.31x.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import AppEnv, AppResult, CountPairs
from repro.core import (
    EdgeMode,
    FlowletGraph,
    Loader,
    LocalFSSource,
    Map,
    PartialReduce,
    sum_combiner,
)
from repro.data.movies import DEFAULT_RATING_WEIGHTS, movie_corpus, parse_movie_line
from repro.mapreduce import Mapper, MRJob, Reducer

#: movie-line parsing (split dozens of user_rating pairs) is an order of
#: magnitude heavier than plain tokenizing
PARSE_FACTOR = 24.0

MOVIES_APP = "histogram_movies"
RATINGS_APP = "histogram_ratings"


@dataclass(frozen=True)
class HistogramParams:
    n_movies: int = 2_000
    seed: int = 0
    n_users: int = 1_000
    #: Table 3: combiner on the HAMR map->count edge
    hamr_combiner: bool = False
    #: rating popularity (A5 skew ablation sweeps this)
    rating_weights: tuple = DEFAULT_RATING_WEIGHTS


def generate_input(params: HistogramParams) -> list[tuple[int, str]]:
    return movie_corpus(
        params.n_movies,
        seed=params.seed,
        n_users=params.n_users,
        rating_weights=params.rating_weights,
    )


def movie_bin(avg: float) -> float:
    """PUMA-style 0.5-wide bin for an average rating."""
    return round(avg * 2.0) / 2.0


def map_movies(ctx, _offset: int, line: str) -> None:
    record = parse_movie_line(line)
    ctx.emit(movie_bin(record.average_rating), 1)


def make_map_ratings():
    """The map function of one HistogramRatings job: emit ``(rating, 1)``
    per rating, one shared pair per rating value for the job."""
    pairs = CountPairs()

    def map_ratings(ctx, _offset: int, line: str) -> None:
        ctx.emit_many([pairs[rating] for rating in parse_movie_line(line).ratings])

    return map_ratings


def _input_name(app: str) -> str:
    return f"{app}-input"


# -- engines (shared shape for both histogram apps) ------------------------------------


def _build_hamr(env: AppEnv, app: str, map_fn, use_combiner: bool) -> FlowletGraph:
    graph = FlowletGraph(app)
    loader = graph.add(Loader("TextLoader", LocalFSSource(env.localfs, _input_name(app))))
    mapper = graph.add(Map("BinMap", fn=map_fn, compute_factor=PARSE_FACTOR))
    count = graph.add(
        PartialReduce(
            "Count",
            initial=lambda _k: 0,
            combine=lambda acc, v: acc + v,
            aggregated_output=True,  # bin-space-bounded counts
        )
    )
    graph.connect(loader, mapper, mode=EdgeMode.LOCAL)
    graph.connect(mapper, count, combiner=sum_combiner() if use_combiner else None)
    return graph


def _build_hadoop(app: str, map_fn) -> MRJob:
    return MRJob(
        app,
        _input_name(app),
        f"{app}-out",
        mapper=Mapper(fn=map_fn, compute_factor=PARSE_FACTOR),
        reducer=Reducer(fn=lambda ctx, key, counts: ctx.emit(key, sum(counts))),
        combiner=sum_combiner(),  # the PUMA versions ship with combiners
        aggregated_output=True,  # bin-space-bounded counts
    )


def _run(env: AppEnv, app: str, engine: str, map_fn, params: HistogramParams, records):
    if records is None:
        records = generate_input(params)
    if engine == "hamr":
        env.ingest_local(_input_name(app), records)
        result = env.hamr.run(_build_hamr(env, app, map_fn, params.hamr_combiner))
        output = dict(result.output("Count"))
        return AppResult(app, engine, result.makespan, output,
                         counters=result.counters, metrics=result.metrics)
    env.ingest_dfs(_input_name(app), records)
    result = env.hadoop.run(_build_hadoop(app, map_fn))
    return AppResult(app, engine, result.makespan, dict(result.outputs),
                     counters=result.counters, metrics=result.metrics)


def run_movies_hamr(env: AppEnv, params: HistogramParams, records=None) -> AppResult:
    return _run(env, MOVIES_APP, "hamr", map_movies, params, records)


def run_movies_hadoop(env: AppEnv, params: HistogramParams, records=None) -> AppResult:
    return _run(env, MOVIES_APP, "hadoop", map_movies, params, records)


def run_ratings_hamr(env: AppEnv, params: HistogramParams, records=None) -> AppResult:
    return _run(env, RATINGS_APP, "hamr", make_map_ratings(), params, records)


def run_ratings_hadoop(env: AppEnv, params: HistogramParams, records=None) -> AppResult:
    return _run(env, RATINGS_APP, "hadoop", make_map_ratings(), params, records)


# -- references ---------------------------------------------------------------------------


def reference_movies(records: list[tuple[int, str]]) -> dict[float, int]:
    counts: dict[float, int] = {}
    for _off, line in records:
        key = movie_bin(parse_movie_line(line).average_rating)
        counts[key] = counts.get(key, 0) + 1
    return counts


def reference_ratings(records: list[tuple[int, str]]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for _off, line in records:
        for rating in parse_movie_line(line).ratings:
            counts[rating] = counts.get(rating, 0) + 1
    return counts
