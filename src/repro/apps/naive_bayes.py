"""NaiveBayes Training (§4, Algorithm 4).

Flowlet pipeline (one job, three working flowlets replacing two Hadoop
jobs): TextLoader → IndexInstancesMapper → VectorSumReducer (partial
reduce per label) → WeightSumReducer (partial reduce per feature).

Outputs: per-feature summed weights plus per-label total weights (keyed
``("label", name)``) — the sufficient statistics a Naive Bayes trainer
needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.apps.base import AppEnv, AppResult
from repro.core import (
    EdgeMode,
    FlowletGraph,
    Loader,
    LocalFSSource,
    Map,
    PartialReduce,
    SumMap,
)
from repro.data.documents import document_corpus, parse_document_line
from repro.mapreduce import Mapper, MRJob, Reducer, run_chain
from repro.mapreduce.chain import chain_makespan

APP = "naive_bayes"
INPUT = f"{APP}-input"


@dataclass(frozen=True)
class NaiveBayesParams:
    n_documents: int = 500
    seed: int = 0
    n_labels: int = 4
    vocabulary_size: int = 5_000
    words_per_document: int = 50


def generate_input(params: NaiveBayesParams) -> list[tuple[int, str]]:
    return document_corpus(
        params.n_documents,
        seed=params.seed,
        n_labels=params.n_labels,
        vocabulary_size=params.vocabulary_size,
        words_per_document=params.words_per_document,
    )


def index_instances(ctx, _offset: int, line: str) -> None:
    """Parse a document into a ``(label, sparse-count-vector)`` pair."""
    label, words = parse_document_line(line)
    vector: dict[str, int] = {}
    for word in words:
        vector[word] = vector.get(word, 0) + 1
    ctx.emit(label, vector)


# -- HAMR -----------------------------------------------------------------------------


def build_hamr_graph(env: AppEnv, params: NaiveBayesParams) -> FlowletGraph:
    graph = FlowletGraph(APP)
    loader = graph.add(Loader("TextLoader", LocalFSSource(env.localfs, INPUT)))
    # Splitting and hash-counting ~50 words per document.
    indexer = graph.add(Map("IndexInstancesMapper", fn=index_instances, compute_factor=5.0))

    def finalize_vector_sum(ctx, label: str, acc: SumMap) -> None:
        # "sum up all feature weights in the sum vector and output the sum
        # weight per label; produce (feature, weight) pairs" (Alg. 4 step 4)
        ctx.emit(("label", label), sum(acc.values()))
        ctx.emit_many(acc.items())

    vector_sum = graph.add(
        PartialReduce(
            "VectorSumReducer",
            # the accumulator carries its logical size, so the runtime's
            # re-size after each fold does not walk ~2 400 features
            initial=lambda _label: SumMap(),
            combine=SumMap.add,
            finalize=finalize_vector_sum,
            # Folding a ~50-word document vector into the per-label
            # accumulator touches ~50 distinct cells and costs well over a
            # scalar increment.
            compute_factor=25.0,
            update_weight=50.0,
            aggregated_output=True,  # vocabulary-bounded feature weights
        )
    )
    weight_sum = graph.add(
        PartialReduce(
            "WeightSumReducer",
            initial=lambda _k: 0,
            combine=lambda acc, v: acc + v,
            aggregated_output=True,
        )
    )
    graph.connect(loader, indexer, mode=EdgeMode.LOCAL)
    graph.connect(indexer, vector_sum)
    graph.connect(vector_sum, weight_sum)
    return graph


def run_hamr(env: AppEnv, params: NaiveBayesParams, records=None) -> AppResult:
    if records is None:
        records = generate_input(params)
    env.ingest_local(INPUT, records)
    result = env.hamr.run(build_hamr_graph(env, params))
    return AppResult(
        APP, "hamr", result.makespan, dict(result.output("WeightSumReducer")),
        counters=result.counters, metrics=result.metrics,
    )


# -- Hadoop (two chained jobs, per the Mahout structure) ----------------------------------


def build_hadoop_jobs(params: NaiveBayesParams) -> list[MRJob]:
    def reduce_vectors(ctx, label: str, vectors: list) -> None:
        acc = SumMap()
        for vector in vectors:
            acc.add(vector)
        ctx.emit(("label", label), sum(acc.values()))
        ctx.emit_many(acc.items())

    job1 = MRJob(
        f"{APP}-vector-sum",
        INPUT,
        f"{APP}-vectors",
        mapper=Mapper(fn=index_instances, compute_factor=5.0),
        reducer=Reducer(fn=reduce_vectors, compute_factor=25.0),
        aggregated_output=True,  # vocabulary-bounded feature weights
    )
    job2 = MRJob(
        f"{APP}-weight-sum",
        f"{APP}-vectors",
        f"{APP}-out",
        mapper=Mapper(fn=lambda ctx, k, v: ctx.emit(k, v)),
        reducer=Reducer(fn=lambda ctx, k, weights: ctx.emit(k, sum(weights))),
        aggregated_input=True,
        aggregated_output=True,
    )
    return [job1, job2]


def run_hadoop(env: AppEnv, params: NaiveBayesParams, records=None) -> AppResult:
    if records is None:
        records = generate_input(params)
    env.ingest_dfs(INPUT, records)
    results = run_chain(env.hadoop, build_hadoop_jobs(params))
    merged_counters: dict[str, float] = {}
    merged_metrics: dict[str, float] = {}
    for r in results:
        for k, v in r.counters.items():
            merged_counters[k] = merged_counters.get(k, 0.0) + v
        for k, v in r.metrics.items():
            merged_metrics[k] = merged_metrics.get(k, 0.0) + v
    return AppResult(
        APP, "hadoop", chain_makespan(results), dict(results[-1].outputs),
        counters=merged_counters, metrics=merged_metrics,
    )


# -- reference -------------------------------------------------------------------------------


def reference(records: list[tuple[int, str]]) -> dict[Any, int]:
    weights: dict[Any, int] = {}
    label_totals: dict[str, int] = {}
    for _off, line in records:
        label, words = parse_document_line(line)
        for word in words:
            weights[word] = weights.get(word, 0) + 1
            label_totals[label] = label_totals.get(label, 0) + 1
    for label, total in label_totals.items():
        weights[("label", label)] = total
    return weights
