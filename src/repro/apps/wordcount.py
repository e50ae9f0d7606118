"""WordCount (§4).

"Counts the total occurrences of each unique word in input files. ...
instead of using reduce as Hadoop, HAMR can apply partial reduce to
increase the count as soon as the occurrence of the word." The Hadoop
version ships with a combiner (which is why "the performance gap between
HAMR and Hadoop diminishes"); the HAMR Table 2 configuration runs without
one (Table 3 evaluates combiners on the histogram apps instead).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import AppEnv, AppResult, CountPairs, run_on_hadoop, run_on_hamr
from repro.core import (
    EdgeMode,
    FlowletGraph,
    Loader,
    LocalFSSource,
    Map,
    PartialReduce,
    Reduce,
    sum_combiner,
)
from repro.data.text import book_corpus
from repro.mapreduce import Mapper, MRJob, Reducer

APP = "wordcount"

#: splitting a line into ~10 words costs several base record ops
TOKENIZE_FACTOR = 3.0
INPUT = "wordcount-input"


@dataclass(frozen=True)
class WordCountParams:
    target_bytes: int = 100_000
    seed: int = 0
    vocabulary_size: int = 10_000
    #: per-edge combiner on the HAMR tokenize->count edge (Table 3 style)
    hamr_combiner: bool = False


def generate_input(params: WordCountParams) -> list[tuple[int, str]]:
    return book_corpus(
        params.target_bytes, seed=params.seed, vocabulary_size=params.vocabulary_size
    )


def make_tokenizer():
    """The map function of one job: split a line and emit ``(word, 1)``
    per word, one shared pair per distinct word for as long as the job
    holds the function."""
    pairs = CountPairs()

    def tokenize(ctx, _offset: int, line: str) -> None:
        ctx.emit_many([pairs[word] for word in line.split()])

    return tokenize


# -- HAMR ---------------------------------------------------------------------------


def build_hamr_graph(
    env: AppEnv, params: WordCountParams, use_partial_reduce: bool = True
) -> FlowletGraph:
    """The flowlet WordCount; ``use_partial_reduce=False`` swaps the
    incremental counter for a full barrier Reduce (ablation A3)."""
    graph = FlowletGraph(APP)
    loader = graph.add(Loader("TextLoader", LocalFSSource(env.localfs, INPUT)))
    tok = graph.add(Map("Tokenize", fn=make_tokenizer(), compute_factor=TOKENIZE_FACTOR))
    if use_partial_reduce:
        count = graph.add(
            PartialReduce(
                "Count",
                initial=lambda _k: 0,
                combine=lambda acc, v: acc + v,
                aggregated_output=True,  # vocabulary-bounded counts
            )
        )
    else:
        count = graph.add(
            Reduce(
                "Count",
                fn=lambda ctx, word, counts: ctx.emit(word, sum(counts)),
                aggregated_output=True,
            )
        )
    graph.connect(loader, tok, mode=EdgeMode.LOCAL)
    graph.connect(
        tok, count, combiner=sum_combiner() if params.hamr_combiner else None
    )
    return graph


def run_hamr(env: AppEnv, params: WordCountParams, records) -> AppResult:
    return run_on_hamr(
        env, APP, INPUT, records, [build_hamr_graph(env, params)],
        lambda result: dict(result.output("Count")),
    )


# -- Hadoop -------------------------------------------------------------------------


def build_hadoop_job(params: WordCountParams) -> MRJob:
    return MRJob(
        APP,
        INPUT,
        f"{APP}-out",
        mapper=Mapper(fn=make_tokenizer(), compute_factor=TOKENIZE_FACTOR),
        reducer=Reducer(fn=lambda ctx, word, counts: ctx.emit(word, sum(counts))),
        combiner=sum_combiner(),
        aggregated_output=True,  # vocabulary-bounded counts
    )


def run_hadoop(env: AppEnv, params: WordCountParams, records) -> AppResult:
    return run_on_hadoop(env, APP, INPUT, records, [build_hadoop_job(params)])


# -- reference ------------------------------------------------------------------------


def reference(records: list[tuple[int, str]]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for _offset, line in records:
        for word in line.split():
            counts[word] = counts.get(word, 0) + 1
    return counts
