"""Paper-scale workload presets.

Each :class:`Workload` bundles: the app's parameter object at a tractable
*real* size, the modeled data size from Table 2, and the derived scale
factor such that ``real logical bytes x scale = modeled bytes``. Runs then
execute real records while charging paper-scale costs (DESIGN.md §7).

``fidelity`` picks the real-size budget:

* ``"tiny"``  — seconds-fast, for the test suite;
* ``"small"`` — the default for ``benchmarks/`` (a couple of MB per app);
* ``"medium"``— closer-grained curves, minutes of wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from repro.apps import classification, histograms, kcliques, kmeans, naive_bayes, pagerank, wordcount
from repro.apps.base import AppEnv, AppResult
from repro.cluster.spec import ClusterSpec, paper_cluster_spec
from repro.common.sizeof import sizeof_many
from repro.common.units import MB, parse_bytes

_FIDELITY_BUDGET = {"tiny": 0.1, "small": 1.0, "medium": 4.0}


@dataclass
class Workload:
    """One benchmark at one modeled data size."""

    name: str  # registry key, e.g. "kmeans"
    label: str  # display name matching the paper's row
    data_size: str  # e.g. "300GB"
    params: Any
    records: list = field(repr=False, default_factory=list)
    scale: float = 1.0
    run_hamr: Callable[[AppEnv, Any, list], AppResult] = None
    run_hadoop: Callable[[AppEnv, Any, list], AppResult] = None
    #: worker-count override for node-scaling runs (None = the paper's
    #: 15 workers + master); set by ``--nodes`` sweeps and the what-if
    #: validation harness
    num_workers: Optional[int] = None

    @property
    def modeled_bytes(self) -> int:
        return parse_bytes(self.data_size)

    @property
    def real_bytes(self) -> int:
        return sizeof_many(self.records)

    def spec(self) -> ClusterSpec:
        """The paper's 16-node cluster with this workload's scale factor
        (cluster size overridden when ``num_workers`` is set)."""
        spec = paper_cluster_spec(scale=self.scale)
        if self.num_workers is not None:
            if self.num_workers < 1:
                raise ValueError(f"num_workers must be >= 1: {self.num_workers}")
            spec = replace(spec, num_nodes=self.num_workers + 1)
        return spec

    def fresh_env(self, obs: bool = False, journal=None, **exchange) -> AppEnv:
        """A fresh environment on this workload's cluster; ``exchange`` is
        :class:`AppEnv`'s ``fabric``/``partitioner``/``rack_size``."""
        return AppEnv(self.spec(), obs=obs, journal=journal, **exchange)


def _finish(workload: Workload) -> Workload:
    real = workload.real_bytes
    if real <= 0:
        raise ValueError(f"{workload.name}: generated an empty input")
    workload.scale = workload.modeled_bytes / real
    return workload


def _budget(fidelity: str) -> float:
    try:
        return _FIDELITY_BUDGET[fidelity]
    except KeyError:
        raise ValueError(
            f"unknown fidelity {fidelity!r}; pick one of {sorted(_FIDELITY_BUDGET)}"
        ) from None


# -- per-benchmark builders -------------------------------------------------------------


def make_kmeans(fidelity: str = "small", seed: int = 0) -> Workload:
    b = _budget(fidelity)
    params = kmeans.KMeansParams(n_movies=int(6_000 * b), k=16, seed=seed)
    records = kmeans.generate_input(params)
    return _finish(
        Workload(
            "kmeans", "K-Means", "300GB", params, records,
            run_hamr=kmeans.run_hamr, run_hadoop=kmeans.run_hadoop,
        )
    )


def make_classification(fidelity: str = "small", seed: int = 0) -> Workload:
    b = _budget(fidelity)
    params = classification.ClassificationParams(n_movies=int(6_000 * b), k=16, seed=seed)
    records = classification.generate_input(params)
    return _finish(
        Workload(
            "classification", "Classification", "300GB", params, records,
            run_hamr=classification.run_hamr, run_hadoop=classification.run_hadoop,
        )
    )


def make_pagerank(fidelity: str = "small", seed: int = 0) -> Workload:
    b = _budget(fidelity)
    n_pages = int(3_000 * b)
    params = pagerank.PageRankParams(
        n_pages=n_pages, n_edges=n_pages * 10, iterations=5, seed=seed
    )
    records = pagerank.generate_input(params)
    return _finish(
        Workload(
            "pagerank", "PageRank", "20GB", params, records,
            run_hamr=pagerank.run_hamr, run_hadoop=pagerank.run_hadoop,
        )
    )


def make_kcliques(fidelity: str = "small", seed: int = 0) -> Workload:
    b = _budget(fidelity)
    # The clique workload's cost is combinatorial, not byte-bound: keep the
    # real graph structured like the paper's R-MAT input (dense power-law
    # core) but small enough to enumerate.
    params = kcliques.KCliquesParams(
        scale=9, n_edges=int(4_000 * max(b, 0.25)), k=4, seed=seed,
        hadoop_reducers=120,
    )
    records = kcliques.generate_input(params)
    return _finish(
        Workload(
            "kcliques", "KCliques", "168MB", params, records,
            run_hamr=kcliques.run_hamr, run_hadoop=kcliques.run_hadoop,
        )
    )


def make_wordcount(fidelity: str = "small", seed: int = 0) -> Workload:
    b = _budget(fidelity)
    params = wordcount.WordCountParams(target_bytes=int(2 * MB * b), seed=seed)
    records = wordcount.generate_input(params)
    return _finish(
        Workload(
            "wordcount", "WordCount", "16GB", params, records,
            run_hamr=wordcount.run_hamr, run_hadoop=wordcount.run_hadoop,
        )
    )


def _make_histogram(app: str, fidelity: str, seed: int, use_combiner: bool = False) -> Workload:
    b = _budget(fidelity)
    params = histograms.HistogramParams(
        n_movies=int(12_000 * b), seed=seed, hamr_combiner=use_combiner
    )
    records = histograms.generate_input(params)
    if app == "histogram_movies":
        run_hamr, run_hadoop = histograms.run_movies_hamr, histograms.run_movies_hadoop
        label = "HistogramMovies"
    else:
        run_hamr, run_hadoop = histograms.run_ratings_hamr, histograms.run_ratings_hadoop
        label = "HistogramRatings"
    return _finish(
        Workload(app, label, "30GB", params, records, run_hamr=run_hamr, run_hadoop=run_hadoop)
    )


def make_histogram_movies(fidelity: str = "small", seed: int = 0, use_combiner: bool = False) -> Workload:
    return _make_histogram("histogram_movies", fidelity, seed, use_combiner)


def make_histogram_ratings(fidelity: str = "small", seed: int = 0, use_combiner: bool = False) -> Workload:
    return _make_histogram("histogram_ratings", fidelity, seed, use_combiner)


def make_naive_bayes(fidelity: str = "small", seed: int = 0) -> Workload:
    b = _budget(fidelity)
    params = naive_bayes.NaiveBayesParams(n_documents=int(3_000 * b), seed=seed)
    records = naive_bayes.generate_input(params)
    return _finish(
        Workload(
            "naive_bayes", "NaiveBayes", "10GB", params, records,
            run_hamr=naive_bayes.run_hamr, run_hadoop=naive_bayes.run_hadoop,
        )
    )


_BUILDERS = {
    "kmeans": make_kmeans,
    "classification": make_classification,
    "pagerank": make_pagerank,
    "kcliques": make_kcliques,
    "wordcount": make_wordcount,
    "histogram_movies": make_histogram_movies,
    "histogram_ratings": make_histogram_ratings,
    "naive_bayes": make_naive_bayes,
}

#: Table 2 row order.
TABLE2_ORDER = [
    "kmeans",
    "classification",
    "pagerank",
    "kcliques",
    "wordcount",
    "histogram_movies",
    "histogram_ratings",
    "naive_bayes",
]


def workload_by_name(name: str, fidelity: str = "small", **kw) -> Workload:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; pick from {sorted(_BUILDERS)}") from None
    return builder(fidelity, **kw)


def table2_workloads(fidelity: str = "small") -> list[Workload]:
    return [workload_by_name(name, fidelity) for name in TABLE2_ORDER]
