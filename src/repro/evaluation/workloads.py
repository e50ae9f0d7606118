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


@dataclass(frozen=True)
class _Row:
    """One Table 2 benchmark: how to build its workload."""

    label: str
    data_size: str
    #: ``(fidelity budget, seed) -> params``: the real size at a fidelity
    params: Callable[[float, int], Any]
    generate: Callable[[Any], list]
    run_hamr: Callable[[AppEnv, Any, list], AppResult]
    run_hadoop: Callable[[AppEnv, Any, list], AppResult]


def _histogram_params(b: float, seed: int) -> histograms.HistogramParams:
    return histograms.HistogramParams(n_movies=int(12_000 * b), seed=seed)


#: The eight benchmarks, in Table 2's row order.
_TABLE2 = {
    "kmeans": _Row(
        "K-Means", "300GB",
        lambda b, seed: kmeans.KMeansParams(n_movies=int(6_000 * b), k=16, seed=seed),
        kmeans.generate_input, kmeans.run_hamr, kmeans.run_hadoop,
    ),
    "classification": _Row(
        "Classification", "300GB",
        lambda b, seed: classification.ClassificationParams(
            n_movies=int(6_000 * b), k=16, seed=seed
        ),
        classification.generate_input, classification.run_hamr, classification.run_hadoop,
    ),
    "pagerank": _Row(
        "PageRank", "20GB",
        lambda b, seed: pagerank.PageRankParams(
            n_pages=int(3_000 * b), n_edges=int(3_000 * b) * 10, iterations=5, seed=seed
        ),
        pagerank.generate_input, pagerank.run_hamr, pagerank.run_hadoop,
    ),
    # The clique workload's cost is combinatorial, not byte-bound: keep the
    # real graph structured like the paper's R-MAT input (dense power-law
    # core) but small enough to enumerate.
    "kcliques": _Row(
        "KCliques", "168MB",
        lambda b, seed: kcliques.KCliquesParams(
            scale=9, n_edges=int(4_000 * max(b, 0.25)), k=4, seed=seed,
            hadoop_reducers=120,
        ),
        kcliques.generate_input, kcliques.run_hamr, kcliques.run_hadoop,
    ),
    "wordcount": _Row(
        "WordCount", "16GB",
        lambda b, seed: wordcount.WordCountParams(target_bytes=int(2 * MB * b), seed=seed),
        wordcount.generate_input, wordcount.run_hamr, wordcount.run_hadoop,
    ),
    "histogram_movies": _Row(
        "HistogramMovies", "30GB", _histogram_params, histograms.generate_input,
        histograms.run_movies_hamr, histograms.run_movies_hadoop,
    ),
    "histogram_ratings": _Row(
        "HistogramRatings", "30GB", _histogram_params, histograms.generate_input,
        histograms.run_ratings_hamr, histograms.run_ratings_hadoop,
    ),
    "naive_bayes": _Row(
        "NaiveBayes", "10GB",
        lambda b, seed: naive_bayes.NaiveBayesParams(n_documents=int(3_000 * b), seed=seed),
        naive_bayes.generate_input, naive_bayes.run_hamr, naive_bayes.run_hadoop,
    ),
}

#: Table 2 row order.
TABLE2_ORDER = list(_TABLE2)


def _row(name: str) -> _Row:
    try:
        return _TABLE2[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; pick from {sorted(_TABLE2)}") from None


def build_workload(name: str, params) -> Workload:
    """Benchmark ``name`` on ``params``: its records generated from them and
    the scale factor derived so they stand for the paper's data size."""
    row = _row(name)
    workload = Workload(
        name, row.label, row.data_size, params, row.generate(params),
        run_hamr=row.run_hamr, run_hadoop=row.run_hadoop,
    )
    real = workload.real_bytes
    if real <= 0:
        raise ValueError(f"{name}: generated an empty input")
    workload.scale = workload.modeled_bytes / real
    return workload


def workload_by_name(name: str, fidelity: str = "small", seed: int = 0) -> Workload:
    row = _row(name)
    if fidelity not in _FIDELITY_BUDGET:
        raise ValueError(f"unknown fidelity {fidelity!r}; pick one of {sorted(_FIDELITY_BUDGET)}")
    return build_workload(name, row.params(_FIDELITY_BUDGET[fidelity], seed))


def table2_workloads(fidelity: str = "small") -> list[Workload]:
    return [workload_by_name(name, fidelity) for name in TABLE2_ORDER]
