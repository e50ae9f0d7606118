"""Ablation studies for the design choices the paper argues for.

Each function isolates one HAMR feature, runs the relevant workload with
the feature on and off, and returns an :class:`AblationResult` whose
``factor`` says how much the feature buys (> 1 means the feature helps).

| id | feature under test                   | paper section |
|----|--------------------------------------|---------------|
| A1 | in-memory data movement              | §3.1          |
| A2 | asynchronous (barrier-free) phases   | §3.2          |
| A3 | partial reduce vs full reduce        | §2 / §4       |
| A4 | fine-grain bin size                  | §2            |
| A5 | key-space skew sensitivity           | §5.2          |
| A6 | locality-aware refs (K-Means)        | §3.3          |
| A7 | combiner on the shuffle edge         | Table 3       |
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

from repro.apps import kmeans, wordcount
from repro.apps.base import AppEnv
from repro.cluster.spec import ClusterSpec
from repro.core.engine import HamrConfig


@dataclass(frozen=True)
class AblationResult:
    ablation: str
    description: str
    with_feature: float  # makespan, feature on (the HAMR default)
    without_feature: float  # makespan, feature off

    @property
    def factor(self) -> float:
        """How many times slower the system is without the feature."""
        return self.without_feature / self.with_feature


def _env(spec: ClusterSpec, **config_kw) -> AppEnv:
    return AppEnv(spec, hamr_config=HamrConfig(**config_kw) if config_kw else None)


def ablation_memory(workload) -> AblationResult:
    """A1: in-memory flow vs staging every shuffled bin through disk."""
    on = workload.run_hamr(_env(workload.spec()), workload.params, workload.records)
    off = workload.run_hamr(
        _env(workload.spec(), stage_edges_on_disk=True), workload.params, workload.records
    )
    return AblationResult(
        "A1", "in-memory data movement (§3.1)", on.makespan, off.makespan
    )


def ablation_async(workload) -> AblationResult:
    """A2: asynchronous fine-grain phases vs a barrier before every phase."""
    on = workload.run_hamr(_env(workload.spec()), workload.params, workload.records)
    off = workload.run_hamr(
        _env(workload.spec(), barrier_mode=True), workload.params, workload.records
    )
    return AblationResult(
        "A2", "asynchronous multi-phase execution (§3.2)", on.makespan, off.makespan
    )


def ablation_partial_reduce(workload) -> AblationResult:
    """A3: WordCount with PartialReduce vs a full barrier Reduce."""
    env_on = _env(workload.spec())
    env_on.ingest_local(wordcount.INPUT, workload.records)
    on = env_on.hamr.run(
        wordcount.build_hamr_graph(env_on, workload.params, use_partial_reduce=True)
    )
    env_off = _env(workload.spec())
    env_off.ingest_local(wordcount.INPUT, workload.records)
    off = env_off.hamr.run(
        wordcount.build_hamr_graph(env_off, workload.params, use_partial_reduce=False)
    )
    return AblationResult(
        "A3", "partial reduce vs full reduce (§2)", on.makespan, off.makespan
    )


def ablation_bin_size(workload, coarse_bin: int = 1 << 20) -> AblationResult:
    """A4: fine-grain bins vs coarse bins (1 MB real) on the same workload."""
    fine = workload.run_hamr(_env(workload.spec()), workload.params, workload.records)
    spec = workload.spec()
    coarse_spec = spec.with_cost(dc_replace(spec.cost, bin_size=coarse_bin))
    coarse = workload.run_hamr(_env(coarse_spec), workload.params, workload.records)
    return AblationResult(
        "A4", "fine-grain bins (§2)", fine.makespan, coarse.makespan
    )


def ablation_skew(fidelity: str = "small", seed: int = 0) -> list[tuple[str, float]]:
    """A5: HistogramRatings makespan under even vs skewed rating popularity.

    Returns ``[(label, hamr_makespan)]`` for increasing skew — the paper's
    §5.2 story predicts a monotone degradation.
    """
    from repro.evaluation.workloads import build_workload, workload_by_name

    distributions = [
        ("uniform", (0.2, 0.2, 0.2, 0.2, 0.2)),
        ("default", (0.08, 0.12, 0.25, 0.35, 0.20)),
        ("extreme", (0.02, 0.03, 0.07, 0.18, 0.70)),
    ]
    base = workload_by_name("histogram_ratings", fidelity, seed=seed)
    out = []
    for label, weights in distributions:
        workload = build_workload(base.name, dc_replace(base.params, rating_weights=weights))
        result = workload.run_hamr(_env(workload.spec()), workload.params, workload.records)
        out.append((label, result.makespan))
    return out


def ablation_locality(workload) -> AblationResult:
    """A6: K-Means passing LocationRefs vs shipping bulk movie data."""
    on = kmeans.run_hamr(
        _env(workload.spec()), workload.params, workload.records, use_locality=True
    )
    off = kmeans.run_hamr(
        _env(workload.spec()), workload.params, workload.records, use_locality=False
    )
    return AblationResult(
        "A6", "locality-aware location references (§3.3)", on.makespan, off.makespan
    )


def scaling_study(workload, worker_counts=(4, 8, 15)) -> list[tuple[int, float, float]]:
    """Cluster-size scaling: run the workload's HAMR job on clusters of
    increasing width (same per-node spec and scale factor).

    Returns ``[(workers, makespan, speedup_vs_smallest)]``. The paper
    claims scalability qualitatively; this quantifies it for our model.
    """
    from dataclasses import replace as _replace

    results = []
    base = None
    for workers in worker_counts:
        spec = _replace(workload.spec(), num_nodes=workers + 1)
        result = workload.run_hamr(AppEnv(spec), workload.params, workload.records)
        if base is None:
            base = result.makespan
        results.append((workers, result.makespan, base / result.makespan))
    return results


def ablation_combiner(workload) -> AblationResult:
    """A7: the Table 3 combiner on the HAMR shuffle edge.

    Note the inverted reading: ``with_feature`` is the combiner run.
    """
    params_on = dc_replace(workload.params, hamr_combiner=True)
    on = workload.run_hamr(_env(workload.spec()), params_on, workload.records)
    off = workload.run_hamr(_env(workload.spec()), workload.params, workload.records)
    return AblationResult(
        "A7", "combiner on the shuffle edge (Table 3)", on.makespan, off.makespan
    )
