"""Shared benchmark plumbing: environments, result records, the two app drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.spec import ClusterSpec, small_cluster_spec
from repro.common.errors import JobError
from repro.core.engine import HamrConfig, HamrEngine
from repro.mapreduce.chain import run_chain
from repro.mapreduce.engine import HadoopConfig, HadoopEngine
from repro.obs.runspec import RunSpec
from repro.storage.dfs import DFS
from repro.storage.kvstore import KVStore
from repro.storage.localfs import LocalFS


class CountPairs(dict):
    """``key -> (key, 1)``, each pair made on first use and shared after.

    A count-by-key mapper builds one per job and emits ``pairs[key]``, so a
    job holds one tuple (and one key object) per distinct key instead of
    one per occurrence, as Hadoop's WordCount mapper reuses one ``Text``
    and one ``IntWritable``. The engines store an emitted tuple as it is,
    so the sharing reaches the bins (DESIGN.md §6.1.3).
    """

    def __missing__(self, key: Any) -> tuple[Any, int]:
        pair = self[key] = (key, 1)
        return pair


@dataclass
class AppResult:
    """Uniform benchmark outcome across engines."""

    app: str
    engine: str  # "hamr" | "hadoop"
    makespan: float
    output: Any
    counters: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)


class AppEnv:
    """One benchmark execution environment: a fresh cluster + both engines.

    Use a fresh env per (benchmark, engine) measurement so virtual clocks
    and storage states never bleed between runs. ``fabric`` and
    ``partitioner`` are set on both engine configs; ``rack_size`` unset
    is ``ClusterSpec.rack_size_for(fabric)``.
    """

    def __init__(
        self,
        spec: Optional[ClusterSpec] = None,
        hamr_config: Optional[HamrConfig] = None,
        hadoop_config: Optional[HadoopConfig] = None,
        obs: bool = False,
        journal=None,
        fabric: str = RunSpec.fabric,
        partitioner: str = RunSpec.partitioner,
        rack_size: Optional[int] = None,
    ):
        self.spec = spec if spec is not None else small_cluster_spec()
        if rack_size is None:
            rack_size = self.spec.rack_size_for(fabric)
        if rack_size != self.spec.rack_size:
            self.spec = self.spec.with_racks(rack_size)
        hamr_config = hamr_config or HamrConfig()
        hadoop_config = hadoop_config or HadoopConfig()
        hamr_config.fabric = hadoop_config.fabric = fabric
        hamr_config.partitioner = hadoop_config.partitioner = partitioner
        self.cluster = Cluster(self.spec, obs=obs, journal=journal)
        self.dfs = DFS(self.cluster)
        self.localfs = LocalFS(self.cluster)
        self.kvstore = KVStore(self.cluster)
        self.hamr = HamrEngine(
            self.cluster,
            localfs=self.localfs,
            kvstore=self.kvstore,
            config=hamr_config,
        )
        self.hadoop = HadoopEngine(self.cluster, self.dfs, config=hadoop_config)

    @property
    def obs(self):
        """The cluster's observability tracer (no-op unless ``obs=True``)."""
        return self.cluster.obs

    # -- ingest helpers -------------------------------------------------------------

    def ingest_local(self, file_name: str, records: list) -> None:
        """Distribute records round-robin over worker-local disks (§5.1:
        HAMR's "input and output data is distributed between the local
        disks of each node")."""
        workers = self.cluster.workers
        shards: list[list] = [[] for _ in workers]
        for i, record in enumerate(records):
            shards[i % len(workers)].append(record)
        for worker, shard in zip(workers, shards):
            self.localfs.ingest(worker, file_name, shard)

    def ingest_dfs(self, file_name: str, records: list) -> None:
        """Place records in the DFS (Hadoop's input side)."""
        self.dfs.ingest(file_name, records)


# -- the two app drivers ----------------------------------------------------------
#
# An app declares its flowlet graph(s) or MapReduce jobs and how the last
# job's result reads as its output; a driver ingests, runs and wraps.


def run_on_hamr(
    env: AppEnv, app: str, input_name: str, records: list, graphs: Iterable, read: Callable,
    until: Optional[Callable] = None,
) -> AppResult:
    """Place ``records`` on the workers' local disks as ``input_name`` (§5.1)
    and run ``graphs`` back to back. They are drawn one at a time, so an
    iterative app builds each graph after the last one ran;
    ``until(job_result)`` stops early (Alg. 2's convergence test)."""
    env.ingest_local(input_name, records)
    results = []
    for graph in graphs:
        results.append(env.hamr.run(graph))
        if until is not None and until(results[-1]):
            break
    if not results:
        raise JobError(f"{app}: no graph to run")
    return _app_result(app, "hamr", results, read)


def _output_pairs(result) -> dict:
    return dict(result.outputs)


def run_on_hadoop(
    env: AppEnv, app: str, input_name: str, records: list, jobs: list,
    read: Callable = _output_pairs,
) -> AppResult:
    """Place ``records`` in the DFS as ``input_name`` and run ``jobs`` as
    one chain (§3.2); the output is the last job's pairs unless ``read``
    says otherwise."""
    env.ingest_dfs(input_name, records)
    return _app_result(app, "hadoop", run_chain(env.hadoop, jobs), read)


def _app_result(app: str, engine: str, results: list, read: Callable) -> AppResult:
    """Several jobs as one result: the makespan from the first job's start
    to the last one's end, counters and metrics summed in job order."""
    counters: dict[str, float] = {}
    metrics: dict[str, float] = {}
    for result in results:
        for total, part in ((counters, result.counters), (metrics, result.metrics)):
            for key, value in part.items():
                total[key] = total.get(key, 0) + value
    return AppResult(
        app, engine, results[-1].end_time - results[0].start_time, read(results[-1]),
        counters=counters, metrics=metrics,
    )
