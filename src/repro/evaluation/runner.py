"""Dual-engine benchmark execution."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.apps.base import AppResult
from repro.evaluation.paper import PAPER_TABLE2, PaperRow, SHAPE_BANDS
from repro.evaluation.workloads import Workload
from repro.obs import hostprof as _hostprof
from repro.obs.runspec import RunSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Tracer

#: memoized git commit for journal headers — resolve_commit() shells out
#: to git, which must happen at most once per process, not once per run
_COMMIT_CACHE: list = []


def _journal_commit() -> Optional[str]:
    if not _COMMIT_CACHE:
        from repro.obs.history import resolve_commit

        _COMMIT_CACHE.append(resolve_commit())
    return _COMMIT_CACHE[0]


@dataclass
class BenchmarkRow:
    """One comparison row: measured IDH-style vs HAMR plus paper context."""

    name: str
    label: str
    data_size: str
    idh_seconds: float
    hamr_seconds: float
    paper: Optional[PaperRow] = None
    hamr_result: Optional[AppResult] = field(default=None, repr=False)
    hadoop_result: Optional[AppResult] = field(default=None, repr=False)
    #: observability tracers of the two runs (None unless ``obs=True``)
    hamr_obs: "Optional[Tracer]" = field(default=None, repr=False)
    hadoop_obs: "Optional[Tracer]" = field(default=None, repr=False)
    #: host-time profiler snapshots (repro.obs.hostprof/v1 dicts; None
    #: unless ``profile=True``) — host ns per bucket/operator, clock track
    hamr_hostprof: Optional[dict] = field(default=None, repr=False)
    hadoop_hostprof: Optional[dict] = field(default=None, repr=False)
    #: always 0; kept because the benchmarks/perf harness reads it
    hamr_trace_dropped: int = 0
    hadoop_trace_dropped: int = 0
    #: run journals (repro.obs.journal JournalWriters; None unless a
    #: journal factory was passed to run_workload)
    hamr_journal: Optional[object] = field(default=None, repr=False)
    hadoop_journal: Optional[object] = field(default=None, repr=False)
    #: live monitors (repro.obs.live LiveMonitors; None unless ``watch``
    #: was passed to run_workload)
    hamr_watch: Optional[object] = field(default=None, repr=False)
    hadoop_watch: Optional[object] = field(default=None, repr=False)

    @property
    def speedup(self) -> float:
        return self.idh_seconds / self.hamr_seconds

    @property
    def in_shape_band(self) -> Optional[bool]:
        band = SHAPE_BANDS.get(self.name)
        if band is None:
            return None
        lo, hi = band
        return lo <= self.speedup <= hi


def run_workload(
    workload: Workload,
    engines: str = "both",
    obs: bool = False,
    profile: bool = False,
    journal=None,
    watch=None,
    fabric: str = RunSpec.fabric,
    partitioner: str = RunSpec.partitioner,
    rack_size: Optional[int] = None,
) -> BenchmarkRow:
    """Run a workload on fresh environments and assemble its row.

    ``engines`` may be ``"both"``, ``"hamr"`` or ``"hadoop"`` (missing
    engine columns are reported as 0). With ``obs=True`` each run keeps
    its observability tracer on the row (``hamr_obs`` / ``hadoop_obs``).
    With ``profile=True`` each run is host-time profiled (a fresh
    :class:`~repro.obs.hostprof.HostProfiler` per engine, attached to the
    sim kernel and active for the engine/dataplane/storage scopes) and
    the row carries the snapshots — the virtual results are byte-identical
    either way.

    ``journal`` is a factory ``engine_name -> JournalWriter`` (or a bool;
    True creates in-memory writers). Each engine run gets its own writer
    with a header written before the cluster is built (telemetry wiring
    already emits events) and a footer carrying the run's makespan and
    virtual end time. Journaling implies ``obs=True``.

    ``watch`` turns on live monitoring (implies ``obs=True``): True or a
    :class:`~repro.obs.live.WatchConfig` attaches a fresh
    :class:`~repro.obs.live.LiveMonitor` per engine run, a callable
    ``(engine_name, tracer) -> LiveMonitor`` builds custom monitors
    (e.g. with per-engine SLO specs). Monitors are finished before the
    journal footer so the terminal frame lands inside the journal body;
    the row carries them (``hamr_watch`` / ``hadoop_watch``).
    """
    if journal is not None and journal is not False:
        obs = True
    if watch is not None and watch is not False:
        obs = True

    def _writer_for(engine: str):
        if journal is None or journal is False:
            return None
        if callable(journal):
            return journal(engine)
        from repro.obs.journal import JournalWriter

        return JournalWriter()

    def _run(runner, env):
        prof = None
        if profile:
            prof = _hostprof.HostProfiler()
            env.cluster.sim.attach(prof)
        with _hostprof.activation(prof):
            result = runner(env, workload.params, workload.records)
        return result, (prof.snapshot() if prof is not None else None)

    def _engine_run(runner, engine: str):
        writer = _writer_for(engine)
        if writer is not None:
            spec = workload.spec()
            # the rack size the environment resolves, so offline consumers
            # (whatif re-pricing) see the topology the run actually used
            header = dict(
                asdict(RunSpec(workload.name, engine, fabric, partitioner)),
                label=workload.label,
                data_size=workload.data_size,
                nodes=spec.num_nodes,
                rack_size=spec.rack_size_for(fabric) if rack_size is None else rack_size,
            )
            # Provenance for the corpus index: which commit produced this
            # run. Deterministic within a checkout (REPRO_GIT_COMMIT
            # overrides in CI); omitted entirely outside git so journal
            # bytes stay reproducible in both worlds.
            commit = _journal_commit()
            if commit is not None:
                header["commit"] = commit
            writer.write_header(**header)
        env = workload.fresh_env(
            obs=obs, journal=writer, fabric=fabric, partitioner=partitioner, rack_size=rack_size,
        )
        monitor = None
        if watch is not None and watch is not False:
            from repro.obs.live import LiveMonitor, WatchConfig

            if callable(watch) and not isinstance(watch, WatchConfig):
                monitor = watch(engine, env.obs)
            else:
                config = watch if isinstance(watch, WatchConfig) else None
                monitor = LiveMonitor(env.obs, config=config)
            env.cluster.sim.attach(monitor)
        result, prof = _run(runner, env)
        if monitor is not None:
            # terminal frame before the footer seals the journal
            monitor.finish(result.makespan)
        if writer is not None:
            writer.write_footer(makespan=result.makespan, virtual_end=env.cluster.sim.now)
        return env, result, prof, writer, monitor

    hamr_result = hadoop_result = None
    hamr_obs = hadoop_obs = None
    hamr_prof = hadoop_prof = None
    hamr_writer = hadoop_writer = None
    hamr_monitor = hadoop_monitor = None
    if engines in ("both", "hamr"):
        env, hamr_result, hamr_prof, hamr_writer, hamr_monitor = _engine_run(
            workload.run_hamr, "hamr"
        )
        hamr_obs = env.obs if obs else None
    if engines in ("both", "hadoop"):
        env, hadoop_result, hadoop_prof, hadoop_writer, hadoop_monitor = _engine_run(
            workload.run_hadoop, "hadoop"
        )
        hadoop_obs = env.obs if obs else None
    return BenchmarkRow(
        name=workload.name,
        label=workload.label,
        data_size=workload.data_size,
        idh_seconds=hadoop_result.makespan if hadoop_result else 0.0,
        hamr_seconds=hamr_result.makespan if hamr_result else 0.0,
        paper=PAPER_TABLE2.get(workload.name),
        hamr_result=hamr_result,
        hadoop_result=hadoop_result,
        hamr_obs=hamr_obs,
        hadoop_obs=hadoop_obs,
        hamr_hostprof=hamr_prof,
        hadoop_hostprof=hadoop_prof,
        hamr_journal=hamr_writer,
        hadoop_journal=hadoop_writer,
        hamr_watch=hamr_monitor,
        hadoop_watch=hadoop_monitor,
    )
