"""Shared fixtures for the tier-1 suite."""

import pytest

from repro.apps import wordcount
from repro.apps.base import AppEnv
from repro.cluster.spec import small_cluster_spec
from repro.evaluation.runner import run_workload
from repro.evaluation.workloads import TABLE2_ORDER, workload_by_name
from repro.obs.journal import JournalWriter


def journaled_run(seed=0, target_bytes=50_000, workload="wordcount", commit=None, sink=None):
    """One journaled HAMR WordCount on the small test cluster, header and
    footer written the way the CLI writes them: ``(env, result, writer)``.

    ``workload`` is the name the header records (the run is WordCount
    either way); ``commit`` is stamped into the header when given.
    """
    params = wordcount.WordCountParams(target_bytes=target_bytes, seed=seed)
    records = wordcount.generate_input(params)
    writer = JournalWriter(sink=sink)
    header = dict(workload=workload, label="WordCount", data_size="16GB", engine="hamr")
    if commit is not None:
        header["commit"] = commit
    writer.write_header(**header)
    env = AppEnv(small_cluster_spec(num_workers=3), obs=True, journal=writer)
    result = wordcount.run_hamr(env, params, records)
    writer.write_footer(makespan=result.makespan, virtual_end=env.cluster.sim.now)
    return env, result, writer


def run_tiny_fleet():
    """``workload name -> BenchmarkRow``: all eight Table 2 workloads on both
    engines at tiny fidelity.

    Runs are journaled and watched, so each row carries its tracers
    (``*_obs``), journal writers (``*_journal``) and live monitors
    (``*_watch``). Journaling implies tracing, and tracing, journaling and
    watching are each asserted elsewhere to leave virtual outputs untouched
    (``test_critpath``, ``test_journal``, ``test_live``), so the makespans
    are those of plain runs.
    """
    return {
        name: run_workload(
            workload_by_name(name, "tiny"), engines="both", journal=True, watch=True
        )
        for name in TABLE2_ORDER
    }


@pytest.fixture(scope="session")
def tiny_fleet():
    """:func:`run_tiny_fleet`, executed once per session. Shared across test
    modules: read-only."""
    return run_tiny_fleet()
