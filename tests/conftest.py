"""Shared fixtures for the tier-1 suite."""

import pytest

from repro.evaluation.runner import run_workload
from repro.evaluation.workloads import TABLE2_ORDER, workload_by_name


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
