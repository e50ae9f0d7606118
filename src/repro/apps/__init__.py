"""The paper's eight evaluation benchmarks (§4), each implemented three ways:

1. **flowlet-style** on the HAMR engine, following the paper's Algorithms
   1-4 (locality refs, KV-store graphs, partial reduces, multi-phase DAGs);
2. **Hadoop-style** on the MapReduce baseline, following the PUMA/HiBench
   job structure (full data through shuffle, chained jobs);
3. a pure-Python **reference** used by the test suite to verify both.

Every module exposes ``run_hamr(env, params, records)`` and
``run_hadoop(env, params, records)`` returning an
:class:`~repro.apps.base.AppResult`. An app declares only its flowlet
graph or MapReduce jobs and how their output is read; the two drivers in
:mod:`repro.apps.base` ingest, run and wrap.
"""

from repro.apps.base import AppEnv, AppResult

__all__ = ["AppEnv", "AppResult"]
