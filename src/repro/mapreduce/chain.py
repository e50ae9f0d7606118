"""Multi-job chains.

"Many complex problems ... can be implemented in Hadoop by chaining
multiple MapReduce jobs together. It brings in not only the overhead of
creating and starting new jobs ... but also extra disk IO. Besides,
between jobs, there is also a barrier" (§3.2). ``run_chain`` reproduces
exactly that: strictly sequential jobs, each paying its own startup, each
handing data to the next through replicated DFS files.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.errors import JobError
from repro.mapreduce.api import MRJob
from repro.mapreduce.engine import HadoopEngine, MRJobResult


def run_chain(engine: HadoopEngine, jobs: Sequence[MRJob]) -> list[MRJobResult]:
    """Run jobs back-to-back; each consumes the DFS state its predecessor left.

    Returns per-job results; total wall time is
    ``results[-1].end_time - results[0].start_time``.
    """
    if not jobs:
        raise JobError("empty job chain")
    results: list[MRJobResult] = []
    for i, job in enumerate(jobs):
        if not engine.dfs.exists(job.input_file):
            raise JobError(
                f"chain job {job.name!r} (step {i}): input {job.input_file!r} missing"
            )
        results.append(engine.run(job))
    return results


def chain_makespan(results: Sequence[MRJobResult]) -> float:
    """Wall time of a whole chain (includes every barrier and startup)."""
    return results[-1].end_time - results[0].start_time
