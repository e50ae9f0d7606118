"""Regeneration of the paper's tables.

* :func:`table1` — the cluster specification (configuration echo);
* :func:`table2` — the eight-benchmark IDH-vs-HAMR comparison;
* :func:`table3` — HAMR with combiners on the histogram benchmarks.

Each returns the measured rows plus a rendered string with
paper-vs-measured columns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.spec import PAPER_CLUSTER, ClusterSpec
from repro.common.units import format_bytes
from repro.evaluation.paper import PAPER_TABLE3
from repro.evaluation.report import render_table
from repro.evaluation.runner import BenchmarkRow, run_workload
from repro.evaluation.workloads import table2_workloads, workload_by_name


def table1(spec: ClusterSpec = PAPER_CLUSTER) -> str:
    """Table 1: Cluster Information."""
    rows = [
        ("# of compute nodes", str(spec.num_nodes)),
        ("CPU Count", "2"),
        ("CPU Type", "Intel Xeon Processor E5-2620"),
        ("CPU MHz", f"{spec.node.cpu_ghz:.0f}GHz"),
        ("Memory", format_bytes(spec.node.memory)),
        ("Network Type", "4x FDR InfiniBand"),
        ("Local Disk Type", "SATA-III"),
        ("# of Local Disk", str(spec.node.num_disks)),
        ("Worker threads / node", str(spec.node.worker_threads)),
        ("Worker nodes (tasks)", str(spec.num_workers)),
    ]
    return render_table(("Property", "Value"), rows, title="Table 1: Cluster Information")


@dataclass
class TableResult:
    rows: list[BenchmarkRow]
    rendered: str = ""

    def row(self, name: str) -> BenchmarkRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)


def table2(fidelity: str = "small", progress=None) -> TableResult:
    """Table 2: all eight benchmarks on both engines."""
    rows = []
    for workload in table2_workloads(fidelity):
        if progress:
            progress(workload.name)
        rows.append(run_workload(workload))
    rendered = render_table(
        ("Benchmark", "Data Size", "IDH 3.0", "HAMR", "Speedup", "Paper IDH", "Paper HAMR", "Paper Speedup"),
        [
            (
                r.label,
                r.data_size,
                r.idh_seconds,
                r.hamr_seconds,
                r.speedup,
                r.paper.idh_seconds,
                r.paper.hamr_seconds,
                r.paper.speedup,
            )
            for r in rows
        ],
        title="Table 2: Performance comparison between IDH 3.0 and HAMR (seconds)",
    )
    return TableResult(rows, rendered)


def table3(fidelity: str = "small", baseline_rows: list[BenchmarkRow] | None = None) -> TableResult:
    """Table 3: HAMR *with combiner* on the histogram benchmarks.

    Speedups are against the same IDH baseline as Table 2; pass Table 2's
    rows to reuse its Hadoop measurements, otherwise they are re-measured.
    """
    rows = []
    for name in ("histogram_movies", "histogram_ratings"):
        workload = workload_by_name(name, fidelity)
        combined = replace(workload.params, hamr_combiner=True)
        hamr_result = workload.run_hamr(workload.fresh_env(), combined, workload.records)
        if baseline_rows is not None:
            idh_seconds = next(r.idh_seconds for r in baseline_rows if r.name == name)
        else:
            idh_seconds = workload.run_hadoop(
                workload.fresh_env(), workload.params, workload.records
            ).makespan
        rows.append(
            BenchmarkRow(
                name=workload.name,
                label=workload.label,
                data_size=workload.data_size,
                idh_seconds=idh_seconds,
                hamr_seconds=hamr_result.makespan,
                paper=PAPER_TABLE3.get(workload.name),
                hamr_result=hamr_result,
            )
        )
    rendered = render_table(
        ("Benchmark", "Data Size", "HAMR+Combiner", "Speedup", "Paper HAMR", "Paper Speedup"),
        [
            (r.label, r.data_size, r.hamr_seconds, r.speedup, r.paper.hamr_seconds, r.paper.speedup)
            for r in rows
        ],
        title="Table 3: Performance of HAMR using Combiner (seconds)",
    )
    return TableResult(rows, rendered)
