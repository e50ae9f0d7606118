"""The paper's artifacts: Table 1/2/3, Figure 3(a)/(b), one Table 2 row."""

from __future__ import annotations

from repro.evaluation.cli.runs import announce
from repro.evaluation.figures import figure3a, figure3b
from repro.evaluation.runner import run_workload
from repro.evaluation.tables import table1 as render_table1
from repro.evaluation.tables import table2, table3
from repro.evaluation.workloads import workload_by_name
from repro.obs.runspec import RunSpec

SWEEP = ("table2", "table3", "fig3a", "fig3b")


def table1(args) -> None:
    print(render_table1())


def sweep(args) -> None:
    """One of table2/table3/fig3a/fig3b, or ``all`` four sharing one Table 2
    sweep (its rows are table3's baseline and both figures' bars)."""
    rows = None
    for artifact in SWEEP if args.command == "all" else (args.command,):
        if artifact == "table2":
            result = table2(args.fidelity, progress=announce)
            rows = result.rows
        elif artifact == "table3":
            result = table3(args.fidelity, baseline_rows=rows)
        elif artifact == "fig3a":
            result = figure3a(args.fidelity, rows=rows)
        else:
            result = figure3b(args.fidelity, rows=rows)
        print(result.rendered)
        if artifact != "fig3b":
            print()


def bench(args) -> None:
    workload = workload_by_name(args.name, args.fidelity)
    row = run_workload(
        workload, fabric=args.fabric, partitioner=args.partitioner,
        rack_size=workload.spec().rack_size_for(args.fabric, args.racks),
    )
    suffix = "" if args.fabric == RunSpec.fabric else f" [{args.fabric} fabric]"
    print(
        f"{row.label} ({row.data_size}): IDH {row.idh_seconds:.3f}s, "
        f"HAMR {row.hamr_seconds:.3f}s, speedup {row.speedup:.2f}x "
        f"(paper {row.paper.speedup:.2f}x){suffix}"
    )
