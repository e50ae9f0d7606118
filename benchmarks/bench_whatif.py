"""What-if validation sweep: predicted vs executed -> ``BENCH_whatif.json``.

The counterfactual engine (:mod:`repro.obs.whatif`) claims three
tolerance tiers — bucket scenarios exact, fabric swaps within 5%, node
rescales within 60% — and this harness measures them: for each selected
workload x engine it records a journaled baseline run, predicts every
scenario of the executable validation matrix, re-runs each scenario for
real, and writes the per-scenario prediction errors (plus a full
predicted-vs-actual node capacity curve) to one artifact::

    python benchmarks/bench_whatif.py --fidelity tiny --out BENCH_whatif.json
    python benchmarks/bench_whatif.py --workloads wordcount,kcliques \
        --engines hamr --sweep nodes=4..32

Exit code 1 when any scenario family exceeds its documented tolerance —
the same gate CI runs (``whatif-gate``), kept here as a standalone
script so tolerance drift is measurable locally before it fails a PR.
"""

import argparse
import json
import pathlib
import sys

from repro.evaluation.runner import run_workload
from repro.evaluation.workloads import TABLE2_ORDER, workload_by_name
from repro.obs.whatif import (
    WHATIF_SCHEMA,
    WhatIfModel,
    parse_scenario,
    parse_sweep,
    scenario_journal,
    validate,
)

BENCH_WHATIF_SCHEMA = "repro.obs.bench_whatif/v1"

#: documented per-family |error| tolerances (README: what-if planning)
TOLERANCES = {"identity": 0.0, "dilation": 1e-9, "fabric": 0.05, "nodes": 0.60}


def _family(scenario) -> str:
    if scenario.is_identity:
        return "identity"
    if scenario.bucket_only:
        return "dilation"
    if scenario.fabric is not None or scenario.racks is not None:
        return "fabric"
    return "nodes"


def _executor(name: str, engine: str, fidelity: str, model: WhatIfModel):
    """Real re-runs for the validation matrix (one fresh env per scenario)."""

    def run(scenario):
        print(
            f"    executing {scenario.describe()} ...", file=sys.stderr, flush=True
        )
        workload = workload_by_name(name, fidelity)
        if scenario.bucket_only:
            fresh = run_workload(workload, engines=engine, journal=True)
            writer = (
                fresh.hamr_journal if engine == "hamr" else fresh.hadoop_journal
            )
            dilated = scenario_journal(writer.records, scenario)
            return dilated[-1].get("makespan")
        if scenario.nodes is not None:
            workload.num_workers = scenario.nodes - 1
        fabric = scenario.fabric or model.run.spec.fabric
        fresh = run_workload(
            workload, engines=engine, fabric=fabric,
            rack_size=workload.spec().rack_size_for(fabric, scenario.racks),
        )
        return fresh.hamr_seconds if engine == "hamr" else fresh.idh_seconds

    return run


def run_pair(name: str, engine: str, fidelity: str, sweep: str) -> dict:
    """Validation matrix + predicted-vs-actual capacity curve for one run."""
    baseline = run_workload(workload_by_name(name, fidelity), engines=engine,
                            journal=True)
    writer = baseline.hamr_journal if engine == "hamr" else baseline.hadoop_journal
    model = WhatIfModel(writer.records)
    rows = validate(model, _executor(name, engine, fidelity, model))
    key, values = parse_sweep(sweep)
    curve = []
    for value in values:
        scenario = parse_scenario(f"{key}={value}")
        prediction = model.predict(scenario)
        actual = _executor(name, engine, fidelity, model)(scenario)
        curve.append(
            {
                key: value,
                "predicted": prediction.predicted,
                "optimistic": prediction.optimistic,
                "pessimistic": prediction.pessimistic,
                "actual": actual,
                "error": (
                    (prediction.predicted - actual) / actual if actual else None
                ),
            }
        )
    return {
        "base_makespan": model.makespan,
        "validation": [
            dict(row.to_dict(), family=_family(row.prediction.scenario))
            for row in rows
        ],
        "sweep": {"key": key, "points": curve},
    }


def worst_errors(rows: dict) -> dict:
    """Per-family worst |prediction error| across every validated row."""
    worst: dict[str, float] = {}
    for per_engine in rows.values():
        for entry in per_engine.values():
            for row in entry["validation"]:
                if row["error"] is None:
                    continue
                family = row["family"]
                worst[family] = max(worst.get(family, 0.0), abs(row["error"]))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fidelity", default="tiny",
                        choices=["tiny", "small", "medium"])
    parser.add_argument("--workloads", default="wordcount,kcliques",
                        help="comma-separated Table 2 subset")
    parser.add_argument("--engines", default="both",
                        choices=["both", "hamr", "hadoop"])
    parser.add_argument("--sweep", default="nodes=4..32",
                        help="capacity-curve sweep spec (default nodes=4..32)")
    parser.add_argument("--out", default="BENCH_whatif.json")
    parser.add_argument("--no-gate", action="store_true",
                        help="always exit 0 (measurement only)")
    args = parser.parse_args(argv)

    selected = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(selected) - set(TABLE2_ORDER))
    if unknown:
        parser.error(f"unknown workloads {unknown}; pick from {TABLE2_ORDER}")
    engines = ["hamr", "hadoop"] if args.engines == "both" else [args.engines]

    rows: dict[str, dict] = {}
    for name in selected:
        for engine in engines:
            print(f"  validating {name}:{engine} ({args.fidelity}) ...",
                  file=sys.stderr, flush=True)
            rows.setdefault(name, {})[engine] = run_pair(
                name, engine, args.fidelity, args.sweep
            )
    worst = worst_errors(rows)
    payload = {
        "schema": BENCH_WHATIF_SCHEMA,
        "whatif_schema": WHATIF_SCHEMA,
        "fidelity": args.fidelity,
        "tolerances": TOLERANCES,
        "worst_errors": {k: worst[k] for k in sorted(worst)},
        "rows": rows,
    }
    path = pathlib.Path(args.out)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    failures = [
        f"{family}: worst |error| {error:.1%} > {TOLERANCES[family]:.1%}"
        for family, error in sorted(worst.items())
        if error > TOLERANCES[family]
    ]
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    if failures and not args.no_gate:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
