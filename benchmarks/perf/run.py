"""Host-clock perf benchmark of the reproduction itself (ISSUE 11).

Three ways in, one file:

``run.py``                            the suite: all six workloads, each in a
                                      fresh process, untraced then traced;
                                      prints every metric, writes
                                      ``results.json`` + ``trace.json`` to --out
``run.py --workload W --trace 0|1``   one run of one workload (what the suite
                                      and the PR driver call); last stdout
                                      line is the result as JSON
``run.py --compare A.json B.json``    two result sets, one row per workload x
                                      metric, against the bounds

A run is a closed loop with one client: one process, one thread, passes
back to back for ``--seconds``. See README.md.
"""

from __future__ import annotations

import time

_STARTED = time.time()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
sys.path.insert(0, HERE)

import perfspec  # noqa: E402

#: hash order, BLAS threads and the journal header's commit field are
#: pinned so two runs of one commit execute the same instructions
PINNED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "REPRO_GIT_COMMIT": "perf-bench"}
START_VAR = "PERF_BENCH_STARTED"
RESULTS_SCHEMA = "repro.perf.results/v1"


def _benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _fidelity(args):
    return "tiny" if args.quick else "small"


def _timing(values, unit):
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


# -- one run of one workload (a fresh process) ---------------------------------------


class Run:
    """Set-up, passes and checks of one workload in this process."""

    def __init__(self, args):
        self.args = args
        self.fidelity = _fidelity(args)
        self.workdir = os.path.join(HERE, ".work", str(os.getpid()))
        self.passes: list[dict] = []
        self.golden = None
        if args.seed == 0:
            with open(args.golden) as fh:
                self.golden = json.load(fh).get(self.fidelity, {}).get(args.workload)

    def set_up(self, tracer):
        """Imports once, then input generation and fixtures up to three times
        (one second's worth): setup_s adds the median build to the rest."""
        import workloads

        imports = time.time() - float(os.environ.get(START_VAR, _STARTED))
        os.makedirs(self.workdir, exist_ok=True)
        builds = []
        while len(builds) < 3 and sum(builds) < 1.0:
            self.workload = workloads.make(self.args.workload)
            t0 = time.perf_counter()
            self.workload.build(self.args.seed, self.fidelity, self.workdir, tracer)
            builds.append(time.perf_counter() - t0)
        self.tracer = tracer
        return imports + statistics.median(builds)

    def one_pass(self, kind, runner=None):
        """Run, time and check one pass; a pass that raises is a failed pass."""
        self.tracer.pass_id += 1
        gc.collect()
        record = {"kind": kind, "errors": [], "virtual": {}, "completed": False}
        output = None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with self.tracer.span(f"pass.{kind}"):
                output = (runner or self.workload.run)()
            record["wall_s"] = time.perf_counter() - wall0
            record["cpu_s"] = time.process_time() - cpu0
            record["completed"] = True
            record["errors"], record["virtual"] = self.workload.check(output)
        except Exception:  # the boundary that keeps the run alive: recorded, reported, counted
            record.setdefault("wall_s", time.perf_counter() - wall0)
            record.setdefault("cpu_s", time.process_time() - cpu0)
            record["errors"].append(traceback.format_exc(limit=4))
        record["drift"] = self._drift(record["virtual"]) if not record["errors"] else []
        record["errors"] += [f"virtual drift: {name}" for name in record["drift"]]
        self.passes.append(record)
        return record, output

    def _drift(self, virtual):
        """Names of virtual-clock values that differ from the golden ones.
        Off seed 0 the first pass is the reference: all passes must agree."""
        if self.golden is None:
            self.golden = virtual
        names = sorted(set(virtual) | set(self.golden))
        return [
            n for n in names
            if n not in virtual or n not in self.golden
            or round(virtual[n], 6) != round(self.golden[n], 6)
        ]

    def summary(self):
        failed = sum(1 for p in self.passes if p["errors"])
        drift = max((len(p["drift"]) for p in self.passes), default=0)
        return {
            "attempted": len(self.passes),
            "failed": failed,
            "failed_share": failed / len(self.passes),
            "virtual_drift": drift,
            "errors": [e for p in self.passes for e in p["errors"]],
            "virtual": next((p["virtual"] for p in self.passes if p["virtual"]), {}),
            "items": self.workload.items,
            "items_label": self.workload.items_label,
        }

    def timed(self, kind):
        return [p for p in self.passes if p["kind"] == kind and p["completed"]]


def run_untraced(run):
    """The end-to-end metrics: nothing wrapped, nothing profiled."""
    from layers import NoTracer

    build = run.set_up(NoTracer())
    warmup, _output = run.one_pass("warmup")
    deadline = time.perf_counter() + run.args.seconds
    while True:
        run.one_pass("timed")
        if time.perf_counter() >= deadline:
            break
    passes = run.timed("timed") or run.passes[1:]
    wall = _timing([p["wall_s"] for p in passes], "s")
    cpu = _timing([p["cpu_s"] for p in passes], "s")
    scale = run.workload.items
    rate = {
        "value": scale / wall["value"], "unit": "1/s",
        "q1": scale / wall["q3"], "q3": scale / wall["q1"], "n": wall["n"],
    }
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": {"value": build + warmup["wall_s"], "unit": "s"},
        "wall_s": wall,
        "cpu_s": cpu,
        "records_per_s": rate,
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def run_traced(run):
    """The per-layer metrics: spans, one cProfile pass, the program's own
    profiler, then the isolated probes."""
    import layers

    tracer = layers.SpanTracer()
    run.set_up(tracer)
    workload = run.workload
    run.one_pass("warmup")
    deadline = time.perf_counter() + run.args.seconds / 4
    while len(run.timed("untraced")) < 3:
        run.one_pass("untraced")
        if time.perf_counter() >= deadline:
            break
    untraced = statistics.median(p["wall_s"] for p in run.timed("untraced") or run.passes)

    profiler = cProfile.Profile()
    traced, _output = run.one_pass("cprofile", lambda: profiler.runcall(workload.run))
    stats = pstats.Stats(profiler).stats
    shares, calls = layers.attribute(stats)
    values = {f"{layer}.self_share": share for layer, share in shares.items()}
    values.update({f"{layer}.calls": count for layer, count in calls.items()})
    values.update(layers.counted_calls(stats))
    values["trace.overhead_ratio"] = traced["wall_s"] / untraced
    events = values["sim.events"]
    values["sim.host_us_per_event"] = 1e6 * untraced / events if events else 0.0
    journal_bytes = workload.journal_bytes
    values["obs.journal.mb"] = journal_bytes / 1e6
    written = values["obs.journal.events"]
    values["obs.journal.bytes_per_event"] = journal_bytes / written if written else 0.0

    hostprof = {}
    if hasattr(workload, "hostprof_shares"):
        _record, row = run.one_pass("hostprof", lambda: workload.run(profile=True))
        hostprof = workload.hostprof_shares(row) if row is not None else {}
    for bucket in ("engine", "dataplane", "sim-kernel", "storage"):
        values[f"hostprof.{bucket}.share"] = hostprof.get(bucket, 0.0)

    if not run.args.quick:
        import probes

        journal = getattr(workload, "probe_journal", None)
        values.update(probes.run_probes(run.args.seed, run.workdir, SRC, journal))
    units = {name: unit for name, unit, *_ in perfspec.PER_LAYER}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}
    return metrics, tracer.spans


def run_one(args):
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"error: the program is not here: no {os.path.join(SRC, 'repro')}")
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        env = {**os.environ, **PINNED_ENV, START_VAR: repr(_STARTED)}
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, SRC)
    run = Run(args)
    spans = []
    try:
        if args.trace:
            metrics, spans = run_traced(run)
        else:
            metrics = run_untraced(run)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            os.rmdir(os.path.dirname(run.workdir))
    summary = run.summary()
    print(f"{args.workload} (seed {args.seed}, {run.fidelity} fidelity, trace {args.trace}): "
          f"{summary['attempted']} passes, {summary['failed']} failed, "
          f"virtual_drift {summary['virtual_drift']}, {summary['items']} {summary['items_label']}")
    for name, metric in metrics.items():
        spread = f"  q1 {metric['q1']:.6g} q3 {metric['q3']:.6g} n {metric['n']}" if "q1" in metric else ""
        print(f"  {name:44s} {metric['value']:>16.6g} {metric['unit']}{spread}")
    for error in summary["errors"]:
        print(f"  FAILED: {error}", file=sys.stderr)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        detail = {"workload": args.workload, "trace": args.trace, "metrics": metrics, "spans": spans, **summary}
        with open(os.path.join(args.out, f"{args.workload}.trace{args.trace}.json"), "w") as fh:
            json.dump(detail, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }))
    return 0


# -- the suite: every workload, untraced then traced -----------------------------------


def _spawn(args, workload, trace):
    argv = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
        "--out", args.out, "--golden", args.golden,
    ] + (["--quick"] if args.quick else [])
    env = {**os.environ, **PINNED_ENV, START_VAR: repr(time.time())}
    done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, timeout=600)
    sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n" if done.returncode == 0 else done.stdout)
    if done.returncode != 0:
        raise SystemExit(f"error: {workload} (trace {trace}) exited {done.returncode}")
    with open(os.path.join(args.out, f"{workload}.trace{trace}.json")) as fh:
        return json.load(fh)


def run_suite(args):
    bounds = {name: bound for name, _unit, _better, bound in perfspec.END_TO_END}
    results = {
        "schema": RESULTS_SCHEMA, "seed": args.seed, "seconds": args.seconds,
        "fidelity": _fidelity(args), "workloads": {},
    }
    trace_file = {}
    for workload in perfspec.WORKLOADS:
        untraced = _spawn(args, workload, 0)
        traced = _spawn(args, workload, 1)
        end_to_end = untraced["metrics"]
        for name, metric in end_to_end.items():
            spread = (metric["q3"] - metric["q1"]) / metric["value"] if "q1" in metric else 0.0
            metric["unresolved"] = spread > bounds[name]
        for name, _unit in perfspec.ZERO_GATES:
            end_to_end[name] = {"value": max(untraced[name], traced[name]), "unit": _unit}
        results["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "virtual": untraced["virtual"],
            "items": untraced["items"],
            "items_label": untraced["items_label"],
            "passes": {"untraced": untraced["attempted"], "traced": traced["attempted"]},
            "errors": untraced["errors"] + traced["errors"],
        }
        trace_file[workload] = traced["spans"]
    for name, payload in (("results.json", results), ("trace.json", trace_file)):
        with open(os.path.join(args.out, name), "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"\n{'workload':16s} " + " ".join(f"{n:>13s}" for n, *_ in perfspec.END_TO_END + perfspec.ZERO_GATES))
    failed = False
    for workload, entry in results["workloads"].items():
        cells = []
        for name, *_ in perfspec.END_TO_END + perfspec.ZERO_GATES:
            metric = entry["end_to_end"][name]
            cells.append(f"{metric['value']:>12.5g}{'?' if metric.get('unresolved') else ' '}")
        print(f"{workload:16s} " + " ".join(cells))
        failed |= bool(entry["end_to_end"]["failed_share"]["value"] or entry["end_to_end"]["virtual_drift"]["value"])
    print("(? = unresolved: IQR / median of the passes is wider than the metric's bound)")
    print(f"wrote {os.path.join(args.out, 'results.json')} and trace.json")
    return 1 if failed else 0


# -- compare two result sets ------------------------------------------------------------


def compare(path_a, path_b):
    """One row per workload x end-to-end metric: how much worse B is than A,
    against the bound. Exact-count layer metrics must be identical."""
    sets = []
    for path in (path_a, path_b):
        with open(path) as fh:
            sets.append(json.load(fh)["workloads"])
    a_set, b_set = sets
    bad = 0
    print(f"{'workload':16s} {'metric':14s} {'A':>12s} {'B':>12s} {'worse by':>9s} {'bound':>6s}  verdict")
    gates = [(n, better, bound) for n, _u, better, bound in perfspec.END_TO_END]
    gates += [(n, "lower", 0.0) for n, _u in perfspec.ZERO_GATES]
    for workload in perfspec.WORKLOADS:
        a_metrics, b_metrics = a_set[workload]["end_to_end"], b_set[workload]["end_to_end"]
        for name, better, bound in gates:
            a, b = a_metrics[name]["value"], b_metrics[name]["value"]
            change = (b - a) / a if a else float(b != a)
            worse = change if better == "lower" else -change
            if a_metrics[name].get("unresolved") or b_metrics[name].get("unresolved"):
                verdict = "unresolved"
            else:
                verdict = "ok" if worse <= bound else "WORSE"
            bad += verdict != "ok"
            print(f"{workload:16s} {name:14s} {a:>12.5g} {b:>12.5g} {worse:>+9.1%} {bound:>6.0%}  {verdict}")
        for name in perfspec.EXACT_COUNTS:
            a = a_set[workload]["per_layer"].get(name, {}).get("value")
            b = b_set[workload]["per_layer"].get(name, {}).get("value")
            if a != b:
                bad += 1
                print(f"{workload:16s} {name}: exact count differs: {a} != {b}")
    print("every row within its bound, exact counts identical" if not bad else f"{bad} rows not ok")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(perfspec.WORKLOADS), help="one run of this workload (default: the suite)")
    parser.add_argument("--seed", type=int, default=0, help="goes into workload_by_name(..., seed=) and nowhere else")
    parser.add_argument("--seconds", type=float, default=None, help="how long one run measures (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0, help="0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--out", metavar="DIR", help="where results.json, trace.json and per-run details go (suite default: benchmarks/perf/out)")
    parser.add_argument("--quick", action="store_true", help="tiny fidelity, one timed pass, no probes: a smoke test of the harness")
    parser.add_argument("--golden", default=os.path.join(HERE, "golden.json"), help="virtual-clock values gated at seed 0")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), help="compare two results.json files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(_benchmark_json()["run_seconds"])
    if args.workload:
        return run_one(args)
    args.out = os.path.abspath(args.out or os.path.join(HERE, "out"))
    args.golden = os.path.abspath(args.golden)
    os.makedirs(args.out, exist_ok=True)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
