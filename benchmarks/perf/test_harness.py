"""Self-test of the perf harness (``pytest benchmarks/perf``, ~30 s).

Runs the suite once in ``--quick`` mode (tiny fidelity, one timed pass, no
probes) and checks the contract the later perf issues lean on: names,
schema, the zero gates, the attribution arithmetic, and that a wrong
answer becomes a failed pass rather than a crash.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import perfspec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*argv, cwd=REPO):
    return subprocess.run(
        [sys.executable, RUN, *argv], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf")
    done = _run("--quick", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out / "results.json") as fh:
        results = json.load(fh)
    with open(out / "trace.json") as fh:
        return results, json.load(fh)


def test_names_match_benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert bench["workloads"] == [{"name": n, "why": w} for n, w in perfspec.WORKLOADS.items()]
    assert bench["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in perfspec.END_TO_END
    ]
    assert bench["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, *_ in perfspec.PER_LAYER
    ]
    assert bench["paths"] == [os.path.relpath(HERE, REPO)]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in bench["end_to_end"])


def test_quick_suite_schema_and_gates(quick):
    results, trace = quick
    assert sorted(results["workloads"]) == sorted(perfspec.WORKLOADS) == sorted(trace)
    end_to_end = sorted(n for n, *_ in perfspec.END_TO_END + perfspec.ZERO_GATES)
    traced = sorted(n for n, *_ in perfspec.PER_LAYER if n not in perfspec.PROBE_NAMES)
    for workload, entry in results["workloads"].items():
        assert sorted(entry["end_to_end"]) == end_to_end, workload
        assert sorted(entry["per_layer"]) == traced, workload
        assert entry["end_to_end"]["failed_share"]["value"] == 0, entry["errors"]
        assert entry["end_to_end"]["virtual_drift"]["value"] == 0, entry["errors"]
        assert all(entry["end_to_end"][n]["value"] > 0 for n, *_ in perfspec.END_TO_END)
        shares = [m["value"] for n, m in entry["per_layer"].items() if n.endswith(".self_share")]
        assert len(shares) == len(perfspec.LAYERS)
        assert abs(sum(shares) - 1.0) <= 0.01, workload
        spans = trace[workload]
        assert spans and all(s["end"] >= s["start"] for s in spans)
        assert all(s["parent"] is None or spans[s["parent"]]["pass"] == s["pass"] for s in spans)


def test_driver_line_has_exactly_the_contract_keys():
    done = _run("--workload", "wc_hadoop", "--seed", "3", "--seconds", "0", "--trace", "0", "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [n for n, *_ in perfspec.END_TO_END]
    assert all(sorted(m) == ["unit", "value"] for m in result["metrics"].values())


def test_wrong_golden_value_is_a_failed_pass_not_a_crash(tmp_path):
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    golden["tiny"]["wc_hadoop"]["makespan"] += 1.0
    tampered = tmp_path / "golden.json"
    tampered.write_text(json.dumps(golden))
    done = _run("--workload", "wc_hadoop", "--quick", "--golden", str(tampered))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "virtual drift: makespan" in done.stderr


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__", ".work", "out"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "wc_hamr", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
