"""Smoke tests: every example script runs end-to-end and prints sane output."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SRC = EXAMPLES.parent / "src"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_examples_exist():
    scripts = sorted(p.name for p in EXAMPLES.glob("*.py"))
    assert len(scripts) >= 3
    assert "quickstart.py" in scripts


@pytest.mark.parametrize("script", sorted(p.name for p in EXAMPLES.glob("*.py")))
def test_example_exits_zero_as_a_script(script):
    """Each example runs as ``python examples/<script>`` with only ``src``
    on the path, in its own process, and exits 0."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / script)], env=env, cwd=EXAMPLES.parent,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "HAMR word counts" in out
    assert "quick" in out
    assert "makespan" in out


def test_pagerank_webgraph(capsys):
    out = run_example("pagerank_webgraph.py", capsys)
    assert "converged" in out or "iteration" in out
    assert "top pages by rank" in out
    assert "adjacency lists resident" in out


def test_kmeans_movies(capsys):
    out = run_example("kmeans_movies.py", capsys)
    assert "new centroid movie per cluster" in out
    assert "cluster files written to node-local disks" in out
    assert "speedup" in out


def test_streaming_wordcount(capsys):
    out = run_example("streaming_wordcount.py", capsys)
    assert "job finished at t" in out
    assert "final word counts" in out
    # job cannot finish before the last batch at t=8
    finished_line = next(
        line for line in out.splitlines() if "job finished" in line
    )
    t = float(finished_line.split("t = ")[1].split("s")[0])
    assert t >= 8.0


def test_sql_analytics(capsys):
    out = run_example("sql_analytics.py", capsys)
    assert "plan for:" in out
    assert "TableScan" in out
    assert "row(s) in" in out


def test_lambda_architecture(capsys):
    out = run_example("lambda_architecture.py", capsys)
    assert "batch layer" in out
    assert "speed layer" in out
    assert "served view" in out
