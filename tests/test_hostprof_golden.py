"""Profile-structure golden: what the profiler sees, minus the nanoseconds.

Which frames open, under which parent, how often and over how many
records/bytes is run-deterministic — only the ``*_ns`` fields are host
noise. ``tests/golden/hostprof/structure.json`` pins that structure for
all eight Table 2 workloads on both engines at tiny fidelity, with the
profiler **and** the live monitor attached, so a change to the kernel
hooks or to a ``hostprof.scope()`` site that adds, drops, renames or
re-parents a frame (or moves the schedule) fails byte for byte.

The golden was generated at the commit *before* the kernel-hooks seam
landed; regenerate only for an intended profile change::

    PYTHONPATH=src python tests/test_hostprof_golden.py --regen
"""

import json
import sys
from pathlib import Path

import pytest

from repro.evaluation.runner import run_workload
from repro.evaluation.workloads import TABLE2_ORDER, workload_by_name

GOLDEN = Path(__file__).parent / "golden" / "hostprof" / "structure.json"


def profile_structure(name: str) -> dict:
    """``engine -> structure`` of one profiled + watched tiny run."""
    row = run_workload(
        workload_by_name(name, "tiny"), engines="both", profile=True, watch=True
    )
    out = {}
    for engine, seconds in (("hamr", row.hamr_seconds), ("hadoop", row.idh_seconds)):
        snap = getattr(row, f"{engine}_hostprof")
        out[engine] = {
            "makespan": seconds,
            "frames": len(getattr(row, f"{engine}_watch").frames),
            "flat": [
                [r["bucket"], r["label"], r["calls"], r["records"], r["nbytes"]]
                for r in snap["flat"]
            ],
            "tree": [[node["path"], node["calls"]] for node in snap["tree"]],
        }
    return out


def _encode(structure: dict) -> str:
    return json.dumps(structure, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_workload(golden):
    assert sorted(golden) == sorted(TABLE2_ORDER)


@pytest.mark.parametrize("name", TABLE2_ORDER)
def test_profile_structure_matches_golden(name, golden):
    assert _encode(profile_structure(name)) == _encode(golden[name])


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_hostprof_golden.py --regen")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(
        {name: profile_structure(name) for name in TABLE2_ORDER},
        sort_keys=True,
        separators=(",", ":"),
    )
    GOLDEN.write_text(text + "\n")
    print(f"wrote {GOLDEN} ({len(text) + 1} bytes)")
