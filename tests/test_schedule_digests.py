"""Schedule-identity gate: every tiny run makes the same kernel schedule.

The firing order of a simulation is a function of its ``_schedule`` log:
the ``(now, delay)`` of every call, in call order, fixes each event's
``(time, sequence)`` heap key. Each of the 8 x 2 tiny-fidelity runs, with
no observer attached, is reduced to that log's call count and a SHA-256
over it; ``tests/golden/schedule_digests.json`` pins both. Event names are
left out on purpose — they are debug labels, not part of the schedule — so
an engine change may batch work inside an event, rename it or skip a
generator resume, but not add, drop, move or reorder one ``_schedule``.

Regenerate only for an intended change to the virtual schedule::

    PYTHONPATH=src python tests/test_schedule_digests.py --regen
"""

import hashlib
import json
import sys
from pathlib import Path

from repro.evaluation.runner import run_workload
from repro.evaluation.workloads import TABLE2_ORDER, workload_by_name
from repro.sim import Simulator

GOLDEN = Path(__file__).parent / "golden" / "schedule_digests.json"
ENGINES = ("hamr", "hadoop")


def schedule_digest(name: str, engine: str, patch) -> dict:
    """``{"calls", "sha256"}`` of one unobserved tiny run's ``_schedule`` log.

    ``patch(obj, attr, value)`` installs the recorder (``monkeypatch.setattr``
    in the test, a plain ``setattr`` when regenerating).
    """
    digest = hashlib.sha256()
    calls = 0
    original = Simulator._schedule

    def recording(self, delay, event):
        nonlocal calls
        calls += 1
        digest.update(f"{self.now!r} {delay!r}\n".encode())
        original(self, delay, event)

    patch(Simulator, "_schedule", recording)
    try:
        run_workload(workload_by_name(name, "tiny"), engines=engine)
    finally:
        patch(Simulator, "_schedule", original)
    return {"calls": calls, "sha256": digest.hexdigest()}


def _encode(digests: dict) -> str:
    """One ``workload:engine`` per line, so a drifted run is a one-line diff."""
    rows = [
        f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
        for k, v in sorted(digests.items())
    ]
    return "{" + ",\n ".join(rows) + "}\n"


def fleet_digests(patch) -> dict:
    return {
        f"{name}:{engine}": schedule_digest(name, engine, patch)
        for name in TABLE2_ORDER
        for engine in ENGINES
    }


def test_schedule_matches_parent_golden(monkeypatch):
    here = fleet_digests(monkeypatch.setattr)
    assert len(here) == 16
    assert _encode(here) == GOLDEN.read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_schedule_digests.py --regen")
    encoded = _encode(fleet_digests(setattr))
    GOLDEN.write_text(encoded)
    print(f"wrote {GOLDEN} ({len(encoded)} bytes)")
