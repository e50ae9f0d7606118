"""Hash-seed determinism gate: no journal byte depends on ``PYTHONHASHSEED``.

Python randomizes ``str`` hashes per process, so any dict or set ordering
that leaks into a run shows up as a journal that differs between
interpreters. Each tiny-fidelity journal of the 8 x 2 fleet is reduced to
a SHA-256 over every line after the header (the header carries the commit
id, which changes with each PR); the digests of this session's fleet, of
the same fleet run in a subprocess under another hash seed, and of
``tests/golden/journal_digests.json`` must all agree.

The golden pins the journal bytes themselves; regenerate only for an
intended change to what a run records::

    PYTHONPATH=src python tests/test_journal_digests.py --regen
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "journal_digests.json"
SRC = Path(__file__).parent.parent / "src"


def journal_digests(fleet: dict) -> dict[str, str]:
    """``workload:engine -> sha256`` of each journal's lines after the header."""
    digests = {}
    for name, row in fleet.items():
        for engine in ("hamr", "hadoop"):
            body = getattr(row, f"{engine}_journal").lines[1:]
            text = "".join(line + "\n" for line in body)
            digests[f"{name}:{engine}"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def _encode(digests: dict[str, str]) -> str:
    """One ``key: digest`` per line, so a drifted workload is a one-line diff."""
    rows = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(digests.items())]
    return "{" + ",\n ".join(rows) + "}\n"


def test_journals_identical_across_hash_seeds_and_to_parent_golden(tiny_fleet):
    here = journal_digests(tiny_fleet)
    assert len(here) == 16
    assert _encode(here) == GOLDEN.read_text()
    seed = "12345" if os.environ.get("PYTHONHASHSEED") != "12345" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
    other = subprocess.run(
        [sys.executable, __file__], env=env, check=True,
        capture_output=True, text=True, timeout=300,
    ).stdout
    assert other == _encode(here)


if __name__ == "__main__":
    from conftest import run_tiny_fleet

    encoded = _encode(journal_digests(run_tiny_fleet()))
    if sys.argv[1:] == ["--regen"]:
        GOLDEN.write_text(encoded)
        print(f"wrote {GOLDEN} ({len(encoded)} bytes)")
    elif sys.argv[1:]:
        sys.exit("usage: python tests/test_journal_digests.py [--regen]")
    else:
        sys.stdout.write(encoded)
