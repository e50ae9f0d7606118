"""Run identity: which run a record describes, and how that reads as text.

A :class:`RunSpec` — workload, engine, exchange fabric, partitioner — is
what journal headers, corpus rows, history series, bench entries, report
documents and doctor selectors name a run by. This module alone knows the
selector grammar ``workload:engine[@fabric][+partitioner]`` (``parse`` and
``str`` are a fixpoint on canonical text, like ``Scenario.describe()``),
the defaults a record without the key resolves to (so v1 journals and old
history rows keep their identity), and the rule that text, engine labels
and stamped documents name only what differs from the defaults.

It replaces ``doctor.parse_series_spec``, ``history.series_label`` and
``entry_matches``, ``cli.runs.fabric_opts`` and its ``None``-means-default
mapping, the ``engine@fabric`` keys of ``cli.views`` and ``diff``, and the
``"direct"``/``"hash"`` defaults ten modules re-applied (DESIGN.md §6.4).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

#: the engines a run executes on
ENGINES = ("hamr", "hadoop")

#: the exchange fields in canonical order, each with its selector mark
_MARKS = (("fabric", "@"), ("partitioner", "+"))

_SELECTOR = re.compile(r"([^:@+]+):([^:@+]+)(?:@([^:@+]+))?(?:\+([^:@+]+))?")


@dataclass(frozen=True, order=True)
class RunSpec:
    """One run's identity. ``workload`` is not checked against Table 2:
    the corpus indexes journals of any workload."""

    workload: str
    engine: str
    fabric: str = "direct"
    partitioner: str = "hash"

    @classmethod
    def parse(cls, text: str) -> "RunSpec":
        """``workload:engine[@fabric][+partitioner]``, suffixes in that order,
        an explicit default accepted; anything else raises ValueError."""
        # imported here because the dataplane and the engines import repro.obs
        from repro.core.engine import PARTITIONERS
        from repro.dataplane.fabrics import FABRICS

        match = _SELECTOR.fullmatch(text)
        workload, engine, fabric, partitioner = match.groups() if match else (None,) * 4
        if (
            engine not in ENGINES
            or fabric not in (None, *FABRICS)
            or partitioner not in (None, *PARTITIONERS)
        ):
            raise ValueError(
                f"bad run selector {text!r} (expected "
                "workload:engine[@fabric][+partitioner], in that order; fabrics: "
                f"{', '.join(FABRICS)}; partitioners: {', '.join(PARTITIONERS)})"
            )
        return cls(workload, engine, fabric or cls.fabric, partitioner or cls.partitioner)

    @classmethod
    def from_entry(cls, workload: str, engine: str, entry: dict) -> "RunSpec":
        """The run a record keyed by workload and engine (a bench or history
        entry, a report document) holds; a missing key is the default."""
        fields = (entry.get(name, getattr(cls, name)) for name, _mark in _MARKS)
        return cls(workload, engine, *fields)

    @classmethod
    def from_header(cls, header: dict) -> "RunSpec":
        """The run a journal header, corpus row or trend result names."""
        return cls.from_entry(header.get("workload"), header.get("engine"), header)

    def stamp(self, payload: dict) -> dict:
        """``payload`` plus the exchange fields that differ from the defaults,
        so ``diff`` and ``explain`` never compare across configurations."""
        for name, _mark in _MARKS:
            if getattr(self, name) != getattr(RunSpec, name):
                payload[name] = getattr(self, name)
        return payload

    @property
    def engine_label(self) -> str:
        """``engine[@fabric][+partitioner]``, defaults omitted: the engine
        column of views, ``diff`` rows and trend series."""
        stamped = self.stamp({})
        return self.engine + "".join(
            mark + stamped[name] for name, mark in _MARKS if name in stamped
        )

    def __str__(self) -> str:
        return f"{self.workload}:{self.engine_label}"
