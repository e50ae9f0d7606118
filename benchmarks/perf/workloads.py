"""The six benchmark workloads: build (set-up), run (timed), check (untimed).

A workload sees only ``workload_by_name(app, fidelity, seed=SEED)`` —
the seed goes nowhere else — and the program sees only the generated
records. ``run`` is what a pass times; ``check`` compares its output
with the app's ``reference()`` and returns the pass's virtual-clock
values, which must equal ``golden.json`` at seed 0 and each other at any
seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

from repro.apps import kmeans, naive_bayes, wordcount
from repro.evaluation.__main__ import main as cli_main
from repro.evaluation.obsreport import render_report
from repro.evaluation.runner import run_workload
from repro.evaluation.workloads import workload_by_name
from repro.obs.journal import (
    JournalWriter,
    encode_record,
    journal_open,
    seed_bucket_slowdown,
)

SEEDED_BUCKET = "network"

_REFERENCE = {
    "wordcount": lambda w: wordcount.reference(w.records),
    "naive_bayes": lambda w: naive_bayes.reference(w.records),
    "kmeans": lambda w: kmeans.reference(w.records, w.params.k),
}


def journaled_run(workload, fidelity, profile=False):
    """One HAMR run with an in-memory journal, the way the CLI records it."""
    return run_workload(
        workload, engines="hamr", profile=profile,
        journal=lambda _engine: JournalWriter(meta={"fidelity": fidelity}),
    )


class EngineWorkload:
    """One app on one engine, observers off unless ``journal`` is set."""

    def __init__(self, name, app, engine, journal=False):
        self.name, self.app, self.engine, self.journal = name, app, engine, journal
        self.items_label = "input records"

    def build(self, seed, fidelity, workdir, tracer):
        self.fidelity = fidelity
        self.workload = workload_by_name(self.app, fidelity, seed=seed)
        self.items = len(self.workload.records)
        self.journal_path = os.path.join(workdir, f"{self.name}.journal.jsonl")
        self.journal_bytes = 0
        self.expected = None
        # the layer boundaries the harness can see from outside the program
        wl = self.workload
        wl.fresh_env = tracer.wrap("evaluation.fresh_env", wl.fresh_env)
        runner = "run_hamr" if self.engine == "hamr" else "run_hadoop"
        setattr(wl, runner, tracer.wrap("apps.run", getattr(wl, runner)))
        self.tracer = tracer

    def run(self, profile=False):
        if not self.journal:
            return run_workload(self.workload, engines=self.engine, profile=profile)
        row = journaled_run(self.workload, self.fidelity, profile=profile)
        with self.tracer.span("obs.journal.save"):
            row.hamr_journal.save(self.journal_path)
        self.journal_bytes = os.path.getsize(self.journal_path)
        return row

    def check(self, row):
        result = row.hamr_result if self.engine == "hamr" else row.hadoop_result
        with self.tracer.span("apps.reference_check"):
            if self.expected is None:
                self.expected = _REFERENCE[self.app](self.workload)
            errors = [] if result.output == self.expected else ["output != reference()"]
        virtual = {"makespan": result.makespan, **result.metrics}
        if self.journal:
            virtual["journal_events"] = row.hamr_journal.events
        return errors, virtual

    def hostprof_shares(self, row):
        return (row.hamr_hostprof if self.engine == "hamr" else row.hadoop_hostprof)["shares"]


class Diagnose:
    """The obs read side: four CLI steps over journals written in set-up.

    ``J_big`` is the wordcount:hamr journal, ``J_mid`` naive_bayes:hamr,
    ``J_mid_slow`` J_mid with network work taking 1.5x. Exact dilation
    stays on J_mid and in the slow-down direction: on J_big it costs
    25-28 s per call (``dilate_bucket_charges.remap`` scans every
    insertion point per timestamp).
    """

    name = "diagnose"
    items_label = "journal events read"

    def build(self, seed, fidelity, workdir, tracer):
        self.tracer = tracer
        self.paths = {
            key: os.path.join(workdir, f"{key}.journal.jsonl")
            for key in ("big", "mid", "mid_slow")
        }
        self.json_path = os.path.join(workdir, "step.json")
        self.makespan, self.events = {}, {}
        for key, app in (("big", "wordcount"), ("mid", "naive_bayes")):
            row = journaled_run(workload_by_name(app, fidelity, seed=seed), fidelity)
            writer = row.hamr_journal
            writer.save(self.paths[key])
            self.makespan[key] = row.hamr_seconds
            self.events[key] = len(writer.lines)
            if key == "big":
                # the live `report` command's heading, which replay must reproduce
                title = (
                    f"== {row.label} ({row.data_size}) on hamr — "
                    f"makespan {row.hamr_seconds:.3f}s =="
                )
                self.live_report = render_report(
                    row.hamr_obs, title=title, trace_dropped=row.hamr_trace_dropped
                )
            else:
                slow = seed_bucket_slowdown(writer.records, SEEDED_BUCKET, 1.5)
                with journal_open(self.paths["mid_slow"], "w") as fh:
                    fh.writelines(encode_record(rec) + "\n" for rec in slow)
                self.events["mid_slow"] = len(slow)
        big, mid, slow = (self.paths[k] for k in ("big", "mid", "mid_slow"))
        #: (span name, argv, journals the step decodes)
        self.steps = (
            ("evaluation.cli.replay", ["replay", big], ("big",)),
            ("evaluation.cli.whatif_nodes", ["whatif", big, "--scenario", "nodes=8"], ("big",)),
            ("evaluation.cli.whatif_network", ["whatif", mid, "--scenario", "network=0.5"], ("mid",)),
            ("evaluation.cli.doctor", ["doctor", mid, slow], ("mid", "mid_slow")),
        )
        reads = [key for _span, _argv, keys in self.steps for key in keys]
        self.items = sum(self.events[key] for key in reads)
        self.journal_bytes = sum(os.path.getsize(self.paths[key]) for key in reads)
        #: the small-fidelity naive_bayes:hamr journal the obs probes can reuse
        self.probe_journal = mid

    def run(self, profile=False):
        outputs = []
        for span, argv, _reads in self.steps:
            wants_json = argv[0] != "replay"  # replay is checked on its text
            if wants_json:
                argv = argv + ["--json", self.json_path]
            out, err = io.StringIO(), io.StringIO()
            with self.tracer.span(span), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
            payload = None
            if wants_json and code == 0:
                with open(self.json_path) as fh:
                    payload = json.load(fh)
            outputs.append((code, out.getvalue(), payload))
        return outputs

    def check(self, outputs):
        errors = [f"step {i} exited {code}" for i, (code, _o, _p) in enumerate(outputs) if code]
        if errors:
            return errors, {}
        (_c, replayed, _p), (_c, _o, nodes), (_c, _o, network), (_c, _o, doctor) = outputs
        if replayed != self.live_report + "\n\n":
            errors.append("replay J_big != the live run's report")
        virtual = {"big.events": self.events["big"], "mid.events": self.events["mid"]}
        for label, key, payload in (("nodes", "big", nodes), ("network", "mid", network)):
            # the identity scenario is the journal's own makespan: the model
            # must hand back exactly what the live run recorded
            if payload["base_makespan"] != self.makespan[key]:
                errors.append(f"whatif {label}: base makespan != recorded makespan")
            scenario = payload["scenarios"][0]
            for field in ("predicted", "optimistic", "pessimistic"):
                value = scenario[field]
                if not (math.isfinite(value) and value > 0):
                    errors.append(f"whatif {label}: {field} = {value}")
            virtual[f"{key}.makespan"] = payload["base_makespan"]
            virtual[f"whatif.{label}.predicted"] = scenario["predicted"]
        top = doctor["verdicts"][0]["bucket"] if doctor["verdicts"] else None
        if top != SEEDED_BUCKET:
            errors.append(f"doctor's top verdict is {top!r}, seeded {SEEDED_BUCKET!r}")
        virtual["doctor.makespan_b"] = doctor["b"]["makespan"]
        return errors, virtual


def make(name):
    return {
        "wc_hamr": lambda: EngineWorkload(name, "wordcount", "hamr"),
        "wc_hadoop": lambda: EngineWorkload(name, "wordcount", "hadoop"),
        "nb_hamr": lambda: EngineWorkload(name, "naive_bayes", "hamr"),
        "kmeans_hadoop": lambda: EngineWorkload(name, "kmeans", "hadoop"),
        "wc_hamr_journal": lambda: EngineWorkload(name, "wordcount", "hamr", journal=True),
        "diagnose": Diagnose,
    }[name]()
