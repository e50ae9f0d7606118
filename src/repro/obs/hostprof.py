"""Host-time profiler: where the *real* nanoseconds go.

Everything else in ``repro.obs`` reads the virtual clock; this module is
the second clock of the dual-clock design. A :class:`HostProfiler`
attributes ``time.perf_counter_ns`` cost to the same identifiers the
virtual stack already uses — subsystem bucket (``sim-kernel`` /
``engine`` / ``dataplane`` / ``storage``), sim-process label, operator
label matching the span names (``map:words``, ``reduce``, ...) — so host
and modeled cost can be joined per operator (see
:mod:`repro.obs.fidelity`).

Design constraints, in order:

1. **Non-perturbing.** The profiler only ever *reads* the host clock and
   mutates its own counters; it never touches simulation state. Virtual
   results are byte-identical with profiling on or off (asserted by the
   determinism suites). Instrumentation sites therefore only wrap
   *synchronous* code — a scope must never contain a generator ``yield``,
   or suspended host time would be mis-attributed to the frame.
2. **Off by default, near-zero when off.** The kernel tests one
   ``is None`` per dispatch; an instrumentation site gets one shared
   do-nothing scope back from :func:`scope`. Either way the measured
   code has a single body, timed or not.
3. **Exact accounting.** Self/total times use integer nanoseconds and
   telescope: the per-bucket self-times sum *exactly* to the measured
   root total (``sum(buckets.values()) == total_ns``). Frames outside
   this module are only ever opened by ``with``, so a raising body
   cannot leave one on the stack.

To profile a run, attach the profiler to the kernel and make it the
active one for the run's duration (the evaluation runner does both)::

    prof = HostProfiler()
    sim.attach(prof)            # sim-kernel dispatch + process frames
    with activation(prof):      # engine / dataplane / storage scopes
        ...run...

A :class:`HostProfiler` is a :class:`repro.sim.KernelHooks`; the
engines, dataplane and storage have no profiler handle threaded through
and open their frames with the module-level :func:`scope`. Identifiers
with unbounded cardinality (per-task process names like ``wc.map12``)
are collapsed via :func:`normalize_label` (digit runs become ``*``).
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager
from typing import Any, Callable, Optional

from repro.sim.core import KernelHooks

__all__ = [
    "HOSTPROF_SCHEMA",
    "HOST_BUCKETS",
    "SIM_KERNEL",
    "ENGINE",
    "DATAPLANE",
    "STORAGE",
    "HostProfiler",
    "normalize_label",
    "activation",
    "scope",
    "merge_snapshots",
]

HOSTPROF_SCHEMA = "repro.obs.hostprof/v1"

SIM_KERNEL = "sim-kernel"
ENGINE = "engine"
DATAPLANE = "dataplane"
STORAGE = "storage"

#: subsystem buckets, in display order
HOST_BUCKETS = (SIM_KERNEL, ENGINE, DATAPLANE, STORAGE)

_DIGIT_RUN = re.compile(r"\d+")

#: default clock-track sampling stride: one sample per ms of host time
_SAMPLE_INTERVAL_NS = 1_000_000
#: samples are thinned 2x whenever they exceed this cap (bounded memory)
_SAMPLE_CAP = 4096


def normalize_label(name: str) -> str:
    """Collapse digit runs so per-task names don't explode cardinality.

    ``wordcount.map12`` and ``wordcount.map3`` both become
    ``wordcount.map*`` — one aggregation row per process *kind*.
    """
    return _DIGIT_RUN.sub("*", name)


class HostProfiler(KernelHooks):
    """Scoped host-nanosecond accounting with exact self/total telescoping.

    A frame is pushed per instrumented scope; on pop the elapsed host
    nanoseconds are split into *self* (elapsed minus child time) and
    rolled up into a flat view keyed ``(bucket, label)`` and a top-down
    tree keyed by the full frame path. ``clock`` is injectable (tests use
    a fake deterministic timer). Attached to a simulator it frames every
    event dispatch and every process resume.
    """

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        sample_interval_ns: int = _SAMPLE_INTERVAL_NS,
    ):
        self._clock = clock
        # frame: [bucket, label, start_ns, child_ns, path]
        self._stack: list[list[Any]] = []
        # (bucket, label) -> [calls, self_ns, total_ns, records, nbytes]
        self._flat: dict[tuple[str, str], list[int]] = {}
        # path tuple of (bucket, label) -> [calls, self_ns, total_ns]
        self._tree: dict[tuple[tuple[str, str], ...], list[int]] = {}
        self._bucket_self: dict[str, int] = {}
        #: total measured host ns (sum over root frames; buckets sum to this)
        self.total_ns = 0
        # second-clock track: (virtual_time, cumulative_host_ns) samples
        self._samples: list[tuple[float, int]] = []
        self._sample_interval_ns = sample_interval_ns
        self._last_sample_ns = -sample_interval_ns
        # sim-process name -> frame label, so the regex runs once per name
        self._process_labels: dict[str, str] = {}

    # -- kernel hooks ---------------------------------------------------------------

    def dispatch_start(self, now: float, event: Any) -> None:
        self.push(SIM_KERNEL, "dispatch")

    def dispatch_end(self, now: float, event: Any) -> None:
        self.pop()
        self.tick(now)

    def resume_start(self, process: Any) -> None:
        label = self._process_labels.get(process.name)
        if label is None:
            # collapse digit runs so wc.map12 / wc.map3 share one row
            label = "process:" + normalize_label(process.name)
            self._process_labels[process.name] = label
        self.push(ENGINE, label)

    def resume_end(self, process: Any) -> None:
        self.pop()

    # -- hot path -----------------------------------------------------------------

    def push(self, bucket: str, label: str) -> None:
        stack = self._stack
        path = (stack[-1][4] if stack else ()) + ((bucket, label),)
        stack.append([bucket, label, self._clock(), 0, path])

    def pop(self) -> None:
        bucket, label, start, child, path = self._stack.pop()
        elapsed = self._clock() - start
        if elapsed < 0:  # non-monotonic fake clocks in tests
            elapsed = 0
        self_ns = elapsed - child
        if self_ns < 0:
            self_ns = 0
        if self._stack:
            self._stack[-1][3] += elapsed
        else:
            self.total_ns += elapsed
        entry = self._flat.get((bucket, label))
        if entry is None:
            self._flat[(bucket, label)] = [1, self_ns, elapsed, 0, 0]
        else:
            entry[0] += 1
            entry[1] += self_ns
            entry[2] += elapsed
        node = self._tree.get(path)
        if node is None:
            self._tree[path] = [1, self_ns, elapsed]
        else:
            node[0] += 1
            node[1] += self_ns
            node[2] += elapsed
        self._bucket_self[bucket] = self._bucket_self.get(bucket, 0) + self_ns

    def units(self, records: int = 0, nbytes: int = 0) -> None:
        """Attribute work units (real records/bytes) to the current frame.

        The calibration fitter (:mod:`repro.obs.fidelity`) regresses
        host self-ns against these to re-derive cost-model constants.
        """
        if not self._stack:
            return
        bucket, label = self._stack[-1][0], self._stack[-1][1]
        entry = self._flat.get((bucket, label))
        if entry is None:
            entry = self._flat[(bucket, label)] = [0, 0, 0, 0, 0]
        entry[3] += int(records)
        entry[4] += int(nbytes)

    def tick(self, virtual_time: float) -> None:
        """Record a (virtual time, cumulative host ns) clock sample.

        Taken after each event dispatch; strided so a
        long run keeps a bounded, deterministic-size sample track for the
        Chrome/Perfetto second-clock counter.
        """
        if self.total_ns - self._last_sample_ns < self._sample_interval_ns:
            return
        self._last_sample_ns = self.total_ns
        samples = self._samples
        samples.append((virtual_time, self.total_ns))
        if len(samples) > _SAMPLE_CAP:
            del samples[1::2]  # thin 2x, keep endpoints-ish; double stride
            self._sample_interval_ns *= 2

    # -- views --------------------------------------------------------------------

    def bucket_self_ns(self) -> dict[str, int]:
        """Self host-ns per subsystem bucket; sums exactly to total_ns."""
        out = {bucket: self._bucket_self.get(bucket, 0) for bucket in HOST_BUCKETS}
        for bucket in sorted(self._bucket_self):
            if bucket not in out:  # ad-hoc buckets from custom scopes
                out[bucket] = self._bucket_self[bucket]
        return out

    def clock_samples(self) -> list[tuple[float, int]]:
        return list(self._samples)

    def snapshot(self) -> dict:
        """Deterministic JSON-ready aggregate (schema ``repro.obs.hostprof/v1``).

        Determinism caveat: *which* rows exist and all call/record counts
        are run-deterministic; the nanosecond values are host noise unless
        a fake clock is injected. Consumers that gate must gate on shares
        or counts, never raw ns.
        """
        buckets = self.bucket_self_ns()
        flat = [
            {
                "bucket": bucket,
                "label": label,
                "calls": entry[0],
                "self_ns": entry[1],
                "total_ns": entry[2],
                "records": entry[3],
                "nbytes": entry[4],
            }
            for (bucket, label), entry in sorted(self._flat.items())
        ]
        tree = [
            {
                "path": ["/".join(frame) for frame in path],
                "depth": len(path),
                "calls": node[0],
                "self_ns": node[1],
                "total_ns": node[2],
            }
            for path, node in sorted(self._tree.items())
        ]
        total = self.total_ns
        return {
            "schema": HOSTPROF_SCHEMA,
            "total_ns": total,
            "buckets": buckets,
            "shares": {
                bucket: (round(ns / total, 6) if total else 0.0)
                for bucket, ns in buckets.items()
            },
            "flat": flat,
            "tree": tree,
            "clock": [[t, ns] for t, ns in self._samples],
        }


# -- module-global active profiler ------------------------------------------------
#
# Engine, dataplane and storage hot paths have no tracer handle threaded
# through; they open frames on whichever profiler is active here. ``None``
# (the default) costs a site one global read and a shared no-op scope.

_ACTIVE: Optional[HostProfiler] = None


@contextmanager
def activation(prof: Optional[HostProfiler]):
    """Make ``prof`` the profiler that :func:`scope` frames land on,
    restoring the previous one on exit. ``None`` is accepted and means
    "unprofiled", so a caller needs no fork of its own."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, prof
    try:
        yield prof
    finally:
        _ACTIVE = previous


@contextmanager
def _frame(prof: HostProfiler, bucket: str, label: str, records: int, nbytes: int):
    prof.push(bucket, label)
    prof.units(records, nbytes)
    try:
        yield prof  # its units() lands on this frame: it is the top one
    finally:
        prof.pop()


class _NullScope:
    """What :func:`scope` hands out while no profiler is active: a
    context manager whose ``as`` target also takes (and drops) units."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc):
        return False

    def units(self, records: int = 0, nbytes: int = 0) -> None:
        pass


_NULL_SCOPE = _NullScope()


def scope(bucket: str, kind: str, name: str = "", records: int = 0, nbytes: int = 0):
    """Context manager framing one synchronous section as ``kind[:name]``.

    The one way code outside ``repro.obs`` opens a profiler frame. The
    body must not contain a generator ``yield`` (design constraint 1).
    ``records``/``nbytes`` are the section's work units; a site that
    learns them only afterwards calls ``units()`` on the ``as`` target
    instead. With no profiler active this returns a shared do-nothing
    scope and never formats the label.
    """
    prof = _ACTIVE
    if prof is None:
        return _NULL_SCOPE
    return _frame(prof, bucket, f"{kind}:{name}" if name else kind, records, nbytes)


# -- snapshot arithmetic -----------------------------------------------------------


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Pool several v1 snapshots (e.g. across workloads) into one.

    Flat rows merge by (bucket, label); the tree and clock track are
    dropped (they are per-run views). Used by ``calibrate`` to fit over
    a whole fleet of measured runs.
    """
    flat: dict[tuple[str, str], list[int]] = {}
    buckets: dict[str, int] = {bucket: 0 for bucket in HOST_BUCKETS}
    total = 0
    for snap in snapshots:
        if snap.get("schema") != HOSTPROF_SCHEMA:
            raise ValueError(
                f"cannot merge snapshot with schema {snap.get('schema')!r}"
            )
        total += snap["total_ns"]
        for bucket, ns in snap["buckets"].items():
            buckets[bucket] = buckets.get(bucket, 0) + ns
        for row in snap["flat"]:
            key = (row["bucket"], row["label"])
            entry = flat.setdefault(key, [0, 0, 0, 0, 0])
            entry[0] += row["calls"]
            entry[1] += row["self_ns"]
            entry[2] += row["total_ns"]
            entry[3] += row["records"]
            entry[4] += row["nbytes"]
    return {
        "schema": HOSTPROF_SCHEMA,
        "total_ns": total,
        "buckets": buckets,
        "shares": {
            bucket: (round(ns / total, 6) if total else 0.0)
            for bucket, ns in buckets.items()
        },
        "flat": [
            {
                "bucket": bucket,
                "label": label,
                "calls": entry[0],
                "self_ns": entry[1],
                "total_ns": entry[2],
                "records": entry[3],
                "nbytes": entry[4],
            }
            for (bucket, label), entry in sorted(flat.items())
        ],
        "tree": [],
        "clock": [],
    }
