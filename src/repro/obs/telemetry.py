"""Cluster telemetry: per-node resource timelines, traffic matrix, skew.

The paper's §5 explanations are resource-timeline arguments — HAMR wins
where Hadoop is disk-bound during startup/shuffle and loses
HistogramRatings to atomic contention. This module provides the
measurement substrate for those arguments:

* :class:`TimelineSampler` — per-node counter tracks over *virtual* time
  (CPU-slot occupancy, disk busy, NIC tx/rx bytes, memory used/pressure
  watermarks, flow-control queue depth), fed by observer hooks on the sim
  resources and binned into deterministic node × time heatmaps;
* :class:`TrafficMatrix` — N×N per-job exchange accounting (bytes and
  payload counts per src-node → dst-node edge, split by
  shuffle/local/broadcast mode), charged where the dataplane resolves
  ``exchange_targets``;
* :class:`SkewReport` — per-partition / per-node imbalance statistics
  (max/mean ratio, coefficient of variation, straggler identification)
  computed from the timelines and the matrix.

Everything is deterministic: identical runs serialize to byte-identical
JSON, which is what lets the bench drift gate cover shuffle volume.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.common.units import format_bytes
from repro.obs.columns import Column

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

TELEMETRY_SCHEMA = "repro.obs.telemetry/v1"

#: exchange modes (string values match ``repro.dataplane.exchange``)
MODE_SHUFFLE = "shuffle"
MODE_LOCAL = "local"
MODE_BROADCAST = "broadcast"
MODES = (MODE_SHUFFLE, MODE_LOCAL, MODE_BROADCAST)

# -- timeline tracks ---------------------------------------------------------------

CPU = "cpu"  # busy worker-thread slots (step; heat = time-weighted mean)
DISK = "disk"  # striped-disk busy seconds (rate; heat = busy fraction)
NIC_TX = "nic_tx"  # NIC egress bytes (rate; heat = bytes per bin)
NIC_RX = "nic_rx"  # NIC ingress bytes (rate; heat = bytes per bin)
MEM_USED = "mem_used"  # memory-account resident bytes (step; heat = watermark)
MEM_PRESSURE = "mem_pressure"  # used/budget fraction (step; heat = watermark)
QUEUE = "queue"  # flow-control inbox depth, logical bytes (step; watermark)

#: track -> binning kind: "mean" integrates the step function over each
#: bin; "max" takes the bin's watermark (carry-in value included); "rate"
#: spreads each interval's weight proportionally over the bins it covers.
TRACK_KINDS = {
    CPU: "mean",
    DISK: "rate",
    NIC_TX: "rate",
    NIC_RX: "rate",
    MEM_USED: "max",
    MEM_PRESSURE: "max",
    QUEUE: "max",
}

#: render / export order
TRACK_ORDER = (CPU, DISK, NIC_TX, NIC_RX, MEM_USED, MEM_PRESSURE, QUEUE)

TRACK_TITLES = {
    CPU: "CPU slot occupancy (mean busy slots per bin)",
    DISK: "disk busy (busy-seconds per bin, all stripes)",
    NIC_TX: "NIC egress (bytes per bin)",
    NIC_RX: "NIC ingress (bytes per bin)",
    MEM_USED: "memory resident watermark (bytes)",
    MEM_PRESSURE: "memory pressure watermark (fraction of budget)",
    QUEUE: "flow-control inbox depth watermark (logical bytes)",
}

#: default number of time bins for heatmaps and JSON export
DEFAULT_BINS = 60

#: glyph ramp for heat cells, cold to hot (index 0 = exactly idle)
HEAT_RAMP = " .:-=+*#%@"


def heat_glyph(value: float, peak: float) -> str:
    """Map a bin value onto the heat ramp (deterministic, peak-normalized)."""
    if value <= 0.0 or peak <= 0.0:
        return HEAT_RAMP[0]
    frac = min(1.0, value / peak)
    return HEAT_RAMP[1 + min(len(HEAT_RAMP) - 2, int(frac * (len(HEAT_RAMP) - 1)))]


class TimelineSampler:
    """Per-node counter tracks over virtual time.

    Step tracks record ``(time, level)`` samples via observer hooks on the
    sim resources (thread pools, memory accounts, inboxes); rate tracks
    record ``(start, finish, weight)`` intervals from bandwidth devices
    (disks, NICs). ``binned``/``to_dict`` turn either into fixed-width
    time bins for heatmaps and byte-deterministic JSON export.
    """

    def __init__(self, sim: "Simulator", enabled: bool = False, journal=None):
        self.sim = sim
        self.enabled = enabled
        #: optional journal writer: every sample is recorded as emitted
        self._journal = journal
        #: (track, node) -> (time, level) columns — collapsed per instant
        self._steps: dict[tuple[str, int], tuple[Column, Column]] = {}
        #: (track, node) -> (start, finish, weight) columns
        self._intervals: dict[tuple[str, int], tuple[Column, Column, Column]] = {}
        #: (track, node) -> running level for delta-fed step tracks
        self._levels: dict[tuple[str, int], float] = {}
        #: (track, node) -> capacity used to normalize heat (threads, budget, ndisks)
        self._capacity: dict[tuple[str, int], float] = {}

    # -- recording ---------------------------------------------------------------

    def record_step(self, track: str, node: int, time: float, value: float) -> None:
        if not self.enabled:
            return
        if self._journal is not None:
            self._journal.emit(
                {"t": "tls", "tr": track, "nd": node, "tm": time, "v": value}
            )
        columns = self._steps.get((track, node))
        if columns is None:
            columns = self._steps[(track, node)] = (Column("d"), Column("d"))
        times, levels = columns
        if type(time) is not float or type(value) is not float:
            self._record_step_slow(times, levels, time, value)
            return
        # a float fits a "d" column's storage (array or list) as it is
        data = times.data
        if data and data[-1] == time:
            data[-1] = time
            levels.data[-1] = value
        else:
            data.append(time)
            levels.data.append(value)

    @staticmethod
    def _record_step_slow(times: Column, levels: Column, time, value) -> None:
        if times.data and times.data[-1] == time:
            times[-1] = time
            levels[-1] = value
        else:
            times.append(time)
            levels.append(value)

    def record_interval(
        self, track: str, node: int, start: float, finish: float, weight: float
    ) -> None:
        if not self.enabled:
            return
        if self._journal is not None:
            self._journal.emit(
                {"t": "tli", "tr": track, "nd": node, "t0": start, "t1": finish,
                 "w": weight}
            )
        columns = self._intervals.get((track, node))
        if columns is None:
            columns = self._intervals[(track, node)] = (Column("d"), Column("d"), Column("d"))
        if type(start) is float and type(finish) is float and type(weight) is float:
            # a float fits a "d" column's storage (array or list) as it is
            columns[0].data.append(start)
            columns[1].data.append(finish)
            columns[2].data.append(weight)
        else:
            columns[0].append(start)
            columns[1].append(finish)
            columns[2].append(weight)

    def set_capacity(self, track: str, node: int, capacity: float) -> None:
        if self._journal is not None:
            self._journal.emit(
                {"t": "tlc", "tr": track, "nd": node, "op": "set", "v": capacity}
            )
        self._capacity[(track, node)] = capacity

    def add_capacity(self, track: str, node: int, capacity: float) -> None:
        if self._journal is not None:
            self._journal.emit(
                {"t": "tlc", "tr": track, "nd": node, "op": "add", "v": capacity}
            )
        key = (track, node)
        self._capacity[key] = self._capacity.get(key, 0.0) + capacity

    # -- observer factories (what the cluster wires onto resources) ---------------

    def step_observer(self, track: str, node: int) -> Callable[[float, float], None]:
        """For hooks reporting ``(now, level)`` (e.g. ``Resource.observer``)."""

        def observe(now: float, level: float) -> None:
            self.record_step(track, node, now, level)

        return observe

    def depth_observer(self, track: str, node: int) -> Callable[[float, float], None]:
        """For hooks reporting ``(now, delta)`` — aggregates several queues
        on one node into a single running depth track."""
        key = (track, node)

        def observe(now: float, delta: float) -> None:
            level = self._levels.get(key, 0.0) + delta
            self._levels[key] = level
            self.record_step(track, node, now, level)

        return observe

    def busy_observer(self, track: str, node: int):
        """For ``BandwidthResource.observer`` hooks: weight = busy seconds."""

        def observe(start: float, finish: float, _nbytes: float) -> None:
            self.record_interval(track, node, start, finish, finish - start)

        return observe

    def bytes_observer(self, track: str, node: int):
        """For ``BandwidthResource.observer`` hooks: weight = bytes moved."""

        def observe(start: float, finish: float, nbytes: float) -> None:
            self.record_interval(track, node, start, finish, nbytes)

        return observe

    # -- queries -----------------------------------------------------------------

    def steps(self, track: str, node: int) -> list[tuple]:
        """One step track's ``(time, level)`` samples."""
        columns = self._steps.get((track, node))
        return list(zip(columns[0].data, columns[1].data)) if columns else []

    def intervals(self, track: str, node: int) -> list[tuple]:
        """One rate track's ``(start, finish, weight)`` intervals."""
        columns = self._intervals.get((track, node))
        return list(zip(*(c.data for c in columns))) if columns else []

    def tracks(self) -> list[str]:
        """Recorded track names in canonical render order."""
        seen = {t for t, _n in self._steps} | {t for t, _n in self._intervals}
        ordered = [t for t in TRACK_ORDER if t in seen]
        return ordered + sorted(seen - set(TRACK_ORDER))

    def nodes(self, track: Optional[str] = None) -> list[int]:
        keys = list(self._steps) + list(self._intervals)
        return sorted({n for t, n in keys if track is None or t == track})

    def capacity(self, track: str, node: int) -> Optional[float]:
        return self._capacity.get((track, node))

    def level_total(self, track: str) -> float:
        """Sum of a step track's *current* running levels over all nodes
        (e.g. total flow-control inbox bytes right now)."""
        return sum(
            level for (t, _node), level in self._levels.items() if t == track
        )

    def busy_seconds(self, track: str, node: int, t_end: Optional[float] = None) -> float:
        """Exact time-integral of a step track (e.g. CPU busy-slot seconds)."""
        end = self.sim.now if t_end is None else t_end
        total = 0.0
        prev_t, prev_v = 0.0, 0.0
        for t, v in self.steps(track, node):
            if t >= end:
                break
            total += prev_v * (t - prev_t)
            prev_t, prev_v = t, v
        total += prev_v * (end - prev_t)
        return total

    # -- binning -----------------------------------------------------------------

    def binned(
        self, track: str, node: int, bins: int = DEFAULT_BINS, t_end: Optional[float] = None
    ) -> list[float]:
        """One node's track as ``bins`` fixed-width time-bin values."""
        if bins <= 0:
            raise ValueError(f"bins must be positive: {bins}")
        end = self.sim.now if t_end is None else t_end
        if end <= 0:
            return [0.0] * bins
        kind = TRACK_KINDS.get(track, "max")
        if kind == "rate":
            return self._bin_intervals(self.intervals(track, node), bins, end)
        return self._bin_steps(self.steps(track, node), bins, end, kind)

    @staticmethod
    def _bin_steps(
        samples: list[tuple[float, float]], bins: int, t_end: float, kind: str
    ) -> list[float]:
        width = t_end / bins
        out = [0.0] * bins
        prev_t, prev_v = 0.0, 0.0
        segments = [(t, v) for t, v in samples] + [(t_end, 0.0)]
        for t, v in segments:
            a, b = prev_t, min(t, t_end)
            if b > a and prev_v != 0.0:
                first = min(bins - 1, int(a / width))
                last = min(bins - 1, int(b / width) if b % width or b == 0 else int(b / width) - 1)
                for i in range(first, last + 1):
                    if kind == "mean":
                        lo, hi = max(a, i * width), min(b, (i + 1) * width)
                        if hi > lo:
                            out[i] += prev_v * (hi - lo) / width
                    else:  # watermark
                        out[i] = max(out[i], prev_v)
            prev_t, prev_v = t, v
            if prev_t >= t_end:
                break
        return out

    @staticmethod
    def _bin_intervals(
        intervals: list[tuple[float, float, float]], bins: int, t_end: float
    ) -> list[float]:
        width = t_end / bins
        out = [0.0] * bins
        for start, finish, weight in intervals:
            a, b = max(0.0, start), min(finish, t_end)
            if weight <= 0.0 or a >= t_end:
                continue
            if b <= a:  # instantaneous (or fully clipped): charge one bin
                out[min(bins - 1, int(a / width))] += weight
                continue
            span = finish - start if finish > start else b - a
            first = min(bins - 1, int(a / width))
            last = min(bins - 1, int(b / width))
            for i in range(first, last + 1):
                lo, hi = max(a, i * width), min(b, (i + 1) * width)
                if hi > lo:
                    out[i] += weight * (hi - lo) / span
        return out

    # -- export ------------------------------------------------------------------

    def to_dict(self, bins: int = DEFAULT_BINS, t_end: Optional[float] = None) -> dict:
        """Deterministic JSON-serializable dump of every recorded track."""
        end = self.sim.now if t_end is None else t_end
        tracks = {}
        for track in self.tracks():
            nodes = {}
            for node in self.nodes(track):
                nodes[str(node)] = self.binned(track, node, bins=bins, t_end=end)
            tracks[track] = {"kind": TRACK_KINDS.get(track, "max"), "nodes": nodes}
        return {
            "bins": bins,
            "t_end": end,
            "tracks": tracks,
            "capacity": {
                f"{track}/{node}": cap
                for (track, node), cap in sorted(self._capacity.items())
            },
        }


class TrafficMatrix:
    """N×N per-job exchange accounting, split by exchange mode.

    Charged where the dataplane resolves ``exchange_targets`` (and at the
    Hadoop engine's pull-based fetch, which plays the same role): every
    sealed payload adds its modeled wire bytes and one payload count to
    the ``src_node -> dst_node`` edge. Shuffle charges also record
    per-partition bytes/records for skew analysis.
    """

    def __init__(self, job: Optional[str] = None, journal=None, racks=None):
        self.job = job or ""
        self._journal = journal
        #: optional node-id → rack map: with rack structure configured,
        #: ``totals()`` additionally gates ``inter_rack_bytes`` (the
        #: number rack-aware fabrics exist to shrink). None — the
        #: default — keeps the drift-gated key set exactly as before.
        self.racks = racks
        #: (src, dst) -> [bytes, payloads, records]
        self._edges: dict[tuple[int, int], list[float]] = {}
        #: mode -> [bytes, payloads]
        self._modes: dict[str, list[float]] = {}
        #: partition -> [bytes, records] (shuffle payloads only)
        self._partitions: dict[int, list[float]] = {}

    def charge(
        self,
        src_node: int,
        dst_node: int,
        nbytes: float,
        *,
        records: int = 0,
        mode: str = MODE_SHUFFLE,
        partition: Optional[int] = None,
    ) -> None:
        if nbytes < 0:
            raise ValueError(f"negative traffic charge: {nbytes}")
        if mode not in MODES:
            raise ValueError(f"unknown exchange mode {mode!r}; pick from {MODES}")
        if self._journal is not None:
            record = {
                "t": "x", "j": self.job, "s": src_node, "d": dst_node,
                "v": nbytes, "r": records, "m": mode,
            }
            if partition is not None:
                record["p"] = partition
            self._journal.emit(record)
        edge = self._edges.setdefault((src_node, dst_node), [0.0, 0, 0])
        edge[0] += nbytes
        edge[1] += 1
        edge[2] += records
        by_mode = self._modes.setdefault(mode, [0.0, 0])
        by_mode[0] += nbytes
        by_mode[1] += 1
        if partition is not None and mode == MODE_SHUFFLE:
            part = self._partitions.setdefault(partition, [0.0, 0])
            part[0] += nbytes
            part[1] += records

    # -- queries -----------------------------------------------------------------

    def nodes(self) -> list[int]:
        return sorted({n for edge in self._edges for n in edge})

    def edge_bytes(self, src: int, dst: int) -> float:
        return self._edges.get((src, dst), [0.0, 0, 0])[0]

    def tx_bytes(self, node: int) -> float:
        return sum(e[0] for (s, _d), e in self._edges.items() if s == node)

    def rx_bytes(self, node: int) -> float:
        return sum(e[0] for (_s, d), e in self._edges.items() if d == node)

    @property
    def total_bytes(self) -> float:
        return sum(e[0] for e in self._edges.values())

    @property
    def remote_bytes(self) -> float:
        return sum(e[0] for (s, d), e in self._edges.items() if s != d)

    @property
    def inter_rack_bytes(self) -> float:
        """Bytes that crossed a rack boundary (0.0 without rack structure)."""
        racks = self.racks
        if not racks:
            return 0.0
        return sum(
            e[0]
            for (s, d), e in self._edges.items()
            if s != d and racks.get(s) != racks.get(d)
        )

    @property
    def payloads(self) -> int:
        return int(sum(e[1] for e in self._edges.values()))

    @property
    def records(self) -> int:
        return int(sum(e[2] for e in self._edges.values()))

    def mode_bytes(self, mode: str) -> float:
        return self._modes.get(mode, [0.0, 0])[0]

    def partition_records(self) -> dict[int, float]:
        return {p: v[1] for p, v in sorted(self._partitions.items())}

    def partition_bytes(self) -> dict[int, float]:
        return {p: v[0] for p, v in sorted(self._partitions.items())}

    def totals(self) -> dict[str, float]:
        """The drift-gated summary (every key gates in the bench diff)."""
        out = {
            "total_bytes": self.total_bytes,
            "remote_bytes": self.remote_bytes,
            "payloads": float(self.payloads),
            "records": float(self.records),
        }
        for mode in MODES:
            out[f"{mode}_bytes"] = self.mode_bytes(mode)
        if self.racks:
            # Only under a configured rack topology: the default key set
            # (and hence the committed bench artifacts) is unchanged.
            out["inter_rack_bytes"] = self.inter_rack_bytes
        return {key: round(value, 6) for key, value in out.items()}

    def to_dict(self) -> dict:
        return {
            "job": self.job,
            "nodes": self.nodes(),
            "edges": [
                [src, dst, round(e[0], 6), int(e[1]), int(e[2])]
                for (src, dst), e in sorted(self._edges.items())
            ],
            "modes": {
                mode: {"bytes": round(v[0], 6), "payloads": int(v[1])}
                for mode, v in sorted(self._modes.items())
            },
            "partitions": {
                str(p): {"bytes": round(v[0], 6), "records": int(v[1])}
                for p, v in sorted(self._partitions.items())
            },
            "totals": self.totals(),
        }


def merge_traffic_totals(matrices: list[TrafficMatrix]) -> dict[str, float]:
    """Sum the drift-gated totals over a run's per-job matrices."""
    keys = ["total_bytes", "remote_bytes", "payloads", "records"] + [
        f"{mode}_bytes" for mode in MODES
    ]
    merged = {key: 0.0 for key in keys}
    for matrix in matrices:
        for key, value in matrix.totals().items():
            merged[key] = merged.get(key, 0.0) + value
    return {key: round(value, 6) for key, value in merged.items()}


# -- skew ---------------------------------------------------------------------------


def skew_stats(values: dict[Any, float]) -> dict:
    """Imbalance statistics over a labelled value set.

    ``max_mean_ratio`` is the classic straggler indicator (1.0 = perfectly
    balanced); ``cv`` is the population coefficient of variation.
    """
    if not values:
        return {"n": 0, "mean": 0.0, "max": 0.0, "max_mean_ratio": 0.0, "cv": 0.0,
                "argmax": None}
    ordered = sorted(values.items(), key=lambda kv: (repr(kv[0])))
    vals = [v for _k, v in ordered]
    mean = sum(vals) / len(vals)
    peak = max(vals)
    argmax = min((k for k, v in ordered if v == peak), key=repr)
    if mean > 0:
        variance = sum((v - mean) ** 2 for v in vals) / len(vals)
        cv = math.sqrt(variance) / mean
        ratio = peak / mean
    else:
        cv = 0.0
        ratio = 0.0
    return {
        "n": len(vals),
        "mean": mean,
        "max": peak,
        "max_mean_ratio": ratio,
        "cv": cv,
        "argmax": argmax,
    }


#: a node whose busy-time exceeds the mean by this factor is a straggler
STRAGGLER_THRESHOLD = 1.2


class SkewReport:
    """Per-node / per-partition imbalance computed from timelines + matrix."""

    def __init__(
        self,
        sections: dict[str, dict],
        stragglers: list[int],
        threshold: float = STRAGGLER_THRESHOLD,
    ):
        self.sections = sections  # metric name -> {"per": {...}, "stats": {...}}
        self.stragglers = stragglers
        self.threshold = threshold

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "stragglers": list(self.stragglers),
            "sections": {
                name: {
                    "per": {str(k): v for k, v in sorted(
                        section["per"].items(), key=lambda kv: repr(kv[0])
                    )},
                    "stats": {
                        k: (str(v) if k == "argmax" and v is not None else v)
                        for k, v in section["stats"].items()
                    },
                }
                for name, section in sorted(self.sections.items())
            },
        }


def build_skew_report(
    timeline: TimelineSampler,
    matrices: list[TrafficMatrix],
    threshold: float = STRAGGLER_THRESHOLD,
) -> SkewReport:
    """Assemble the skew view of one traced run.

    Sections: per-node CPU busy-seconds (from the timeline), per-node
    tx/rx exchange bytes (matrix row/column sums over every job) and
    per-partition shuffle records (matrix partition ledger).
    """
    sections: dict[str, dict] = {}
    cpu = {
        node: timeline.busy_seconds(CPU, node) for node in timeline.nodes(CPU)
    }
    if cpu:
        sections["cpu_busy_seconds"] = {"per": cpu, "stats": skew_stats(cpu)}
    tx: dict[int, float] = {}
    rx: dict[int, float] = {}
    partitions: dict[int, float] = {}
    for matrix in matrices:
        for node in matrix.nodes():
            tx[node] = tx.get(node, 0.0) + matrix.tx_bytes(node)
            rx[node] = rx.get(node, 0.0) + matrix.rx_bytes(node)
        for part, recs in matrix.partition_records().items():
            partitions[part] = partitions.get(part, 0.0) + recs
    if tx:
        sections["exchange_tx_bytes"] = {"per": tx, "stats": skew_stats(tx)}
        sections["exchange_rx_bytes"] = {"per": rx, "stats": skew_stats(rx)}
    if partitions:
        sections["shuffle_partition_records"] = {
            "per": partitions,
            "stats": skew_stats(partitions),
        }
    stragglers: list[int] = []
    stats = sections.get("cpu_busy_seconds", {}).get("stats")
    if stats and stats["mean"] > 0:
        stragglers = sorted(
            node for node, busy in cpu.items() if busy > threshold * stats["mean"]
        )
    return SkewReport(sections, stragglers, threshold)


# -- rendering ----------------------------------------------------------------------


def render_timeline_heatmap(
    sampler: TimelineSampler,
    bins: int = DEFAULT_BINS,
    t_end: Optional[float] = None,
    tracks: Optional[tuple[str, ...]] = None,
) -> str:
    """ASCII node × time resource heat, one block per track.

    Peak normalization is per track: capacity-bounded tracks (CPU slots,
    memory budget, disk stripes) normalize to capacity so the ramp reads
    as utilization; unbounded tracks (NIC bytes, queue depth) normalize
    to the observed peak.
    """
    end = sampler.sim.now if t_end is None else t_end
    selected = [t for t in (tracks or sampler.tracks())]
    if not selected or end <= 0:
        return "(no telemetry tracks recorded — was the run traced?)"
    sections = []
    width = end / bins
    for track in selected:
        nodes = sampler.nodes(track)
        if not nodes:
            continue
        rows = {node: sampler.binned(track, node, bins=bins, t_end=end) for node in nodes}
        peaks = {}
        for node in nodes:
            cap = sampler.capacity(track, node)
            if cap is not None and TRACK_KINDS.get(track) != "rate":
                peaks[node] = cap
            elif cap is not None and track == DISK:
                peaks[node] = cap * width  # busy-seconds capacity per bin
            else:
                peaks[node] = 0.0
        global_peak = max((max(vals) for vals in rows.values()), default=0.0)
        lines = [
            f"-- {TRACK_TITLES.get(track, track)} — "
            f"t 0.000s .. {end:.3f}s, {bins} bins, peak {global_peak:.6g} --"
        ]
        for node in nodes:
            peak = peaks[node] if peaks[node] > 0 else global_peak
            cells = "".join(heat_glyph(v, peak) for v in rows[node])
            lines.append(f"  n{node:<3}|{cells}|")
        sections.append("\n".join(lines))
    return "\n\n".join(sections) if sections else (
        "(no telemetry tracks recorded — was the run traced?)"
    )


def render_traffic_matrix(matrix: TrafficMatrix) -> str:
    """ASCII N×N src → dst traffic grid plus mode/locality totals."""
    nodes = matrix.nodes()
    title = f"-- traffic matrix — job {matrix.job!r} (src row -> dst col, bytes) --"
    if not nodes:
        return f"{title}\n  (no exchange traffic recorded)"
    peak = max(
        (matrix.edge_bytes(s, d) for s in nodes for d in nodes), default=0.0
    )
    header = "       " + " ".join(f"n{d:<4}" for d in nodes)
    lines = [title, header]
    for src in nodes:
        cells = " ".join(
            f"  {heat_glyph(matrix.edge_bytes(src, dst), peak)}  " for dst in nodes
        )
        lines.append(f"  n{src:<3}|{cells}| tx {format_bytes(matrix.tx_bytes(src))}")
    total = matrix.total_bytes
    remote = matrix.remote_bytes
    remote_pct = 100.0 * remote / total if total else 0.0
    lines.append(
        f"  totals: {format_bytes(total)} in {matrix.payloads} payloads, "
        f"{format_bytes(remote)} remote ({remote_pct:.1f}%)"
    )
    lines.append(
        "  by mode: "
        + ", ".join(
            f"{mode} {format_bytes(matrix.mode_bytes(mode))}" for mode in MODES
        )
    )
    return "\n".join(lines)


def render_skew(report: SkewReport) -> str:
    """Imbalance table: one row per skew section, plus straggler verdict."""
    from repro.evaluation.report import render_table

    if not report.sections:
        return "(no skew statistics — no telemetry recorded)"
    rows = []
    for name, section in sorted(report.sections.items()):
        stats = section["stats"]
        rows.append(
            [
                name,
                stats["n"],
                f"{stats['mean']:.6g}",
                f"{stats['max']:.6g}",
                f"{stats['max_mean_ratio']:.3f}",
                f"{stats['cv']:.3f}",
                str(stats["argmax"]),
            ]
        )
    table = render_table(
        ["metric", "n", "mean", "max", "max/mean", "cv", "argmax"],
        rows,
        title="Skew",
    )
    if report.stragglers:
        verdict = (
            "stragglers (busy > "
            f"{report.threshold:g}x mean): "
            + ", ".join(f"n{n}" for n in report.stragglers)
        )
    else:
        verdict = f"stragglers: none (threshold {report.threshold:g}x mean)"
    return f"{table}\n  {verdict}"
