"""Live run monitoring: virtual-time progress, ETA, flow gauges, watchdog.

:class:`LiveMonitor` is a :class:`repro.sim.KernelHooks` observer
(``sim.attach(monitor)`` — the kernel never imports this module). After
every dispatched event it looks at the clock; when virtual time crosses
the next frame boundary it captures a dashboard frame: per-stage
completion fractions from the engines' ``progress.total`` /
``progress.done`` metrics, an ETA projection, flow-control gauges (stall
events, stall blame, inbox depth) and a watchdog verdict.

The monitor is strictly **read-only** against the run: it never schedules
events, never touches the virtual clock, and only *reads* tracer state —
a run with monitoring on is virtual-clock byte-identical to one with it
off. Frames are journaled as ``fr`` records (config as ``wcfg``), so
``replay --view watch`` re-renders the dashboard byte-identically, and
:func:`repro.obs.journal.seed_bucket_slowdown` can dilate frame times and
recompute watchdog verdicts on the slowed timeline.

The watchdog flags a frame STALLED when no tracked progress counter
(spans opened/closed, stage work declared/completed) has advanced for at
least ``window`` virtual seconds. With an SLO spec attached (see
:mod:`repro.obs.slo`) frames escalate to SLO_BREACH as soon as a live
objective (makespan budget, stall share, traffic ceiling) is violated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.obs.blame import STALL
from repro.obs.telemetry import QUEUE
from repro.sim.core import KernelHooks

#: schema tag for the ``watch`` CLI's JSON payload
LIVE_SCHEMA = "repro.obs.live/v1"

#: watchdog / escalation statuses, in increasing terminal-ness
STATUS_RUNNING = "RUNNING"
STATUS_BREACH = "SLO_BREACH"
STATUS_STALLED = "STALLED"
STATUS_DONE = "DONE"

#: default frame spacing (virtual seconds)
DEFAULT_INTERVAL = 25.0
#: default watchdog stall window (virtual seconds); must comfortably
#: exceed the longest quiet gap of any clean tier-1 workload
DEFAULT_WINDOW = 300.0


@dataclass(frozen=True)
class WatchConfig:
    """Live-monitoring knobs (all in virtual seconds)."""

    interval: float = DEFAULT_INTERVAL
    window: float = DEFAULT_WINDOW


def watchdog_statuses(frames: list[dict], window: float) -> list[dict]:
    """(Re)compute each frame's watchdog ``status`` in place.

    A pure fold over ``(tm, adv, br, fin)``: a frame is STALLED when at
    least ``window`` virtual seconds passed since the last frame whose
    progress vector advanced (run start counts as an advance). This is
    exactly the live monitor's verdict, so it can re-run after
    ``seed_bucket_slowdown`` remaps frame times.
    """
    last_advance = 0.0
    for frame in frames:
        stalled = window > 0 and (frame["tm"] - last_advance) >= window
        if frame.get("adv"):
            last_advance = frame["tm"]
        if stalled:
            frame["status"] = STATUS_STALLED
        elif frame.get("br"):
            frame["status"] = STATUS_BREACH
        elif frame.get("fin"):
            frame["status"] = STATUS_DONE
        else:
            frame["status"] = STATUS_RUNNING
    return frames


def refresh_frame_projections(frames: list[dict], window: float) -> list[dict]:
    """Recompute the time-derived frame fields (``eta``, ``status``)
    after frame times were remapped onto a dilated timeline."""
    for frame in frames:
        frac = frame.get("frac", 0.0)
        if frac > 0:
            frame["eta"] = round(frame["tm"] / frac, 6)
        else:
            frame.pop("eta", None)
    return watchdog_statuses(frames, window)


class LiveMonitor(KernelHooks):
    """Virtual-time progress engine for one engine run.

    Attach with ``env.cluster.sim.attach(monitor)`` *before* the run and
    call :meth:`finish` when it completes (before the journal footer, so
    the final frame lands inside the journal body).
    """

    def __init__(self, tracer, config: Optional[WatchConfig] = None, slo=None):
        if not tracer.enabled:
            raise ValueError("live monitoring requires an enabled tracer")
        config = config or WatchConfig()
        if config.interval <= 0:
            raise ValueError(f"watch interval must be positive: {config.interval}")
        self.tracer = tracer
        self.config = config
        #: optional :class:`repro.obs.slo.SLOSpec` for live escalation
        self.slo = slo
        self.frames: list[dict] = []
        self._next_due = config.interval
        self._last_advance = 0.0
        self._last_vector = self._vector()
        self._finished = False
        if tracer.journal is not None:
            tracer.journal.emit(
                {"t": "wcfg", "iv": config.interval, "win": config.window}
            )

    # -- kernel hook -------------------------------------------------------------

    def dispatch_end(self, now: float, event) -> None:
        """After every dispatched event: capture a frame when one is due."""
        if now < self._next_due:
            return
        self._next_due = math.floor(now / self.config.interval + 1.0) * self.config.interval
        self._capture(now, final=False)

    def finish(self, makespan: Optional[float] = None) -> None:
        """Capture the terminal frame (call once, before the journal footer)."""
        if self._finished:
            return
        self._finished = True
        self._capture(self.tracer.sim.now, final=True)

    # -- frame capture -----------------------------------------------------------

    def _vector(self) -> tuple:
        """The tracked progress counters; any change counts as an advance."""
        tracer = self.tracer
        done = sum(tracer.metrics.counter_values("progress.done").values())
        total = sum(tracer.metrics.gauge_values("progress.total").values())
        return (len(tracer.spans), tracer.closed_spans, done, total)

    def _capture(self, now: float, final: bool) -> None:
        tracer = self.tracer
        totals = tracer.metrics.gauge_values("progress.total")
        dones = tracer.metrics.counter_values("progress.done")
        stages: dict[str, list[float]] = {}
        done_sum = total_sum = 0.0
        for key, total in totals.items():
            labels = dict(key)
            name = f"{labels.get('job', '?')}/{labels.get('stage', '?')}"
            done = dones.get(key, 0.0)
            stages[name] = [done, total]
            done_sum += done
            total_sum += total
        frac = done_sum / total_sum if total_sum > 0 else 0.0

        vector = (len(tracer.spans), tracer.closed_spans, done_sum, total_sum)
        adv = vector != self._last_vector
        self._last_vector = vector

        stall_seconds = tracer.blame.bucket_total(STALL)
        blame_total = tracer.blame.grand_total()
        frame: dict = {
            "tm": now,
            "frac": round(frac, 6),
            "stages": stages,
            "spans": [len(tracer.spans), tracer.closed_spans],
            "stalls": tracer.metrics.counter_total("flow.stalls"),
            "stall_s": round(stall_seconds, 6),
            "inbox": round(tracer.timeline.level_total(QUEUE), 6),
            "adv": adv,
        }
        if frac > 0:
            frame["eta"] = round(now / frac, 6)
        if final:
            frame["fin"] = True
        breaches = self._breaches(now, stall_seconds, blame_total, final)
        if breaches:
            frame["br"] = breaches

        stalled = self.config.window > 0 and (now - self._last_advance) >= self.config.window
        if adv:
            self._last_advance = now
        if stalled:
            frame["status"] = STATUS_STALLED
        elif breaches:
            frame["status"] = STATUS_BREACH
        elif final:
            frame["status"] = STATUS_DONE
        else:
            frame["status"] = STATUS_RUNNING

        self.frames.append(frame)
        if tracer.journal is not None:
            tracer.journal.emit(dict(frame, t="fr"))

    def _breaches(
        self, now: float, stall_seconds: float, blame_total: float, final: bool
    ) -> list[str]:
        spec = self.slo
        if spec is None:
            return []
        breaches = []
        if spec.makespan_budget is not None and now > spec.makespan_budget:
            breaches.append("makespan")
        if (
            spec.max_stall_share is not None
            and blame_total > 0
            and stall_seconds / blame_total > spec.max_stall_share
        ):
            breaches.append("stall_share")
        if (
            spec.traffic_ceiling is not None
            and self.tracer.traffic_totals().get("total_bytes", 0.0)
            > spec.traffic_ceiling
        ):
            breaches.append("traffic_bytes")
        if final and spec.max_straggler_cv is not None:
            if self.straggler_cv() > spec.max_straggler_cv:
                breaches.append("straggler_cv")
        return breaches

    def straggler_cv(self) -> float:
        """Coefficient of variation of per-node CPU busy-seconds."""
        from repro.obs.telemetry import build_skew_report

        report = build_skew_report(
            self.tracer.timeline, self.tracer.traffic_matrices()
        )
        stats = report.sections.get("cpu_busy_seconds", {}).get("stats")
        return stats["cv"] if stats else 0.0

    @property
    def status(self) -> str:
        """The last captured frame's status (RUNNING before any frame)."""
        return self.frames[-1]["status"] if self.frames else STATUS_RUNNING

    def stalled_frames(self) -> int:
        return sum(1 for f in self.frames if f["status"] == STATUS_STALLED)


# -- rendering ----------------------------------------------------------------------


def _bar(frac: float, width: int = 20) -> str:
    filled = int(round(max(0.0, min(1.0, frac)) * width))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def _fmt_bytes(nbytes: float) -> str:
    value = float(nbytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or unit == "TB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{value:.0f}B"
        value /= 1024.0
    return f"{value:.1f}TB"


def render_frame(frame: dict) -> str:
    """One ASCII dashboard frame (multi-line, deterministic)."""
    eta = f"{frame['eta']:10.1f}s" if "eta" in frame else "       n/a"
    lines = [
        f"t={frame['tm']:10.2f}s {_bar(frame['frac'])} "
        f"{frame['frac'] * 100.0:5.1f}%  eta {eta}  {frame['status']}"
    ]
    if frame.get("br"):
        lines.append(f"    slo breach: {', '.join(frame['br'])}")
    for stage in sorted(frame["stages"]):
        done, total = frame["stages"][stage]
        pct = 100.0 * done / total if total else 0.0
        lines.append(f"    {stage:<30} {done:7.0f}/{total:<7.0f} {pct:5.1f}%")
    opened, closed = frame["spans"]
    lines.append(
        f"    flow: stalls={frame['stalls']:.0f} stall_s={frame['stall_s']:.2f}s"
        f" inbox={_fmt_bytes(frame['inbox'])} spans={closed}/{opened}"
    )
    return "\n".join(lines)


def render_watch(title: str, config_or_frames, frames: Optional[list] = None) -> str:
    """The full watch dashboard for one engine run.

    ``render_watch(title, monitor)`` or
    ``render_watch(title, (interval, window), frames)``.
    """
    if frames is None:
        interval, window = config_or_frames.config.interval, config_or_frames.config.window
        frames = config_or_frames.frames
    else:
        interval, window = config_or_frames
    lines = [
        f"== {title} — watch ==",
        f"interval {interval:g}s, stall window {window:g}s, {len(frames)} frames",
        "",
    ]
    for frame in frames:
        lines.append(render_frame(frame))
        lines.append("")
    stalled = sum(1 for f in frames if f["status"] == STATUS_STALLED)
    final = frames[-1]["status"] if frames else "(no frames)"
    lines.append(f"final: {final}, stalled frames: {stalled}/{len(frames)}")
    return "\n".join(lines)
