"""The traced run's first two sources: harness spans and the attribution pass.

Everything here measures from outside the program: spans wrap the calls
the harness makes into a layer, and ``cProfile`` times one pass whose
self time is grouped by ``src/repro/<package>/``. cProfile taxes every
Python call but no native code, so the shares lean towards call-heavy
layers; they rank layers and bound a saving, the end-to-end numbers come
from runs with all of this off.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time

from perfspec import LAYERS

_PACKAGE_MARK = os.sep + os.path.join("src", "repro") + os.sep
_LAYER_OF_PACKAGE = {layer: layer for layer in LAYERS} | {"data": "apps"}

#: exact counts read off the attribution pass: metric -> (file suffix, function names)
COUNTED_CALLS = {
    "common.sizeof.calls": ("common/sizeof.py", ("logical_sizeof", "pair_size")),
    "common.partitioner.hash_calls": ("common/partitioner.py", ("stable_hash",)),
    "core.emit.calls": ("core/context.py", ("emit",)),
    "mapreduce.emit.calls": ("mapreduce/api.py", ("emit",)),
    "dataplane.partition_batch.calls": ("dataplane/exchange.py", ("partition_batch",)),
    "sim.events": ("sim/core.py", ("_schedule",)),
    "obs.journal.events": ("obs/journal.py", ("encode_record", "decode_record")),
}


class SpanTracer:
    """Spans kept in memory: name, start, end, parent, one id per pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.pass_id = 0

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        record = {
            "name": name, "pass": self.pass_id, "start": time.perf_counter(),
            "end": None, "parent": self._open[-1] if self._open else None,
        }
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


class NoTracer:
    """What the untraced end-to-end runs get: nothing is wrapped or recorded."""

    pass_id = 0

    def span(self, _name):
        return contextlib.nullcontext()

    def wrap(self, _name, fn):
        return fn


def _layer_of_file(filename):
    _, mark, rest = filename.partition(_PACKAGE_MARK)
    return _LAYER_OF_PACKAGE.get(rest.split(os.sep, 1)[0]) if mark else None


def attribute(stats):
    """Per-layer self-time share and call count from a ``pstats.Stats().stats`` table.

    A function under ``src/repro/<package>/`` is its package's layer.
    Anything else — C builtins, the standard library, numpy — is charged
    to the layers of the functions that called it, split by the caller
    table's time, so ``json`` encoding lands on ``obs`` and ``sum(map(
    logical_sizeof))`` on whoever asked. Time nobody in the program asked
    for (the harness's own frames) is left out; shares sum to 1.
    """
    mix = {}
    outside = []
    for func in stats:
        own = _layer_of_file(func[0])
        if own is None:
            outside.append(func)
        else:
            mix[func] = {own: 1.0}
    # chains of outside functions (json.dumps -> encode -> iterencode -> C)
    # resolve one link per round; a dozen rounds is deeper than any that
    # carries measurable time
    for _round in range(12):
        for func in outside:
            callers = stats[func][4]
            total = sum(entry[2] for entry in callers.values())
            blend: dict = {}
            for caller, entry in callers.items():
                weight = entry[2] / total if total else 1.0 / len(callers)
                for layer, share in mix.get(caller, {}).items():
                    blend[layer] = blend.get(layer, 0.0) + weight * share
            mix[func] = blend

    seconds = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for func, (_cc, ncalls, self_time, _ct, _callers) in stats.items():
        own = _layer_of_file(func[0])
        if own is not None:
            calls[own] += ncalls
        for layer, share in mix[func].items():
            seconds[layer] += self_time * share
    total = sum(seconds.values())
    shares = {layer: (value / total if total else 0.0) for layer, value in seconds.items()}
    return shares, calls


def counted_calls(stats):
    """The exact-count layer metrics: total calls of the named functions."""
    counts = dict.fromkeys(COUNTED_CALLS, 0)
    for (filename, _line, name), entry in stats.items():
        for metric, (suffix, names) in COUNTED_CALLS.items():
            if name in names and filename.replace(os.sep, "/").endswith("/repro/" + suffix):
                counts[metric] += entry[1]
    return counts
