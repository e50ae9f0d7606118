"""User-facing MapReduce API (Hadoop-flavored).

Jobs are two fixed phases — "each job only has two phases: map and reduce
and the order is also fixed" (§3.2) — optionally with a combiner. Complex
programs chain jobs (see :func:`repro.mapreduce.chain.run_chain`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.common.errors import ConfigError
from repro.core.bins import pair_list
from repro.core.combiner import Combiner  # same combiner contract as HAMR


class MRContext:
    """Emission context for map/reduce user code."""

    def __init__(self) -> None:
        self.emitted: list[tuple[Any, Any]] = []
        self.counters: dict[str, float] = {}

    def emit(self, key: Any, value: Any) -> None:
        self.emitted.append((key, value))

    def emit_many(self, pairs: Iterable[Any]) -> None:
        """Emit ``(key, value)`` pairs in order (stored as tuples, an exact
        2-tuple as the object given; see :func:`repro.core.bins.pair_list`)."""
        self.emitted += pair_list(pairs)

    def counter(self, name: str, delta: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + delta

    def take(self) -> list[tuple[Any, Any]]:
        emitted, self.emitted = self.emitted, []
        return emitted


class Mapper:
    """Override ``map`` or pass ``fn(ctx, key, value)``."""

    def __init__(
        self,
        fn: Optional[Callable[[MRContext, Any, Any], None]] = None,
        compute_factor: float = 1.0,
    ):
        self._fn = fn
        self.compute_factor = compute_factor

    def map(self, ctx: MRContext, key: Any, value: Any) -> None:
        if self._fn is None:
            raise NotImplementedError("override map() or pass fn=")
        self._fn(ctx, key, value)


class Reducer:
    """Override ``reduce`` or pass ``fn(ctx, key, values)``."""

    def __init__(
        self,
        fn: Optional[Callable[[MRContext, Any, list], None]] = None,
        compute_factor: float = 1.0,
    ):
        self._fn = fn
        self.compute_factor = compute_factor

    def reduce(self, ctx: MRContext, key: Any, values: list) -> None:
        if self._fn is None:
            raise NotImplementedError("override reduce() or pass fn=")
        self._fn(ctx, key, values)


class MRJob:
    """One MapReduce job over DFS files.

    ``input_file`` must contain ``(key, value)`` records; the output file
    will contain the reducer's emitted pairs. A map-only job (``reducer
    is None``) writes map output directly.
    """

    def __init__(
        self,
        name: str,
        input_file: str,
        output_file: str,
        mapper: Mapper,
        reducer: Optional[Reducer] = None,
        combiner: Optional[Combiner] = None,
        num_reducers: Optional[int] = None,
        aggregated_input: bool = False,
        aggregated_output: bool = False,
    ):
        if not name:
            raise ConfigError("job needs a name")
        if input_file == output_file:
            raise ConfigError(f"{name}: input and output files must differ")
        self.name = name
        self.input_file = input_file
        self.output_file = output_file
        self.mapper = mapper
        self.reducer = reducer
        self.combiner = combiner
        self.num_reducers = num_reducers
        #: scale-model flags: the input/output files hold key-space-bounded
        #: aggregate data and are charged unscaled (see DESIGN.md §7)
        self.aggregated_input = aggregated_input
        self.aggregated_output = aggregated_output

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MRJob {self.name!r} {self.input_file} -> {self.output_file}>"
