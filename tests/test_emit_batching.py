"""The batched per-record paths against their one-at-a-time definitions.

* ``BinPacker.add_many`` / ``TaskContext.emit_many`` / ``MRContext.emit_many``
  must fill the same bins — records, ``nbytes``, partitions — and seal them
  in the same order as a reference loop that routes, appends, sizes with
  :func:`~repro.common.sizeof.pair_size` and seals one pair at a time.
* ``UpdateChain`` must charge a run of ``SerializedCell`` updates exactly
  as a process yielding ``cell.update(n)`` once per step does: same finish
  times, same cell counters, same ``(now, sequence)`` schedule.

Hypothesis runs capped and derandomized, so tier-1 time and outcome are
fixed.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.common.partitioner import HashPartitioner
from repro.common.sizeof import pair_size
from repro.core import Edge, EdgeMode, Map
from repro.core.bins import BinPacker
from repro.core.context import TaskContext
from repro.dataplane.exchange import BROADCAST_PARTITION
from repro.mapreduce import MRContext
from repro.sim import SerializedCell, Simulator, UpdateChain

capped = settings(max_examples=60, derandomize=True, deadline=None)

# keys the stable hash accepts; values anything the logical sizer accepts
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.binary(max_size=6),
)
keys = st.one_of(scalars, st.tuples(scalars, scalars))
values = st.one_of(
    scalars,
    st.lists(scalars, max_size=8),
    st.tuples(scalars, st.lists(st.integers(), max_size=3)),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
)
# pairs arrive as tuples or as two-element lists
pairs = st.lists(
    st.tuples(keys, values).flatmap(lambda kv: st.sampled_from([kv, list(kv)])),
    max_size=40,
)
bin_sizes = st.one_of(st.integers(1, 80), st.integers(1, 10**12))
modes = st.sampled_from([EdgeMode.SHUFFLE, EdgeMode.LOCAL, EdgeMode.BROADCAST])


def make_edges(spec):
    """``[(mode, num_partitions)] -> edges`` out of one producer."""
    src = Map("src")
    return [
        Edge(i, src, Map(f"dst{i}"), mode, HashPartitioner(parts))
        for i, (mode, parts) in enumerate(spec)
    ]


edge_specs = st.lists(st.tuples(modes, st.integers(1, 4)), min_size=1, max_size=3)


def reference_pack(bin_size, edges, stream, local_partition):
    """One pair at a time: route, append, size with pair_size, seal.

    Returns ``(sealed, drained)`` as comparable bin descriptions.
    """
    open_bins, sealed = {}, []
    for key, value in stream:
        for edge in edges:
            if edge.mode is EdgeMode.SHUFFLE:
                partition = edge.partitioner.partition(key)
            elif edge.mode is EdgeMode.LOCAL:
                partition = local_partition
            else:
                partition = BROADCAST_PARTITION
            slot = (edge.edge_id, partition)
            records, nbytes = open_bins.get(slot, ([], 0))
            records.append((key, value))
            nbytes += pair_size(key, value)
            open_bins[slot] = (records, nbytes)
            if nbytes >= bin_size:
                sealed.append((*slot, records, nbytes))
                del open_bins[slot]
    drained = [(*slot, *open_bins[slot]) for slot in sorted(open_bins)]
    return sealed, drained


def describe(bins):
    return [(b.edge_id, b.partition, b.records, b.nbytes) for b in bins]


def assert_same_records(got, want):
    """Bins equal, with record element types compared too (``1 == 1.0``)."""
    assert got == want
    for (*_g, grecs, _gb), (*_w, wrecs, _wb) in zip(got, want):
        assert [tuple(map(type, r)) for r in grecs] == [tuple(map(type, r)) for r in wrecs]
        assert all(type(r) is tuple for r in grecs)


class TestAddMany:
    @capped
    @given(edge_specs, pairs, bin_sizes, st.integers(0, 3), st.data())
    def test_matches_the_per_pair_reference(self, spec, stream, bin_size, local, data):
        edges = make_edges(spec)
        # any split of the stream into add_many calls gives the same bins
        cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=4)))
        packer = BinPacker(bin_size, aggregated=True)
        sealed = []
        for lo, hi in zip([0, *cuts], [*cuts, len(stream)]):
            sealed += packer.add_many(edges, stream[lo:hi], local)
        drained = packer.drain()
        want_sealed, want_drained = reference_pack(bin_size, make_edges(spec), stream, local)
        assert_same_records(describe(sealed), want_sealed)
        assert_same_records(describe(drained), want_drained)
        assert all(b.aggregated for b in sealed + drained)
        assert packer.open_bins == 0

    def test_a_generator_fans_out_to_every_edge_and_is_consumed_once(self):
        edges = make_edges([(EdgeMode.SHUFFLE, 3), (EdgeMode.LOCAL, 1), (EdgeMode.BROADCAST, 1)])
        pulled = []

        def stream():
            for i in range(50):
                pulled.append(i)
                yield f"k{i % 7}", i

        packer = BinPacker(40)
        sealed = packer.add_many(edges, stream(), local_partition=2)
        bins = sealed + packer.drain()
        assert pulled == list(range(50))
        for edge in edges:
            got = sorted(r for b in bins if b.edge_id == edge.edge_id for r in b.records)
            assert got == sorted((f"k{i % 7}", i) for i in range(50))
        want_sealed, _ = reference_pack(40, edges, [(f"k{i % 7}", i) for i in range(50)], 2)
        assert describe(sealed) == want_sealed

    @pytest.mark.parametrize("item", [(1, 2, 3), (1,), "abc", ()])
    def test_a_non_pair_raises_the_unpacking_error(self, item):
        with pytest.raises(ValueError) as unpacking:
            key, value = item
        packer = BinPacker(10)
        with pytest.raises(ValueError) as packing:
            packer.add_many(make_edges([(EdgeMode.SHUFFLE, 2)]), [("ok", 1), item], 0)
        assert str(packing.value) == str(unpacking.value)


def make_context(spec, local=1):
    edges = make_edges(spec)
    instance = SimpleNamespace(flowlet=SimpleNamespace(name="src"))
    return TaskContext(instance, None, local, 4, BinPacker(60), edges, None, None), edges


def emitted(ctx):
    """Sealed bins in seal order, then the bins a drain would flush."""
    return describe(ctx.take_sealed()), describe(ctx._packer.drain())


class TestEmitMany:
    @capped
    @given(edge_specs, pairs, st.booleans())
    def test_matches_the_per_pair_reference(self, spec, stream, targeted):
        ctx, edges = make_context(spec)
        to = edges[-1].dst.name if targeted else None
        ctx.emit_many(iter(stream), to=to)
        want = reference_pack(60, edges[-1:] if targeted else edges, stream, 1)
        sealed, drained = emitted(ctx)
        assert_same_records(sealed, want[0])
        assert_same_records(drained, want[1])
        # and emit, one pair per call, fills the very same bins
        ctx, _edges = make_context(spec)
        for key, value in stream:
            ctx.emit(key, value, to=to)
        assert emitted(ctx) == (sealed, drained)

    @capped
    @given(pairs)
    def test_a_sink_stores_tuples(self, stream):
        ctx, _edges = make_context([])
        ctx.emit_many(stream)
        ctx.emit("last", 0)
        assert ctx.output_pairs == [tuple(p) for p in stream] + [("last", 0)]
        assert all(type(p) is tuple for p in ctx.output_pairs)
        assert ctx.sealed_bins == []

    @pytest.mark.parametrize("spec", [[], [(EdgeMode.SHUFFLE, 2)]], ids=["sink", "edge"])
    def test_a_non_pair_raises_the_unpacking_error(self, spec):
        with pytest.raises(ValueError) as unpacking:
            key, value = (1, 2, 3)
        ctx, _edges = make_context(spec)
        with pytest.raises(ValueError) as emitting:
            ctx.emit_many([("a", 1), (1, 2, 3)])
        assert str(emitting.value) == str(unpacking.value)

    @capped
    @given(pairs)
    def test_mapreduce_context_matches_emit(self, stream):
        batched, single = MRContext(), MRContext()
        batched.emit_many(iter(stream))
        for key, value in stream:
            single.emit(key, value)
        assert batched.take() == single.take() == [tuple(p) for p in stream]
        with pytest.raises(ValueError, match="too many values to unpack"):
            batched.emit_many([(1, 2, 3)])


# -- UpdateChain ------------------------------------------------------------------

steps_strategy = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4)), min_size=1, max_size=6)
tasks_strategy = st.lists(
    st.tuples(st.sampled_from([0.0, 0.5, 1.0, 1.5]), steps_strategy), min_size=1, max_size=5
)


def run_cells(tasks, chained, mp):
    """Run ``tasks`` (start delay, [(cell, n), ...]) on three shared cells
    next to a ticking process; returns everything observable."""
    sim = Simulator()
    schedule = []
    original = Simulator._schedule

    def recording(self, delay, event):
        original(self, delay, event)
        schedule.append((self.now, self._sequence))

    mp.setattr(Simulator, "_schedule", recording)
    cells = [
        SerializedCell(sim, update_cost=0.3, base_cost=0.1),
        SerializedCell(sim, update_cost=0.25, base_cost=0.25),
        SerializedCell(sim, update_cost=0.7, base_cost=0.0),
    ]
    finished, ticks = {}, []

    def task(index, delay, steps):
        yield delay
        if chained:
            value = yield UpdateChain(sim, [(cells[c], n) for c, n in steps])
        else:
            for c, n in steps:
                value = yield cells[c].update(n)
        finished[index] = (sim.now, value)

    def ticker():
        for _ in range(12):
            yield 0.25
            ticks.append(sim.now)

    sim.spawn(ticker())
    for index, (delay, steps) in enumerate(tasks):
        sim.spawn(task(index, delay, steps))
    end = sim.run()
    counters = [(c.total_updates, c.contended_updates, c._free_at) for c in cells]
    return end, finished, ticks, counters, schedule


class TestUpdateChain:
    @capped
    @given(tasks_strategy)
    def test_matches_one_update_per_resume(self, tasks):
        with pytest.MonkeyPatch.context() as mp:
            chained = run_cells(tasks, True, mp)
        with pytest.MonkeyPatch.context() as mp:
            stepped = run_cells(tasks, False, mp)
        assert chained == stepped

    def test_waiters_wake_once_after_the_last_step(self):
        sim = Simulator()
        cell = SerializedCell(sim, update_cost=1.0, base_cost=0.5)
        chain = UpdateChain(sim, [(cell, 2), (cell, 3)])
        woken = []
        chain.add_callback(lambda evt: woken.append((sim.now, evt.value)))
        sim.run()
        # 2 updates on an idle cell, then 3 more on the same (now idle) cell
        assert woken == [(2.5, 3)]
        assert (cell.total_updates, cell.contended_updates) == (5, 0)

    def test_needs_a_step(self):
        with pytest.raises(SimulationError, match="at least one step"):
            UpdateChain(Simulator(), [])
