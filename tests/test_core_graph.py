"""Tests for flowlet definitions, graphs, bins, combiners."""

import pytest

from repro.common.errors import ConfigError, GraphError
from repro.core import (
    Bin,
    BinPacker,
    Combiner,
    CollectionSource,
    Edge,
    EdgeMode,
    FlowletGraph,
    FlowletKind,
    Loader,
    Map,
    PartialReduce,
    Reduce,
    sum_combiner,
)


def make_loader(name="load"):
    return Loader(name, CollectionSource([("k", 1)]))


class TestFlowletTypes:
    def test_kinds(self):
        assert make_loader().kind is FlowletKind.LOADER
        assert Map("m", fn=lambda c, k, v: None).kind is FlowletKind.MAP
        assert Reduce("r", fn=lambda c, k, vs: None).kind is FlowletKind.REDUCE
        assert (
            PartialReduce("p", initial=lambda k: 0, combine=lambda a, v: a).kind
            is FlowletKind.PARTIAL_REDUCE
        )

    def test_requires_name(self):
        with pytest.raises(ConfigError):
            Map("", fn=lambda c, k, v: None)

    def test_loader_requires_source(self):
        with pytest.raises(ConfigError):
            Loader("l", None)

    def test_bad_compute_factor(self):
        with pytest.raises(ConfigError):
            Map("m", fn=lambda c, k, v: None, compute_factor=0)

    def test_unimplemented_methods_raise(self):
        with pytest.raises(NotImplementedError):
            Map("m").map(None, "k", "v")
        with pytest.raises(NotImplementedError):
            Reduce("r").reduce(None, "k", [])
        with pytest.raises(NotImplementedError):
            PartialReduce("p").initial("k")
        with pytest.raises(NotImplementedError):
            PartialReduce("p").combine(0, 1)


class TestGraphConstruction:
    def test_basic_chain(self):
        g = FlowletGraph("wc")
        loader = g.add(make_loader())
        mapper = g.add(Map("m", fn=lambda c, k, v: None))
        g.connect(loader, mapper)
        g.validate()
        assert g.loaders() == [loader]
        assert g.sinks() == [mapper]
        assert g.downstream(loader) == [mapper]
        assert g.upstream(mapper) == [loader]

    def test_connect_by_name(self):
        g = FlowletGraph()
        g.add(make_loader("l"))
        g.add(Map("m", fn=lambda c, k, v: None))
        edge = g.connect("l", "m", mode=EdgeMode.LOCAL)
        assert edge.mode is EdgeMode.LOCAL

    def test_duplicate_names_rejected(self):
        g = FlowletGraph()
        g.add(make_loader("x"))
        with pytest.raises(GraphError):
            g.add(Map("x", fn=lambda c, k, v: None))

    def test_edge_into_loader_rejected(self):
        g = FlowletGraph()
        loader = g.add(make_loader())
        mapper = g.add(Map("m", fn=lambda c, k, v: None))
        with pytest.raises(GraphError):
            g.connect(mapper, loader)

    def test_duplicate_edge_rejected(self):
        g = FlowletGraph()
        loader = g.add(make_loader())
        mapper = g.add(Map("m", fn=lambda c, k, v: None))
        g.connect(loader, mapper)
        with pytest.raises(GraphError):
            g.connect(loader, mapper)

    def test_unadded_flowlet_rejected(self):
        g = FlowletGraph()
        g.add(make_loader())
        stranger = Map("m", fn=lambda c, k, v: None)
        with pytest.raises(GraphError):
            g.connect("load", stranger)

    def test_fan_out_and_fan_in(self):
        # "there can be multiple flowlets flowing to one flowlet and vice versa" (§3.2)
        g = FlowletGraph()
        loader = g.add(make_loader())
        m1 = g.add(Map("m1", fn=lambda c, k, v: None))
        m2 = g.add(Map("m2", fn=lambda c, k, v: None))
        r = g.add(Reduce("r", fn=lambda c, k, vs: None))
        g.connect(loader, m1)
        g.connect(loader, m2)
        g.connect(m1, r)
        g.connect(m2, r)
        g.validate()
        assert len(g.in_edges(r)) == 2
        assert g.sinks() == [r]


class TestGraphValidation:
    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            FlowletGraph().validate()

    def test_needs_loader(self):
        g = FlowletGraph()
        g.add(Map("m", fn=lambda c, k, v: None))
        with pytest.raises(GraphError):
            g.validate()

    def test_orphan_non_loader_rejected(self):
        g = FlowletGraph()
        g.add(make_loader())
        g.add(Map("orphan", fn=lambda c, k, v: None))
        with pytest.raises(GraphError):
            g.validate()

    def test_topological_order(self):
        g = FlowletGraph()
        loader = g.add(make_loader())
        a = g.add(Map("a", fn=lambda c, k, v: None))
        b = g.add(Map("b", fn=lambda c, k, v: None))
        g.connect(loader, a)
        g.connect(a, b)
        order = [f.name for f in g.topological_order()]
        assert order.index("load") < order.index("a") < order.index("b")


def pack(packer, edge_id, partition, key, value):
    """Pack one pair into slot ``(edge_id, partition)`` through a LOCAL edge."""
    edge = Edge(edge_id, make_loader(), Map("dst"), EdgeMode.LOCAL)
    return packer.add_many([edge], [(key, value)], local_partition=partition)


class TestBinPacker:
    def test_seals_at_size(self):
        packer = BinPacker(bin_size=30)
        sealed = pack(packer, 0, 0, "k", "v" * 10)  # pair ~ 4+1+10 + overhead
        assert sealed == []
        (sealed,) = pack(packer, 0, 0, "k", "v" * 10)
        assert sealed.nrecords == 2
        assert packer.open_bins == 0

    def test_separate_slots(self):
        packer = BinPacker(bin_size=1000)
        pack(packer, 0, 0, "a", 1)
        pack(packer, 0, 1, "b", 2)
        pack(packer, 1, 0, "c", 3)
        assert packer.open_bins == 3

    def test_drain_all(self):
        packer = BinPacker(bin_size=1000)
        pack(packer, 0, 0, "a", 1)
        pack(packer, 1, 2, "b", 2)
        drained = packer.drain()
        assert len(drained) == 2
        assert packer.open_bins == 0
        assert {(b.edge_id, b.partition) for b in drained} == {(0, 0), (1, 2)}

    def test_drain_one_edge(self):
        packer = BinPacker(bin_size=1000)
        pack(packer, 0, 0, "a", 1)
        pack(packer, 1, 0, "b", 2)
        drained = packer.drain(edge_id=1)
        assert len(drained) == 1
        assert drained[0].edge_id == 1
        assert packer.open_bins == 1

    def test_bin_tracks_bytes(self):
        b = Bin(0, 0)
        b.append("key", 7)
        assert b.nbytes == 3 + 8 + 4
        assert list(b) == [("key", 7)]

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            BinPacker(0)


class TestCombiner:
    def test_sum_combiner(self):
        c = sum_combiner()
        out = c.apply([("a", 1), ("b", 2), ("a", 3)])
        assert sorted(out) == [("a", 4), ("b", 2)]

    def test_emit_value(self):
        c = Combiner(
            initial=lambda k: [],
            combine=lambda acc, v: acc + [v],
            emit_value=lambda acc: len(acc),
        )
        out = c.apply([("x", "p"), ("x", "q")])
        assert out == [("x", 2)]

    def test_requires_functions(self):
        with pytest.raises(ConfigError):
            Combiner(None, lambda a, v: a)

    def test_empty_batch(self):
        assert sum_combiner().apply([]) == []
