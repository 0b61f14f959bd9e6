"""Tests for the routing-resource graph."""

import pickle

import pytest

from repro.arch.architecture import FpgaArchitecture, Site
from repro.arch.rrg import IPIN, OPIN, SINK, WIRE, build_rrg

#: (nx, ny, channel_width, io_rat) grids the search-view tests sweep.
SPAN_ARCHS = [
    (2, 2, 2, 1),
    (2, 9, 5, 2),
    (3, 5, 3, 2),
    (4, 4, 8, 1),
    (6, 3, 4, 2),
    (9, 2, 7, 1),
    (9, 9, 6, 2),
]


@pytest.fixture(scope="module")
def small():
    arch = FpgaArchitecture(nx=3, ny=3, channel_width=4, k=4)
    return arch, build_rrg(arch)


class TestStructure:
    def test_wire_count(self, small):
        arch, g = small
        n_wires = sum(1 for k in g.node_kind if k == WIRE)
        assert n_wires == arch.n_channel_segments() * arch.channel_width

    def test_clb_pin_count(self, small):
        arch, g = small
        assert len(g.clb_opin) == arch.n_clbs
        assert len(g.clb_sink) == arch.n_clbs
        assert len(g.clb_ipin) == arch.n_clbs * arch.k

    def test_pad_pin_count(self, small):
        arch, g = small
        assert len(g.pad_opin) == arch.n_pads
        assert len(g.pad_sink) == arch.n_pads

    def test_sink_capacity(self, small):
        arch, g = small
        sink = g.clb_sink[(1, 1)]
        assert g.node_capacity[sink] == arch.k
        pad_sink = next(iter(g.pad_sink.values()))
        assert g.node_capacity[pad_sink] == 1

    def test_every_bit_unique_per_directed_pair(self, small):
        _arch, g = small
        # Every configurable edge has a bit in range; bidirectional
        # pairs share a bit.
        seen = {}
        for src, adj in enumerate(g.adjacency):
            for dst, bit in adj:
                if bit < 0:
                    continue
                assert 0 <= bit < g.n_bits
                seen.setdefault(bit, []).append((src, dst))
        for bit, edges in seen.items():
            assert len(edges) in (1, 2)
            if len(edges) == 2:
                assert edges[0] == (edges[1][1], edges[1][0])

    def test_ipin_to_sink_edges_are_internal(self, small):
        arch, g = small
        for (x, y, pin), ipin in g.clb_ipin.items():
            targets = g.adjacency[ipin]
            assert (g.clb_sink[(x, y)], -1) in targets


class TestConnectivity:
    def test_opin_reaches_wires(self, small):
        _arch, g = small
        opin = g.clb_opin[(2, 2)]
        assert all(
            g.node_kind[dst] == WIRE for dst, _ in g.adjacency[opin]
        )
        assert len(g.adjacency[opin]) > 0

    def test_wire_reaches_neighbours(self, small):
        _arch, g = small
        wire = g.chanx[(2, 1, 0)]
        kinds = {g.node_kind[dst] for dst, _ in g.adjacency[wire]}
        assert WIRE in kinds  # switch-box neighbours
        assert IPIN in kinds  # connection-block pin

    def test_full_fabric_reachability(self, small):
        """Every CLB sink is reachable from every CLB opin (BFS)."""
        _arch, g = small
        from collections import deque

        start = g.clb_opin[(1, 1)]
        seen = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for dst, _bit in g.adjacency[node]:
                if dst not in seen:
                    seen.add(dst)
                    queue.append(dst)
        for sink in g.clb_sink.values():
            assert sink in seen
        for sink in g.pad_sink.values():
            assert sink in seen

    def test_source_sink_lookup(self, small):
        _arch, g = small
        clb = Site("clb", 1, 2)
        assert g.source_node(clb) == g.clb_opin[(1, 2)]
        assert g.sink_node(clb) == g.clb_sink[(1, 2)]
        pad = Site("pad", 0, 1, 1)
        assert g.source_node(pad) == g.pad_opin[(0, 1, 1)]
        assert g.sink_node(pad) == g.pad_sink[(0, 1, 1)]

    def test_describe(self, small):
        _arch, g = small
        text = g.describe(g.clb_opin[(1, 1)])
        assert "OPIN" in text and "(1,1)" in text


class TestScaling:
    def test_bits_grow_with_width(self):
        arch4 = FpgaArchitecture(nx=2, ny=2, channel_width=4)
        arch8 = FpgaArchitecture(nx=2, ny=2, channel_width=8)
        assert build_rrg(arch8).n_bits > build_rrg(arch4).n_bits


class TestSearchViews:
    """The graph facts the router's pruned heap search relies on."""

    @pytest.mark.parametrize("nx,ny,width,io_rat", SPAN_ARCHS)
    def test_edge_spans(self, nx, ny, width, io_rat):
        """Every edge spans at most 2 Manhattan units, only wire-wire
        turns span 2, and IPIN->SINK spans 0 — the precondition of
        the shared-connection A* weight 1/span.  Longer segments must
        fail here rather than silently move routes."""
        g = build_rrg(FpgaArchitecture(
            nx=nx, ny=ny, channel_width=width, io_rat=io_rat,
            fc_in=0.5, fc_out=0.5,
        ))
        kinds, xs, ys = g.node_kind, g.node_x, g.node_y
        for src, edges in enumerate(g.adjacency):
            for dst, _bit in edges:
                span = abs(xs[src] - xs[dst]) + abs(ys[src] - ys[dst])
                assert span <= 2
                if span == 2:
                    assert kinds[src] == kinds[dst] == WIRE
                if kinds[src] == IPIN:
                    assert kinds[dst] == SINK and span == 0
        assert g.max_edge_span() == 2

    @pytest.mark.parametrize("nx,ny,width,io_rat", SPAN_ARCHS[:3])
    def test_pins_are_dead_ends(self, nx, ny, width, io_rat):
        """The wire-only tuples hold every wire-bound edge, the pin
        sources every other edge's source, and a pin leads only to a
        SINK: an IPIN of another block never reaches a search's
        target."""
        g = build_rrg(FpgaArchitecture(
            nx=nx, ny=ny, channel_width=width, io_rat=io_rat,
        ))
        kinds = g.node_kind
        wire_out, pin_src = g.wire_neighbors(), g.pin_sources()
        expected_src = {}
        for src, edges in enumerate(g.adjacency):
            assert wire_out[src] == tuple(
                (dst, bit) for dst, bit in edges if kinds[dst] == WIRE
            )
            for dst, _bit in edges:
                if kinds[dst] != WIRE:
                    assert kinds[dst] in (IPIN, SINK)
                    expected_src.setdefault(dst, []).append(src)
            if kinds[src] in (IPIN, SINK):
                assert all(kinds[dst] == SINK for dst, _ in edges)
        for node in range(g.n_nodes):
            assert pin_src[node] == tuple(expected_src.get(node, ()))

    def test_views_stay_out_of_pickles(self, small):
        _arch, g = small
        g.wire_neighbors()
        g.pin_sources()
        g.max_edge_span()
        clone = pickle.loads(pickle.dumps(g))
        assert clone._wire_out is None
        assert clone._pin_src is None
        assert clone._max_span is None
        assert clone.wire_neighbors() == g.wire_neighbors()
        assert clone.pin_sources() == g.pin_sources()
