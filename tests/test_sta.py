"""Tests for routed static timing analysis (repro.timing)."""

import pytest

from repro.arch.architecture import FpgaArchitecture
from repro.arch.rrg import build_rrg
from repro.netlist.lutcircuit import LutCircuit
from repro.netlist.truthtable import TruthTable
from repro.place.placer import place_circuit
from repro.route.router import PathFinderRouter, RouteRequest
from repro.route.troute import route_lut_circuit
from repro.timing import (
    DelayModel,
    connection_delays_for_mode,
    dcs_arc_delays,
    mdr_arc_delays,
    net_delay_tree,
    placed_arc_delays,
    routed_critical_path,
    timing_comparison,
)


@pytest.fixture(scope="module")
def fabric():
    arch = FpgaArchitecture(nx=4, ny=4, channel_width=6, k=4)
    return arch, build_rrg(arch)


def _xor2():
    return TruthTable.var(0, 2) ^ TruthTable.var(1, 2)


def _small_circuit(registered=False):
    c = LutCircuit("t", 4)
    c.add_input("a")
    c.add_input("b")
    c.add_block("n0", ("a", "b"), _xor2(), registered=registered)
    c.add_block("n1", ("n0", "a"), _xor2())
    c.add_output("n1")
    return c


class TestDelayModel:
    def test_defaults_validate(self):
        DelayModel().validate()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DelayModel(wire_delay=-1.0).validate()

    def test_path_delay_counts_switches_and_wires(self, fabric):
        _arch, g = fabric
        req = RouteRequest(
            0, "n", g.clb_opin[(1, 1)], g.clb_sink[(3, 3)],
            frozenset((0,)),
        )
        result = PathFinderRouter(g).route([req])
        route = result.routes[0]
        model = DelayModel()
        expected = model.node_delay(g, route.edges[0][0])
        for _u, v, bit in route.edges:
            expected += model.node_delay(g, v)
            if bit >= 0:
                expected += model.switch_delay
        assert model.path_delay(g, route.edges) == pytest.approx(
            expected
        )

    def test_zero_model_gives_zero_delay(self, fabric):
        _arch, g = fabric
        req = RouteRequest(
            0, "n", g.clb_opin[(1, 1)], g.clb_sink[(2, 2)],
            frozenset((0,)),
        )
        result = PathFinderRouter(g).route([req])
        model = DelayModel(
            lut_delay=0, pin_delay=0, wire_delay=0, switch_delay=0
        )
        assert model.path_delay(g, result.routes[0].edges) == 0.0


class TestNetDelayTree:
    def test_single_route_matches_path_delay(self, fabric):
        _arch, g = fabric
        req = RouteRequest(
            0, "n", g.clb_opin[(1, 1)], g.clb_sink[(4, 4)],
            frozenset((0,)),
        )
        result = PathFinderRouter(g).route([req])
        model = DelayModel()
        tree = net_delay_tree(result, 0, "n", model)
        assert tree[req.sink] == pytest.approx(
            model.path_delay(g, result.routes[0].edges)
        )

    def test_branch_delays_dominated_by_trunk(self, fabric):
        _arch, g = fabric
        reqs = [
            RouteRequest(0, "n", g.clb_opin[(1, 1)],
                         g.clb_sink[(4, 4)], frozenset((0,))),
            RouteRequest(1, "n", g.clb_opin[(1, 1)],
                         g.clb_sink[(4, 3)], frozenset((0,))),
        ]
        result = PathFinderRouter(g).route(reqs)
        tree = net_delay_tree(result, 0, "n")
        assert reqs[0].sink in tree and reqs[1].sink in tree
        assert all(d >= 0 for d in tree.values())

    def test_absent_net_gives_empty_tree(self, fabric):
        _arch, g = fabric
        req = RouteRequest(
            0, "n", g.clb_opin[(1, 1)], g.clb_sink[(2, 2)],
            frozenset((0,)),
        )
        result = PathFinderRouter(g).route([req])
        assert net_delay_tree(result, 0, "other") == {}
        # Mode 1 does not exist for this request either.
        assert net_delay_tree(result, 1, "n") == {}

    def test_kahn_matches_dijkstra_reference(self, fabric):
        """Regression for the Dijkstra -> Kahn rewrite: on a
        trunk-shared multi-sink union the one-pass topological
        relaxation must produce the exact labels a priority-queue
        search does."""
        import heapq

        _arch, g = fabric
        reqs = [
            RouteRequest(i, "n", g.clb_opin[(1, 1)], sink,
                         frozenset((0,)))
            for i, sink in enumerate((
                g.clb_sink[(4, 4)], g.clb_sink[(4, 3)],
                g.clb_sink[(3, 4)], g.clb_sink[(1, 4)],
            ))
        ]
        result = PathFinderRouter(g).route(reqs)
        model = DelayModel()
        tree = net_delay_tree(result, 0, "n", model)

        edges = {}
        for route in result.routes.values():
            for u, v, bit in route.edges:
                edges.setdefault(u, []).append((v, bit))
        source = reqs[0].source
        dist = {source: model.node_delay(g, source)}
        heap = [(dist[source], source)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, float("inf")):
                continue
            for nxt, bit in edges.get(node, ()):
                nd = d + model.edge_delay(g, nxt, bit)
                if nd < dist.get(nxt, float("inf")):
                    dist[nxt] = nd
                    heapq.heappush(heap, (nd, nxt))
        assert tree == dist

    def test_connection_delays_cover_all_routes(self, fabric):
        _arch, g = fabric
        reqs = [
            RouteRequest(0, "a", g.clb_opin[(1, 1)],
                         g.clb_sink[(3, 3)], frozenset((0,))),
            RouteRequest(1, "b", g.clb_opin[(2, 2)],
                         g.clb_sink[(4, 4)], frozenset((0,))),
        ]
        result = PathFinderRouter(g).route(reqs)
        delays = connection_delays_for_mode(result, 0)
        assert set(delays) == {
            ("a", reqs[0].sink), ("b", reqs[1].sink)
        }
        assert all(d > 0 for d in delays.values())


class TestRoutedCriticalPath:
    def _route(self, circuit, fabric, seed=3):
        arch, g = fabric
        placement = place_circuit(circuit, arch, seed=seed)
        routing = route_lut_circuit(circuit, placement, g)
        return placement, routing

    def test_combinational_chain(self, fabric):
        circuit = _small_circuit()
        placement, routing = self._route(circuit, fabric)
        arcs = mdr_arc_delays(circuit, placement, routing)
        report = routed_critical_path(circuit, arcs)
        # Two LUT levels at least: delay > 2 * lut_delay.
        assert report.critical_delay > 2.0
        assert report.critical_path[-1] in ("n1", "n0")
        assert report.n_endpoints == 1

    def test_registered_block_splits_paths(self, fabric):
        comb = _small_circuit(registered=False)
        reg = _small_circuit(registered=True)
        p_comb, r_comb = self._route(comb, fabric)
        p_reg, r_reg = self._route(reg, fabric)
        comb_report = routed_critical_path(
            comb, mdr_arc_delays(comb, p_comb, r_comb)
        )
        reg_report = routed_critical_path(
            reg, mdr_arc_delays(reg, p_reg, r_reg)
        )
        # Registering n0 adds an endpoint and can only shorten the
        # longest combinational stretch.
        assert reg_report.n_endpoints == 2
        assert reg_report.critical_delay <= comb_report.critical_delay

    def test_missing_arc_raises(self):
        circuit = _small_circuit()
        with pytest.raises(KeyError, match="n0 -> n1|a -> n0|b -> n0"):
            routed_critical_path(circuit, {})

    def test_routed_delay_at_least_lut_depth(self, fabric):
        circuit = _small_circuit()
        placement, routing = self._route(circuit, fabric)
        arcs = mdr_arc_delays(circuit, placement, routing)
        zero_wire = DelayModel(
            pin_delay=0, wire_delay=0, switch_delay=0
        )
        report = routed_critical_path(circuit, arcs, zero_wire)
        # Wires free: critical delay collapses to logic depth... but
        # the arcs were computed with the default model, so it stays
        # above pure depth.
        assert report.critical_delay >= 2.0

    def test_routed_tracks_placement_estimate(self, fabric):
        """Routed delay is finite and at least the placement-level
        estimate's logic depth contribution."""
        circuit = _small_circuit()
        placement, routing = self._route(circuit, fabric)
        routed = routed_critical_path(
            circuit, mdr_arc_delays(circuit, placement, routing)
        )
        placed = routed_critical_path(
            circuit, placed_arc_delays(circuit, placement.sites)
        )
        # The router can only add detours on top of Manhattan distance.
        assert routed.critical_delay >= 0.6 * placed.critical_delay


class TestDcsArcDelays:
    def test_merged_modes_have_full_arc_cover(self):
        from repro.core.combined_placement import (
            merge_with_combined_placement,
        )
        from repro.core.merge import MergeStrategy
        from repro.route.troute import route_tunable_circuit

        def chain(name, depth, registered):
            c = LutCircuit(name, 4)
            c.add_input("x")
            c.add_input("y")
            prev = ("x", "y")
            for i in range(depth):
                c.add_block(
                    f"{name}_n{i}", prev, _xor2(),
                    registered=registered and i == 0,
                )
                prev = (f"{name}_n{i}", "x")
            c.add_output(f"{name}_n{depth - 1}")
            return c

        modes = [chain("m0", 4, False), chain("m1", 5, True)]
        arch = FpgaArchitecture(nx=4, ny=4, channel_width=8, k=4)
        tunable, _ = merge_with_combined_placement(
            "mm", modes, arch,
            strategy=MergeStrategy.WIRE_LENGTH, seed=1,
        )
        g = build_rrg(arch)
        routing = route_tunable_circuit(
            g, tunable.site_connections(), 2
        )
        for mode, original in enumerate(modes):
            arcs = dcs_arc_delays(tunable, routing, mode)
            specialized = tunable.specialize(mode)
            report = routed_critical_path(specialized, arcs)
            assert report.critical_delay > 0
            assert report.critical_path

    def test_timing_comparison_ratios(self):
        from repro.timing.sta import StaReport

        mdr = [StaReport(2.0, 1, ("a",)), StaReport(4.0, 1, ("b",))]
        dcs = [StaReport(3.0, 1, ("a",)), StaReport(4.0, 1, ("b",))]
        comp = timing_comparison(mdr, dcs)
        assert comp.ratios() == (1.5, 1.0)
        assert comp.mean_ratio == pytest.approx(1.25)
        assert comp.worst_ratio == pytest.approx(1.5)

    def test_comparison_requires_matching_lengths(self):
        from repro.timing.sta import StaReport

        with pytest.raises(ValueError):
            timing_comparison([StaReport(1.0, 1, ())], [])
