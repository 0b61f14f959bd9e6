"""Direct tests for the TRoute workload helpers."""

import pytest

from repro.arch.architecture import FpgaArchitecture, Site
from repro.arch.rrg import build_rrg
from repro.netlist.lutcircuit import LutCircuit
from repro.netlist.truthtable import TruthTable
from repro.place.cost import total_cost
from repro.place.placer import pad_cell, place_circuit
from repro.route.troute import (
    lut_circuit_connections,
    route_tunable_circuit,
)


@pytest.fixture(scope="module")
def fabric():
    arch = FpgaArchitecture(nx=3, ny=3, channel_width=6)
    return arch, build_rrg(arch)


def tiny_circuit():
    c = LutCircuit("tiny", 4)
    c.add_input("a")
    c.add_block("x", ("a",), ~TruthTable.var(0, 1))
    c.add_block(
        "y", ("x", "a"),
        TruthTable.var(0, 2) & TruthTable.var(1, 2),
    )
    c.add_output("y")
    c.add_output("x")
    return c


class TestLutCircuitConnections:
    def test_connection_inventory(self, fabric):
        arch, _rrg = fabric
        c = tiny_circuit()
        placement = place_circuit(c, arch, seed=0)
        conns = lut_circuit_connections(c, placement, mode=3)
        # x: 1 input pin; y: 2 input pins; 2 PO taps.
        assert len(conns) == 5
        assert all(modes == frozenset((3,)) for *_x, modes in conns)

    def test_sources_resolved_to_sites(self, fabric):
        arch, _rrg = fabric
        c = tiny_circuit()
        placement = place_circuit(c, arch, seed=0)
        conns = lut_circuit_connections(c, placement)
        for _net, src_site, sink_site, _modes in conns:
            assert isinstance(src_site, Site)
            assert isinstance(sink_site, Site)
        # The PI net sources at the pad site.
        pi_conns = [
            c2 for c2 in conns if c2[1] == placement.sites[
                pad_cell("a")
            ]
        ]
        assert len(pi_conns) == 2  # feeds x and y

    def test_net_names_mode_scoped(self, fabric):
        arch, _rrg = fabric
        c = tiny_circuit()
        placement = place_circuit(c, arch, seed=0)
        conns0 = lut_circuit_connections(c, placement, mode=0)
        conns1 = lut_circuit_connections(c, placement, mode=1)
        nets0 = {net for net, *_rest in conns0}
        nets1 = {net for net, *_rest in conns1}
        assert nets0.isdisjoint(nets1)


class TestRouteTunableCircuit:
    def test_affinity_validation(self, fabric):
        _arch, rrg = fabric
        a = Site("clb", 1, 1)
        b = Site("clb", 3, 3)
        conns = [("n", a, b, frozenset((0,)))]
        with pytest.raises(ValueError):
            route_tunable_circuit(rrg, conns, 1, net_affinity=0.0)

    def test_multi_mode_workload(self, fabric):
        _arch, rrg = fabric
        a = Site("clb", 1, 1)
        b = Site("clb", 3, 3)
        c = Site("clb", 3, 1)
        conns = [
            ("n1", a, b, frozenset((0, 1))),
            ("n1", a, c, frozenset((0,))),
            ("n2", c, b, frozenset((1,))),
        ]
        result = route_tunable_circuit(rrg, conns, 2)
        assert len(result.routes) == 3
        params = result.parameterized_bits()
        # The shared connection alone is static; the two
        # mode-specific ones are parameterised unless they overlap.
        assert params == result.bits_on(0) ^ result.bits_on(1)

    def test_single_mode_has_no_param_bits(self, fabric):
        _arch, rrg = fabric
        a = Site("clb", 1, 1)
        b = Site("clb", 2, 2)
        result = route_tunable_circuit(
            rrg, [("n", a, b, frozenset((0,)))], 1
        )
        assert result.parameterized_bits() == set()


class TestCostHelpers:
    def test_total_cost_sums_nets(self):
        nets = [
            [(0, 0), (3, 4)],         # 7
            [(1, 1), (1, 1)],         # 0
            [(0, 0), (2, 0), (0, 2)],  # q(3)*(2+2) = 4
        ]
        assert total_cost(nets) == pytest.approx(11.0)
