"""Tests for the PathFinder router and TRoute workloads."""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.arch.architecture import FpgaArchitecture, Site
from repro.arch.rrg import build_rrg
from repro.netlist.lutcircuit import LutCircuit
from repro.netlist.truthtable import TruthTable
from repro.place.placer import place_circuit
from repro.route.router import (
    PathFinderRouter,
    RouteRequest,
    RoutingError,
)
from repro.route.troute import (
    parameterized_routing_bits,
    requests_from_connections,
    route_lut_circuit,
)


@pytest.fixture(scope="module")
def fabric():
    arch = FpgaArchitecture(nx=4, ny=4, channel_width=6, k=4)
    return arch, build_rrg(arch)


def _connected(route):
    """Path edges must chain source -> ... -> sink."""
    nodes = route.nodes()
    for (u, v, _b), a, b in zip(route.edges, nodes, nodes[1:]):
        assert (u, v) == (a, b)


class TestSingleMode:
    def test_single_connection(self, fabric):
        _arch, g = fabric
        req = RouteRequest(
            0, "n0",
            g.clb_opin[(1, 1)], g.clb_sink[(4, 4)], frozenset((0,)),
        )
        result = PathFinderRouter(g).route([req])
        route = result.routes[0]
        _connected(route)
        assert route.edges[0][0] == req.source
        assert route.edges[-1][1] == req.sink
        assert route.bits()  # switches were turned on

    def test_multi_sink_net_shares_trunk(self, fabric):
        _arch, g = fabric
        reqs = [
            RouteRequest(0, "n0", g.clb_opin[(1, 1)],
                         g.clb_sink[(4, 4)], frozenset((0,))),
            RouteRequest(1, "n0", g.clb_opin[(1, 1)],
                         g.clb_sink[(4, 3)], frozenset((0,))),
        ]
        result = PathFinderRouter(g).route(reqs)
        wires0 = result.routes[0].wire_nodes(g)
        wires1 = result.routes[1].wire_nodes(g)
        # Same net: overlap allowed (and encouraged by the discount).
        assert result.wires_used(0) == wires0 | wires1

    def test_congestion_negotiated(self, fabric):
        """Many nets through a narrow region must all become legal."""
        _arch, g = fabric
        reqs = []
        cid = 0
        for x in range(1, 5):
            reqs.append(RouteRequest(
                cid, f"n{cid}", g.clb_opin[(x, 1)],
                g.clb_sink[(x, 4)], frozenset((0,)),
            ))
            cid += 1
            reqs.append(RouteRequest(
                cid, f"n{cid}", g.clb_opin[(x, 4)],
                g.clb_sink[(x, 1)], frozenset((0,)),
            ))
            cid += 1
        router = PathFinderRouter(g)
        result = router.route(reqs)
        assert not router._congested_nodes()
        assert len(result.routes) == len(reqs)

    def test_unroutable_raises(self):
        arch = FpgaArchitecture(nx=2, ny=2, channel_width=1, k=4)
        g = build_rrg(arch)
        # Two different nets into the same block: only k ipins but
        # channel width 1 makes wires the bottleneck.
        reqs = [
            RouteRequest(0, "a", g.clb_opin[(1, 1)],
                         g.clb_sink[(2, 2)], frozenset((0,))),
            RouteRequest(1, "b", g.clb_opin[(1, 2)],
                         g.clb_sink[(2, 2)], frozenset((0,))),
            RouteRequest(2, "c", g.clb_opin[(2, 1)],
                         g.clb_sink[(2, 2)], frozenset((0,))),
            RouteRequest(3, "d", g.pad_opin[(1, 0, 0)],
                         g.clb_sink[(2, 2)], frozenset((0,))),
            RouteRequest(4, "e", g.pad_opin[(0, 1, 0)],
                         g.clb_sink[(2, 2)], frozenset((0,))),
        ]
        router = PathFinderRouter(g, max_iterations=6)
        with pytest.raises(RoutingError):
            router.route(reqs)

    def test_mode_out_of_range_rejected(self, fabric):
        _arch, g = fabric
        req = RouteRequest(0, "n", g.clb_opin[(1, 1)],
                           g.clb_sink[(2, 2)], frozenset((1,)))
        with pytest.raises(ValueError):
            PathFinderRouter(g, n_modes=1).route([req])


class TestMultiMode:
    def test_different_modes_share_wires(self, fabric):
        """Two modes may use the same wire without conflict."""
        _arch, g = fabric
        reqs = [
            RouteRequest(0, "a", g.clb_opin[(1, 1)],
                         g.clb_sink[(4, 1)], frozenset((0,))),
            RouteRequest(1, "b", g.clb_opin[(1, 1)],
                         g.clb_sink[(4, 1)], frozenset((1,))),
        ]
        router = PathFinderRouter(g, n_modes=2)
        result = router.route(reqs)
        assert not router._congested_nodes()

    def test_shared_connection_has_no_param_bits(self, fabric):
        _arch, g = fabric
        reqs = [
            RouteRequest(0, "a", g.clb_opin[(1, 1)],
                         g.clb_sink[(3, 3)], frozenset((0, 1))),
        ]
        result = PathFinderRouter(g, n_modes=2).route(reqs)
        assert parameterized_routing_bits(result) == set()
        assert result.bits_on(0) == result.bits_on(1)

    def test_mode_specific_bits_are_parameterized(self, fabric):
        _arch, g = fabric
        reqs = [
            RouteRequest(0, "a", g.clb_opin[(1, 1)],
                         g.clb_sink[(3, 3)], frozenset((0,))),
            RouteRequest(1, "b", g.clb_opin[(2, 1)],
                         g.clb_sink[(3, 2)], frozenset((1,))),
        ]
        result = PathFinderRouter(g, n_modes=2).route(reqs)
        params = parameterized_routing_bits(result)
        assert params == result.bits_on(0) ^ result.bits_on(1)
        assert params

    def test_wires_used_per_mode(self, fabric):
        _arch, g = fabric
        reqs = [
            RouteRequest(0, "a", g.clb_opin[(1, 1)],
                         g.clb_sink[(4, 4)], frozenset((0, 1))),
            RouteRequest(1, "b", g.clb_opin[(1, 4)],
                         g.clb_sink[(4, 1)], frozenset((1,))),
        ]
        result = PathFinderRouter(g, n_modes=2).route(reqs)
        assert result.wires_used(1) >= result.wires_used(0)
        assert result.total_wirelength(1) > result.total_wirelength(0) - 1


class TestTrouteHelpers:
    def test_requests_merge_duplicates(self, fabric):
        _arch, g = fabric
        a = Site("clb", 1, 1)
        b = Site("clb", 2, 2)
        conns = [
            ("n", a, b, frozenset((0,))),
            ("n", a, b, frozenset((1,))),
        ]
        reqs = requests_from_connections(g, conns)
        assert len(reqs) == 1
        assert reqs[0].modes == frozenset((0, 1))

    def test_route_lut_circuit_end_to_end(self, fabric):
        arch, g = fabric
        c = LutCircuit("tiny", 4)
        c.add_input("a")
        c.add_input("b")
        c.add_block("x", ("a", "b"),
                    TruthTable.var(0, 2) & TruthTable.var(1, 2))
        c.add_block("y", ("x", "a"),
                    TruthTable.var(0, 2) | TruthTable.var(1, 2))
        c.add_output("y")
        placement = place_circuit(c, arch, seed=2)
        result = route_lut_circuit(c, placement, g)
        # Connections: x(2 pins) + y(2 pins) + PO tap = 5.
        assert len(result.routes) == 5
        for route in result.routes.values():
            _connected(route)


class TestValidation:
    def test_validate_clean_routing(self, fabric):
        from repro.route.router import validate_routing

        _arch, g = fabric
        reqs = [
            RouteRequest(0, "a", g.clb_opin[(1, 1)],
                         g.clb_sink[(4, 4)], frozenset((0, 1))),
            RouteRequest(1, "a", g.clb_opin[(1, 1)],
                         g.clb_sink[(4, 2)], frozenset((0,))),
            RouteRequest(2, "b", g.clb_opin[(2, 3)],
                         g.clb_sink[(4, 4)], frozenset((1,))),
        ]
        result = PathFinderRouter(g, n_modes=2).route(reqs)
        validate_routing(result)

    def test_validate_detects_stranded_path(self, fabric):
        from repro.route.router import validate_routing

        _arch, g = fabric
        reqs = [
            RouteRequest(0, "a", g.clb_opin[(1, 1)],
                         g.clb_sink[(3, 3)], frozenset((0,))),
        ]
        result = PathFinderRouter(g).route(reqs)
        # Sabotage: chop off the first edge so the path no longer
        # starts at the source.
        route = result.routes[0]
        route.edges.pop(0)
        with pytest.raises(AssertionError):
            validate_routing(result)

    def test_rejects_illegal_routing_under_python_O(self):
        """``python -O`` strips ``assert`` statements; the checks must
        still reject a one-edge OPIN->SINK route the RRG lacks."""
        script = textwrap.dedent(
            """
            from repro.arch.architecture import FpgaArchitecture
            from repro.arch.rrg import build_rrg
            from repro.route.router import (
                ConnectionRoute, RouteRequest, RoutingResult,
                validate_routing,
            )

            g = build_rrg(FpgaArchitecture(nx=2, ny=2, channel_width=2))
            src, dst = g.clb_opin[(1, 1)], g.clb_sink[(2, 2)]
            request = RouteRequest(0, "n", src, dst, frozenset((0,)))
            route = ConnectionRoute(request, [(src, dst, -1)])
            print("debug", __debug__)
            try:
                validate_routing(RoutingResult(g, {0: route}, 1, 1))
            except AssertionError as exc:
                print("rejected", exc)
            else:
                print("accepted")
            """
        )
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "debug False",
            "rejected edge missing from RRG",
        ]

    def test_full_circuit_routing_validates(self, fabric):
        from repro.route.router import validate_routing

        arch, g = fabric
        c = LutCircuit("v", 4)
        c.add_input("a")
        c.add_input("b")
        prev = ("a", "b")
        for i in range(8):
            c.add_block(
                f"n{i}", prev,
                TruthTable.var(0, 2) ^ TruthTable.var(1, 2),
            )
            prev = (f"n{i}", "a" if i % 2 else "b")
        c.add_output("n7")
        placement = place_circuit(c, arch, seed=5)
        result = route_lut_circuit(c, placement, g)
        validate_routing(result)


class TestBitSharing:
    """Bit-level affinity: steering connections onto switches already
    on in the other modes so their bits become static."""

    def test_bit_affinity_validation(self, fabric):
        _arch, g = fabric
        with pytest.raises(ValueError):
            PathFinderRouter(g, bit_affinity=0.0)
        with pytest.raises(ValueError):
            PathFinderRouter(g, bit_affinity=1.5)
        with pytest.raises(ValueError):
            PathFinderRouter(g, sharing_passes=-1)

    def test_bit_refs_bookkeeping(self, fabric):
        _arch, g = fabric
        req = RouteRequest(
            0, "a", g.clb_opin[(1, 1)], g.clb_sink[(3, 3)],
            frozenset((1,)),
        )
        router = PathFinderRouter(g, n_modes=2)
        result = router.route([req])
        bits = result.routes[0].bits()
        assert bits
        for bit in bits:
            # On in mode 1, so turning it on in mode 0 makes it static.
            assert router._bit_becomes_static(bit, frozenset((0,)))
        # A bit no route uses stays mode-dependent.
        unused = next(
            b for b in range(g.n_bits) if b not in bits
        )
        assert not router._bit_becomes_static(unused, frozenset((0,)))

    def test_identical_endpoints_share_all_switches(self, fabric):
        """Different nets of different modes with the same endpoints
        end up on the same switches, leaving zero parameterised bits."""
        _arch, g = fabric
        reqs = [
            RouteRequest(0, "a", g.clb_opin[(1, 1)],
                         g.clb_sink[(4, 4)], frozenset((0,))),
            RouteRequest(1, "b", g.clb_opin[(1, 1)],
                         g.clb_sink[(4, 4)], frozenset((1,))),
        ]
        router = PathFinderRouter(
            g, n_modes=2, bit_affinity=0.3, sharing_passes=3
        )
        result = router.route(reqs)
        assert parameterized_routing_bits(result) == set()

    def test_sharing_never_increases_param_bits(self, fabric):
        """Same workload with and without sharing passes: the sweeps
        only keep strictly better legal solutions."""
        _arch, g = fabric
        reqs = []
        cid = 0
        for mode in (0, 1):
            for x in range(1, 5):
                reqs.append(RouteRequest(
                    cid, f"m{mode}n{x}", g.clb_opin[(x, 1)],
                    g.clb_sink[(5 - x, 4)], frozenset((mode,)),
                ))
                cid += 1
        base = PathFinderRouter(
            g, n_modes=2, bit_affinity=0.3, sharing_passes=0
        ).route(reqs)
        swept = PathFinderRouter(
            g, n_modes=2, bit_affinity=0.3, sharing_passes=3
        ).route(reqs)
        assert len(parameterized_routing_bits(swept)) <= len(
            parameterized_routing_bits(base)
        )

    def test_sharing_passes_keep_legality(self, fabric):
        from repro.route.router import validate_routing

        _arch, g = fabric
        reqs = []
        cid = 0
        for mode in (0, 1):
            for x in range(1, 5):
                for y in (1, 2):
                    reqs.append(RouteRequest(
                        cid, f"m{mode}n{cid}", g.clb_opin[(x, y)],
                        g.clb_sink[(5 - x, 4 - y)],
                        frozenset((mode,)),
                    ))
                    cid += 1
        router = PathFinderRouter(
            g, n_modes=2, bit_affinity=0.2, sharing_passes=4
        )
        result = router.route(reqs)
        validate_routing(result)

    def test_shared_connection_gets_no_discount_everywhere(self, fabric):
        """A connection active in every mode cannot create
        parameterised bits, so sharing leaves it alone."""
        _arch, g = fabric
        reqs = [
            RouteRequest(0, "a", g.clb_opin[(1, 1)],
                         g.clb_sink[(4, 4)], frozenset((0, 1))),
        ]
        router = PathFinderRouter(
            g, n_modes=2, bit_affinity=0.3, sharing_passes=3
        )
        result = router.route(reqs)
        assert parameterized_routing_bits(result) == set()

    def test_rebuild_state_roundtrip(self, fabric):
        """_rebuild_state reproduces occupancy exactly."""
        _arch, g = fabric
        reqs = [
            RouteRequest(0, "a", g.clb_opin[(1, 1)],
                         g.clb_sink[(3, 3)], frozenset((0,))),
            RouteRequest(1, "b", g.clb_opin[(2, 2)],
                         g.clb_sink[(4, 4)], frozenset((1,))),
        ]
        router = PathFinderRouter(g, n_modes=2)
        result = router.route(reqs)
        # _occ rows are numpy arrays; compare values, not types.
        occ_before = [list(map(int, row)) for row in router._occ]
        bit_refs_before = [dict(r) for r in router._bit_refs]
        router._rebuild_state(result.routes)
        assert [list(map(int, row)) for row in router._occ] == occ_before
        assert router._bit_refs == bit_refs_before
