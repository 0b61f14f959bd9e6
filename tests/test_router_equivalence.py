"""Scalar reference / production router equivalence.

The router (:class:`~repro.route.router.PathFinderRouter`, numpy
price lists and pruned heap searches) must make byte-identical
decisions to :class:`~repro.route.router.ScalarPathFinderRouter`, the
pure-Python reference that prices one node at a time: identical edge
lists, wirelength, iteration counts and bit sets, across circuit
families, pricing modes (untimed, timing-driven), affinity settings
and multi-mode activation shapes.  These tests route the same
workloads through both cores and compare results field by field.
"""

import numpy as np
import pytest

from repro.arch.architecture import size_for_circuits
from repro.arch.rrg import build_rrg
from repro.core.combined_placement import merge_with_combined_placement
from repro.core.merge import MergeStrategy
from repro.core.flow import FlowOptions
from repro.gen.spec import build_circuit
from repro.gen.suites import suite_pair_specs
from repro.place.placer import place_circuit
from repro.route import troute
from repro.route.router import (
    PathFinderRouter,
    RoutingError,
    ScalarPathFinderRouter,
)
from repro.route.searchkernel import RouterStats
from repro.route.troute import (
    lut_circuit_connections,
    requests_from_connections,
    route_lut_circuit,
    route_tunable_circuit,
)

FAMILIES = ("datapath", "fsm", "xbar", "klut")


def _assert_identical(a, b):
    """Two RoutingResults must match bit for bit."""
    assert a.iterations == b.iterations
    assert a.n_modes == b.n_modes
    assert a.routes.keys() == b.routes.keys()
    for conn_id in a.routes:
        ra, rb = a.routes[conn_id], b.routes[conn_id]
        assert ra.request == rb.request
        assert ra.edges == rb.edges, f"connection {conn_id} diverged"
    for mode in range(a.n_modes):
        assert a.bits_on(mode) == b.bits_on(mode)
        assert a.total_wirelength(mode) == b.total_wirelength(mode)


def _on_scalar(monkeypatch, route_fn, *args, **kwargs):
    """Run a :mod:`repro.route.troute` entry point on the scalar
    reference instead of the production core."""
    with monkeypatch.context() as patch:
        patch.setattr(troute, "PathFinderRouter", ScalarPathFinderRouter)
        return route_fn(*args, **kwargs)


def _pair_fixture(family, seed=0):
    pair_name, specs = suite_pair_specs(
        family, seed=seed, k=4, scale="tiny", limit=1
    )[0]
    modes = [build_circuit(spec) for spec in specs]
    ios = set()
    for circuit in modes:
        ios.update(circuit.inputs)
        ios.update(circuit.outputs)
    arch = size_for_circuits(
        max(c.n_luts() for c in modes), len(ios), k=4,
        channel_width=8, slack=1.2,
    )
    rrg = build_rrg(arch)
    schedule = FlowOptions(seed=seed, inner_num=0.1).schedule()
    placements = [
        place_circuit(c, arch, seed=seed + i, schedule=schedule)
        for i, c in enumerate(modes)
    ]
    return pair_name, modes, arch, rrg, placements, schedule


class TestDispatch:
    def test_default_is_vectorized(self):
        """One production core: constructing the router dispatches
        nowhere, and it prices from numpy congestion arrays."""
        _n, _m, _a, rrg, _p, _s = _pair_fixture("xbar")
        assert "__new__" not in vars(PathFinderRouter)
        router = PathFinderRouter(rrg)
        assert type(router) is PathFinderRouter
        assert isinstance(router._hist, np.ndarray)


class TestLutEquivalence:
    """Single-mode (MDR-style) routing, untimed and timing-driven."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_untimed(self, family, monkeypatch):
        _n, modes, _arch, rrg, placements, _s = _pair_fixture(family)
        for circuit, placement in zip(modes, placements):
            scalar = _on_scalar(
                monkeypatch, route_lut_circuit, circuit, placement, rrg
            )
            vector = route_lut_circuit(circuit, placement, rrg)
            _assert_identical(scalar, vector)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_timing_driven(self, family, monkeypatch):
        timing = FlowOptions(
            seed=0, inner_num=0.1, timing_driven=True
        ).criticality()
        _n, modes, _arch, rrg, placements, _s = _pair_fixture(family)
        for circuit, placement in zip(modes, placements):
            scalar = _on_scalar(
                monkeypatch, route_lut_circuit,
                circuit, placement, rrg, timing=timing,
            )
            vector = route_lut_circuit(
                circuit, placement, rrg, timing=timing
            )
            _assert_identical(scalar, vector)

    def test_pruned_search_pops_less(self):
        """Single-mode routing keeps its A* weight of 1.0, so only the
        dead-end pins and dead seeds the heap kernels skip separate
        its pop count from the scalar reference's."""
        _n, modes, _arch, rrg, placements, _s = _pair_fixture("fsm")
        requests = requests_from_connections(
            rrg, lut_circuit_connections(modes[0], placements[0])
        )
        scalar, vector = RouterStats(), RouterStats()
        _assert_identical(
            ScalarPathFinderRouter(rrg, stats=scalar).route(requests),
            PathFinderRouter(rrg, stats=vector).route(requests),
        )
        assert vector.searches == scalar.searches > 0
        assert vector.pops < scalar.pops


class TestTunableEquivalence:
    """Multi-mode TRoute with net/bit affinities and sharing sweeps —
    the pricing paths the scalar reference exercises per edge."""

    @pytest.mark.parametrize(
        "family",
        [
            pytest.param(f, marks=pytest.mark.smoke) if f == "klut"
            else f
            for f in FAMILIES
        ],
    )
    def test_troute(self, family, monkeypatch):
        name, modes, arch, rrg, _p, schedule = _pair_fixture(family)
        tunable, _ = merge_with_combined_placement(
            name, modes, arch,
            strategy=MergeStrategy.WIRE_LENGTH, seed=0,
            schedule=schedule,
        )
        conns = tunable.site_connections()
        kwargs = dict(
            net_affinity=0.5, bit_affinity=0.3, sharing_passes=2
        )
        scalar = _on_scalar(
            monkeypatch, route_tunable_circuit,
            rrg, conns, len(modes), **kwargs,
        )
        vector = route_tunable_circuit(
            rrg, conns, len(modes), **kwargs
        )
        _assert_identical(scalar, vector)

    def test_pruned_search_pops_less(self):
        """Same searches and routes as the scalar reference, strictly
        fewer heap pops: the heap kernels skip dead-end pins and
        dead seeds and, for connections active in every mode, search
        with the exact A* weight.  The weight alone (floor restored on
        an otherwise identical router) moves no route either."""
        name, modes, arch, rrg, _p, schedule = _pair_fixture("xbar")
        tunable, _ = merge_with_combined_placement(
            name, modes, arch,
            strategy=MergeStrategy.WIRE_LENGTH, seed=0,
            schedule=schedule,
        )
        requests = requests_from_connections(
            rrg, tunable.site_connections()
        )
        assert any(len(r.modes) == len(modes) for r in requests)
        kwargs = dict(
            n_modes=len(modes), net_affinity=0.5, bit_affinity=0.3,
            sharing_passes=2,
        )
        scalar, vector, floor = (RouterStats() for _ in range(3))
        expected = ScalarPathFinderRouter(
            rrg, stats=scalar, **kwargs
        ).route(requests)
        _assert_identical(expected, PathFinderRouter(
            rrg, stats=vector, **kwargs
        ).route(requests))
        assert vector.searches == scalar.searches > 0
        assert vector.pops < scalar.pops
        floor_router = PathFinderRouter(rrg, stats=floor, **kwargs)
        assert floor_router._shared_fac > floor_router.astar_fac
        floor_router._shared_fac = floor_router.astar_fac
        _assert_identical(expected, floor_router.route(requests))
        assert vector.pops < floor.pops

    def test_mixed_activation_sets(self):
        """Connections with {0}, {1} and {0, 1} activation sets of
        the *same* nets stress the price-entry subset invalidation."""
        name, modes, arch, rrg, placements, _s = _pair_fixture(
            "datapath"
        )
        conns = []
        for mode, (circuit, placement) in enumerate(
            zip(modes, placements)
        ):
            for net, src, dst, _m in lut_circuit_connections(
                circuit, placement, mode=mode
            ):
                # Fold per-mode nets onto shared names so one net
                # carries different activation sets.
                shared = net.split(":", 1)[1]
                conns.append((shared, src, dst, frozenset((mode,))))
        requests = requests_from_connections(rrg, conns)
        scalar = ScalarPathFinderRouter(
            rrg, n_modes=2, net_affinity=0.6, bit_affinity=0.4,
            sharing_passes=1,
        ).route(requests)
        vector = PathFinderRouter(
            rrg, n_modes=2, net_affinity=0.6, bit_affinity=0.4,
            sharing_passes=1,
        ).route(requests)
        _assert_identical(scalar, vector)

    def test_constant_pres_fac_history_invalidation(self):
        """With pres_fac_mult=1.0 the present-cost factor never
        changes, so only clearing the price cache on every history
        bump keeps it from serving vectors built against stale history
        costs (regression: the cache key alone relied on pres_fac
        moving with every history bump)."""
        from repro.arch.architecture import FpgaArchitecture
        from repro.route.router import RouteRequest

        # A congested crossing that needs several negotiation
        # iterations (history must accumulate).
        arch = FpgaArchitecture(nx=4, ny=4, channel_width=4, k=4)
        g = build_rrg(arch)
        reqs = []
        cid = 0
        for x in range(1, 5):
            reqs.append(RouteRequest(
                cid, f"d{cid}", g.clb_opin[(x, 1)],
                g.clb_sink[(5 - x, 4)], frozenset((0,)),
            ))
            cid += 1
            reqs.append(RouteRequest(
                cid, f"d{cid}", g.clb_opin[(x, 4)],
                g.clb_sink[(5 - x, 1)], frozenset((0,)),
            ))
            cid += 1
        kwargs = dict(pres_fac_mult=1.0, pres_fac_first=1.0,
                      acc_fac=2.0, max_iterations=40)
        scalar = ScalarPathFinderRouter(g, **kwargs).route(reqs)
        vector = PathFinderRouter(g, **kwargs).route(reqs)
        assert scalar.iterations > 1  # history actually negotiated
        _assert_identical(scalar, vector)

    def test_unroutable_raises_in_both(self):
        from repro.arch.architecture import FpgaArchitecture
        from repro.route.router import RouteRequest

        arch = FpgaArchitecture(nx=2, ny=2, channel_width=1, k=4)
        g = build_rrg(arch)
        reqs = [
            RouteRequest(i, f"n{i}", g.clb_opin[(1 + i % 2, 1)],
                         g.clb_sink[(2, 2)], frozenset((0,)))
            for i in range(4)
        ] + [
            RouteRequest(4, "p", g.pad_opin[(1, 0, 0)],
                         g.clb_sink[(2, 2)], frozenset((0,))),
        ]
        with pytest.raises(RoutingError):
            ScalarPathFinderRouter(g, max_iterations=4).route(reqs)
        with pytest.raises(RoutingError):
            PathFinderRouter(g, max_iterations=4).route(reqs)
