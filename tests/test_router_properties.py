"""Property-based tests on the router: random feasible workloads must
route legally and validate."""

import random

from hypothesis import given, settings, strategies as st

from repro.arch.architecture import FpgaArchitecture
from repro.arch.rrg import build_rrg
from repro.route.router import (
    PathFinderRouter,
    RouteRequest,
    validate_routing,
)

ARCH = FpgaArchitecture(nx=5, ny=5, channel_width=5, fc_in=0.5,
                        fc_out=0.5)
RRG = build_rrg(ARCH)


def feasible_workload(seed: int, n_modes: int):
    """Random workload respecting netlist realities: one net per
    source block, per-(sink, mode) demand within sink capacity."""
    rng = random.Random(seed)
    sources = {
        f"net_{x}_{y}": RRG.clb_opin[(x, y)]
        for x in range(1, 6)
        for y in range(1, 6)
    }
    names = sorted(sources)
    demand = {}
    requests = []
    cid = 0
    for _ in range(rng.randint(5, 30)):
        net = names[rng.randrange(len(names))]
        tx, ty = rng.randint(1, 5), rng.randint(1, 5)
        sink = RRG.clb_sink[(tx, ty)]
        modes = frozenset(
            rng.sample(range(n_modes), rng.randint(1, n_modes))
        )
        if any(
            len(demand.get((sink, m), set()) | {net}) > ARCH.k
            for m in modes
        ):
            continue
        if any(
            r.net == net and r.sink == sink for r in requests
        ):
            continue
        for m in modes:
            demand.setdefault((sink, m), set()).add(net)
        requests.append(
            RouteRequest(cid, net, sources[net], sink, modes)
        )
        cid += 1
    return requests


class TestRouterProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_single_mode_workloads_route_and_validate(self, seed):
        requests = feasible_workload(seed, n_modes=1)
        router = PathFinderRouter(RRG, n_modes=1, max_iterations=30)
        result = router.route(requests)
        assert not router.congestion()
        validate_routing(result)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_two_mode_workloads_route_and_validate(self, seed):
        requests = feasible_workload(seed, n_modes=2)
        router = PathFinderRouter(
            RRG, n_modes=2, max_iterations=30, net_affinity=0.5
        )
        result = router.route(requests)
        assert not router.congestion()
        validate_routing(result)
        # Bit accounting identities.
        bits0, bits1 = result.bits_on(0), result.bits_on(1)
        static_on = bits0 & bits1
        for route in result.routes.values():
            if route.request.modes == frozenset((0, 1)):
                assert route.bits() <= static_on

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_occupancy_bookkeeping_consistent(self, seed):
        """occ[m][node] must equal the number of distinct nets whose
        refcounts cover the node after routing."""
        requests = feasible_workload(seed, n_modes=2)
        router = PathFinderRouter(RRG, n_modes=2, max_iterations=30)
        router.route(requests)
        expected = {}
        for (net, mode), refs in router._net_mode_refs.items():
            for node, count in refs.items():
                assert count > 0
                expected.setdefault((mode, node), set()).add(net)
        for mode in range(2):
            for node in range(RRG.n_nodes):
                want = len(expected.get((mode, node), ()))
                assert router._occ[mode][node] == want

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_shared_connection_weight_is_consistent(self, seed):
        """Under random history, occupancy, net references and on
        bits, a connection active in every mode prices every edge
        ``u -> v`` at least ``w * (M(u, t) - M(v, t))`` for the
        router's shared weight ``w`` (M = Manhattan distance
        to the target): the bound is consistent, so raising the weight
        from the affinity floor cannot move a route."""
        rng = random.Random(seed)
        n_modes = rng.randint(2, 3)
        router = PathFinderRouter(
            RRG, n_modes=n_modes, net_affinity=0.5, bit_affinity=0.3
        )
        n = RRG.n_nodes
        router._hist[:] = [rng.uniform(0.0, 3.0) for _ in range(n)]
        for occ in router._occ:
            occ[:] = [rng.randint(0, 2) for _ in range(n)]
        net = "net_1_1"
        for mode in range(n_modes):
            router._net_mode_refs[(net, mode)] = dict.fromkeys(
                rng.sample(range(n), 60), 1
            )
            router._bit_refs[mode] = dict.fromkeys(
                rng.sample(range(RRG.n_bits), 60), 1
            )
        target = RRG.clb_sink[(rng.randint(1, 5), rng.randint(1, 5))]
        request = RouteRequest(
            0, net, RRG.clb_opin[(1, 1)], target,
            frozenset(range(n_modes)),
        )
        pn, pnA, static_set = router._price_vectors(
            request, rng.uniform(0.0, 4.0)
        )
        # No bit discount for a shared connection.
        assert pnA is pn and not static_set
        w = router._shared_fac
        assert w == 0.5 > router.astar_fac
        xs, ys = RRG.node_x, RRG.node_y
        tx, ty = xs[target], ys[target]
        man = [abs(x - tx) + abs(y - ty) for x, y in zip(xs, ys)]
        for u, edges in enumerate(RRG.adjacency):
            for v, _bit in edges:
                assert w * (man[u] - man[v]) <= pn[v]
