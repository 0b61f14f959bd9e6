"""Router lookahead + partial rip-up (the PR's QoR-gated opt-ins).

Three contracts:

* **Admissibility** — for sampled ``(node, sink)`` pairs across every
  generator family plus the classic architecture, the lookahead's
  cost (and delay) lower bound never exceeds the true cheapest
  entering-cost path in the concrete RRG, and ``+inf`` entries only
  ever mark genuinely unreachable pairs (sound pruning).
* **Bit-identity between exact cores** — the lookahead changes
  results *versus the Manhattan default* (tighter bounds, different
  tie-breaks), never between the scalar and vectorized cores: with
  it enabled (alone or with partial rip-up) both cores must stay
  byte-identical across untimed, timing-driven and TRoute paths.
* **Legality + caching** — partial rip-up results pass
  ``validate_routing``; the tables are deterministic, picklable, and
  memoized under the ``"lookahead"`` exec-cache stage (hits after the
  first build, surviving a generous LRU prune).
"""

import heapq
import pickle

import pytest

from repro.arch.architecture import FpgaArchitecture
from repro.arch.rrg import SINK, build_rrg
from repro.core.combined_placement import merge_with_combined_placement
from repro.core.merge import MergeStrategy
from repro.core.flow import FlowOptions
from repro.route.lookahead import (
    RouterLookahead,
    build_lookahead,
)
from repro.route.router import scalar_router_forced, validate_routing
from repro.route.troute import (
    route_lut_circuit,
    route_tunable_circuit,
)
from repro.timing.delay import DelayModel

from tests.test_router_equivalence import (
    FAMILIES,
    _assert_identical,
    _pair_fixture,
)

_INF = float("inf")


def _true_costs_to(rrg, sink, weight):
    """Reference: exact entering-cost distance to *sink* per node.

    ``dist[u]`` is the minimum over real paths ``u -> ... -> sink`` of
    the sum of ``weight`` over every node after ``u`` — the quantity
    an admissible A* heuristic must lower-bound (``g`` already covers
    entering ``u``).  Deliberately independent of the module under
    test: plain Dijkstra over the reversed concrete adjacency.
    """
    rev = [[] for _ in range(rrg.n_nodes)]
    for u in range(rrg.n_nodes):
        for v, _bit in rrg.adjacency[u]:
            rev[v].append(u)
    dist = [_INF] * rrg.n_nodes
    dist[sink] = 0.0
    heap = [(0.0, sink)]
    while heap:
        d, w = heapq.heappop(heap)
        if d > dist[w]:
            continue
        nd = d + weight[w]
        for u in rev[w]:
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist


def _sample_sinks(rrg, limit=3):
    sinks = [
        i for i in range(rrg.n_nodes) if rrg.node_kind[i] == SINK
    ]
    step = max(1, len(sinks) // limit)
    return sinks[::step][:limit]


def _assert_admissible(rrg, model=None):
    tables = build_lookahead(rrg, model)
    lookahead = RouterLookahead(rrg, tables)
    base = rrg.base_cost_array()
    delays = (
        [model.node_delay(rrg, i) for i in range(rrg.n_nodes)]
        if model is not None
        else None
    )
    for sink in _sample_sinks(rrg):
        bound = lookahead.cost_array(sink)
        true = _true_costs_to(rrg, sink, base)
        for node in range(rrg.n_nodes):
            assert bound[node] <= true[node] + 1e-9, (
                f"cost bound {bound[node]} exceeds true "
                f"{true[node]} for node {node} -> sink {sink}"
            )
            if bound[node] == _INF:
                # Sound pruning: +inf only on provably dead pairs.
                assert true[node] == _INF
        if delays is not None:
            dbound = lookahead.delay_array(sink)
            dtrue = _true_costs_to(rrg, sink, delays)
            for node in range(rrg.n_nodes):
                assert dbound[node] <= dtrue[node] + 1e-9


class TestAdmissibility:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_generator_families(self, family):
        _n, _m, _a, rrg, _p, _s = _pair_fixture(family)
        _assert_admissible(rrg, DelayModel())

    def test_classic_arch(self):
        arch = FpgaArchitecture(nx=4, ny=4, channel_width=4, k=4)
        _assert_admissible(build_rrg(arch), DelayModel())

    def test_tighter_than_zero_and_finite_on_routable(self):
        """On a routable fabric the bound is finite wherever a path
        exists and strictly positive away from the sink's own class
        (the heuristic actually prices the OPIN/IPIN hops Manhattan
        ignores)."""
        _n, _m, _a, rrg, _p, _s = _pair_fixture("xbar")
        lookahead = RouterLookahead(rrg, build_lookahead(rrg))
        sink = _sample_sinks(rrg, limit=1)[0]
        bound = lookahead.cost_array(sink)
        finite = [b for b in bound if b != _INF]
        assert finite, "every node priced unreachable"
        assert max(finite) > 0.0


class TestDeterminismAndPickle:
    def test_build_is_deterministic(self):
        _n, _m, _a, rrg, _p, _s = _pair_fixture("fsm")
        a = build_lookahead(rrg, DelayModel())
        b = build_lookahead(rrg, DelayModel())
        assert a.offx == b.offx and a.offy == b.offy
        assert a.cost.keys() == b.cost.keys()
        for kind in a.cost:
            assert (a.cost[kind] == b.cost[kind]).all()
            assert (a.delay[kind] == b.delay[kind]).all()

    def test_tables_pickle_roundtrip(self):
        """The stage cache stores raw tables; the router wraps them."""
        _n, _m, _a, rrg, _p, _s = _pair_fixture("datapath")
        tables = build_lookahead(rrg, DelayModel())
        restored = pickle.loads(pickle.dumps(tables))
        for kind in tables.cost:
            assert (
                restored.cost[kind] == tables.cost[kind]
            ).all()
        sink = _sample_sinks(rrg, limit=1)[0]
        assert (
            RouterLookahead(rrg, restored).cost_array(sink)
            == RouterLookahead(rrg, tables).cost_array(sink)
        ).all()

    def test_delay_tables_required_for_timed(self):
        _n, _m, _a, rrg, _p, _s = _pair_fixture("datapath")
        lookahead = RouterLookahead(rrg, build_lookahead(rrg))
        with pytest.raises(ValueError, match="delay model"):
            lookahead.delay_array(_sample_sinks(rrg, limit=1)[0])


class TestCoreEquivalence:
    """Scalar+lookahead == vectorized+lookahead, bit for bit."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_untimed(self, family, monkeypatch):
        _n, modes, _a, rrg, placements, _s = _pair_fixture(family)
        tables = build_lookahead(rrg)
        for circuit, placement in zip(modes, placements):
            monkeypatch.setenv("REPRO_SCALAR_ROUTER", "1")
            scalar = route_lut_circuit(
                circuit, placement, rrg, lookahead=tables
            )
            monkeypatch.delenv("REPRO_SCALAR_ROUTER")
            vector = route_lut_circuit(
                circuit, placement, rrg, lookahead=tables
            )
            _assert_identical(scalar, vector)
            validate_routing(vector)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_timing_driven(self, family, monkeypatch):
        timing = FlowOptions(
            seed=0, inner_num=0.1, timing_driven=True
        ).criticality()
        _n, modes, _a, rrg, placements, _s = _pair_fixture(family)
        tables = build_lookahead(rrg, timing.model)
        for circuit, placement in zip(modes, placements):
            monkeypatch.setenv("REPRO_SCALAR_ROUTER", "1")
            scalar = route_lut_circuit(
                circuit, placement, rrg, timing=timing,
                lookahead=tables,
            )
            monkeypatch.delenv("REPRO_SCALAR_ROUTER")
            vector = route_lut_circuit(
                circuit, placement, rrg, timing=timing,
                lookahead=tables,
            )
            _assert_identical(scalar, vector)

    @pytest.mark.parametrize("family", ("datapath", "klut"))
    def test_troute(self, family, monkeypatch):
        name, modes, arch, rrg, _p, schedule = _pair_fixture(family)
        tunable, _ = merge_with_combined_placement(
            name, modes, arch,
            strategy=MergeStrategy.WIRE_LENGTH, seed=0,
            schedule=schedule,
        )
        conns = tunable.site_connections()
        tables = build_lookahead(rrg)
        kwargs = dict(
            net_affinity=0.5, bit_affinity=0.3, sharing_passes=2,
            lookahead=tables,
        )
        monkeypatch.setenv("REPRO_SCALAR_ROUTER", "1")
        scalar = route_tunable_circuit(
            rrg, conns, len(modes), **kwargs
        )
        monkeypatch.delenv("REPRO_SCALAR_ROUTER")
        vector = route_tunable_circuit(
            rrg, conns, len(modes), **kwargs
        )
        _assert_identical(scalar, vector)
        validate_routing(vector)


class TestPartialRipup:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_legal_and_identical_across_cores(
        self, family, monkeypatch
    ):
        _n, modes, _a, rrg, placements, _s = _pair_fixture(family)
        tables = build_lookahead(rrg)
        for circuit, placement in zip(modes, placements):
            monkeypatch.setenv("REPRO_SCALAR_ROUTER", "1")
            scalar = route_lut_circuit(
                circuit, placement, rrg, lookahead=tables,
                partial_ripup=True,
            )
            monkeypatch.delenv("REPRO_SCALAR_ROUTER")
            vector = route_lut_circuit(
                circuit, placement, rrg, lookahead=tables,
                partial_ripup=True,
            )
            _assert_identical(scalar, vector)
            validate_routing(vector)

    def test_troute_multi_mode_legal(self, monkeypatch):
        """Partial rip-up must preserve the per-mode trunk-anchoring
        contract ``validate_routing`` checks on multi-mode trees."""
        name, modes, arch, rrg, _p, schedule = _pair_fixture("xbar")
        tunable, _ = merge_with_combined_placement(
            name, modes, arch,
            strategy=MergeStrategy.WIRE_LENGTH, seed=0,
            schedule=schedule,
        )
        conns = tunable.site_connections()
        result = route_tunable_circuit(
            rrg, conns, len(modes),
            net_affinity=0.5, bit_affinity=0.3, sharing_passes=2,
            partial_ripup=True,
        )
        validate_routing(result)

    def test_batched_core_accepts_flag_as_noop(self):
        """The batched core documents partial_ripup as a no-op: the
        flag must not change its (deterministic) result."""
        if scalar_router_forced():
            pytest.skip(
                "REPRO_SCALAR_ROUTER overrides batched dispatch; "
                "the scalar core does honour partial_ripup"
            )
        _n, modes, _a, rrg, placements, _s = _pair_fixture("fsm")
        circuit, placement = modes[0], placements[0]
        base = route_lut_circuit(
            circuit, placement, rrg, batched=True
        )
        flagged = route_lut_circuit(
            circuit, placement, rrg, batched=True,
            partial_ripup=True,
        )
        _assert_identical(base, flagged)


class TestFlowIntegration:
    def test_flow_option_routes_through_lookahead(self, tmp_path):
        """A flow with ``router_lookahead=True`` memoizes the tables
        under the ``lookahead`` stage (second run hits), survives an
        in-budget LRU prune, and stays deterministic."""
        from repro.core.flow import implement_multi_mode
        from repro.exec.cache import StageCache

        _n, modes, _a, _r, _p, _s = _pair_fixture("datapath")
        options = FlowOptions(
            seed=0, inner_num=0.1, router_lookahead=True,
            partial_ripup=True,
        )
        cache = StageCache(str(tmp_path))
        first = implement_multi_mode(
            "lk", modes, options, cache=cache
        )
        entries = list(
            (tmp_path / "lookahead").rglob("*.pkl")
        )
        assert entries, "lookahead tables were not cached"

        # A generous prune (the CI workflows' 512 MiB budget dwarfs
        # these tables) must keep the entry hitting.
        cache.prune(512 * 1024 * 1024)
        cache2 = StageCache(str(tmp_path))
        stats_before = cache2.stats.hits
        second = implement_multi_mode(
            "lk", modes, options, cache=cache2
        )
        assert cache2.stats.hits > stats_before
        assert list((tmp_path / "lookahead").rglob("*.pkl"))
        assert (
            first.mdr.cost.total == second.mdr.cost.total
        )
        for strategy, dcs in first.dcs.items():
            assert (
                dcs.cost.total == second.dcs[strategy].cost.total
            )

    def test_lookahead_differs_only_in_tiebreaks(self):
        """QoR sanity at tiny scale: enabling the lookahead keeps
        wirelength within the campaign gate's 5% tolerance of the
        Manhattan default (it changes tie-breaks, not quality)."""
        _n, modes, _a, rrg, placements, _s = _pair_fixture("klut")
        tables = build_lookahead(rrg)
        circuit, placement = modes[0], placements[0]
        base = route_lut_circuit(circuit, placement, rrg)
        lk = route_lut_circuit(
            circuit, placement, rrg, lookahead=tables
        )
        wl0 = base.total_wirelength(0)
        wl1 = lk.total_wirelength(0)
        assert wl1 <= wl0 * 1.05
