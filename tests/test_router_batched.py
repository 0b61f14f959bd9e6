"""Batched-wavefront router (its QoR contract).

The batched router (:mod:`repro.route.batched`) is *not* bit-identical
to the scalar/vectorized cores — its bucket queue settles whole
cost-quantized frontiers and its parallel-net negotiation reorders
rip-up work — so these tests pin what it does guarantee instead:

* legality (every route validates) and QoR within a gate tolerance of
  the vectorized reference, across the four generator families,
  untimed and timing-driven;
* bit-identical results for any ``route_workers`` value (conflicts
  are replayed in canonical net order, so thread fan-out cannot leak
  into the answer);
* stage-cache keys that keep batched and non-batched results apart
  (warm reruns reproduce their cold runs).

The core is selected at dispatch time unless ``REPRO_SCALAR_ROUTER``
forces the scalar reference, so the tests that need the batched core
unset that variable first.
"""

import pytest

from repro.arch.architecture import size_for_circuits
from repro.arch.rrg import build_rrg
from repro.core.flow import FlowOptions
from repro.gen.spec import build_circuit
from repro.gen.suites import suite_pair_specs
from repro.place.placer import place_circuit
from repro.route.batched import BatchedPathFinderRouter
from repro.route.router import PathFinderRouter, validate_routing
from repro.route.searchkernel import RouterStats
from repro.route.troute import route_lut_circuit, route_tunable_circuit

FAMILIES = ("datapath", "fsm", "xbar", "klut")

#: QoR gate: batched wirelength within this factor of vectorized.
#: The cores explore bucket-quantized frontiers, so individual routes
#: differ; the bench workload stays within ~6%, the tiny circuits
#: here within ~15% in the worst family.
WL_TOLERANCE = 1.20


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


def _wirelength(result):
    return sum(
        result.total_wirelength(m) for m in range(result.n_modes)
    )


def _assert_identical(a, b):
    assert a.iterations == b.iterations
    assert a.routes.keys() == b.routes.keys()
    for conn_id in a.routes:
        assert a.routes[conn_id].edges == b.routes[conn_id].edges, (
            f"connection {conn_id} diverged"
        )


class TestDispatch:
    def test_batched_flag_selects_batched_core(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALAR_ROUTER", raising=False)
        _n, modes, _a, rrg, _p, _s = _pair_fixture("fsm")
        router = PathFinderRouter(rrg, n_modes=1, batched=True)
        assert isinstance(router, BatchedPathFinderRouter)

    def test_scalar_escape_hatch_trumps_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALAR_ROUTER", "1")
        _n, modes, _a, rrg, _p, _s = _pair_fixture("fsm")
        router = PathFinderRouter(rrg, n_modes=1, batched=True)
        assert not isinstance(router, BatchedPathFinderRouter)


class TestRouterQoR:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_untimed_within_gate(self, family):
        _n, modes, _a, rrg, placements, _s = _pair_fixture(family)
        for circuit, placement in zip(modes, placements):
            batched = route_lut_circuit(
                circuit, placement, rrg, batched=True
            )
            validate_routing(batched)
            reference = route_lut_circuit(circuit, placement, rrg)
            assert (
                _wirelength(batched)
                <= WL_TOLERANCE * _wirelength(reference)
            ), f"{family}/{circuit.name}"

    @pytest.mark.parametrize("family", FAMILIES)
    def test_timing_driven_within_gate(self, family):
        _n, modes, _a, rrg, placements, _s = _pair_fixture(family)
        timing = FlowOptions(
            seed=0, inner_num=0.1, timing_driven=True
        ).criticality()
        for circuit, placement in zip(modes, placements):
            batched = route_lut_circuit(
                circuit, placement, rrg, timing=timing, batched=True
            )
            validate_routing(batched)
            reference = route_lut_circuit(
                circuit, placement, rrg, timing=timing
            )
            assert (
                _wirelength(batched)
                <= WL_TOLERANCE * _wirelength(reference)
            ), f"{family}/{circuit.name}"

    def test_tunable_within_gate(self):
        from repro.core.combined_placement import (
            merge_with_combined_placement,
        )
        from repro.core.merge import MergeStrategy

        name, modes, arch, rrg, _p, schedule = _pair_fixture("xbar")
        tunable, _ = merge_with_combined_placement(
            name, modes, arch,
            strategy=MergeStrategy.WIRE_LENGTH, seed=0,
            schedule=schedule,
        )
        conns = tunable.site_connections()
        defaults = FlowOptions()
        kwargs = dict(
            net_affinity=defaults.net_affinity,
            bit_affinity=defaults.bit_affinity,
            sharing_passes=defaults.sharing_passes,
        )
        batched = route_tunable_circuit(
            rrg, conns, len(modes), batched=True, **kwargs
        )
        validate_routing(batched)
        reference = route_tunable_circuit(
            rrg, conns, len(modes), **kwargs
        )
        assert (
            _wirelength(batched)
            <= WL_TOLERANCE * _wirelength(reference)
        )


class TestWorkerIndependence:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_worker_count_cannot_change_results(self, family):
        _n, modes, _a, rrg, placements, _s = _pair_fixture(family)
        circuit, placement = modes[0], placements[0]
        results = {
            workers: route_lut_circuit(
                circuit, placement, rrg,
                batched=True, route_workers=workers,
            )
            for workers in (1, 2, 4)
        }
        _assert_identical(results[1], results[2])
        _assert_identical(results[1], results[4])

    def test_stats_accumulate(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALAR_ROUTER", raising=False)
        _n, modes, _a, rrg, placements, _s = _pair_fixture("fsm")
        stats = RouterStats()
        route_lut_circuit(
            modes[0], placements[0], rrg, batched=True, stats=stats
        )
        assert stats.searches > 0
        assert stats.drains > 0
        assert stats.pops >= stats.drains
        report = stats.as_dict()
        assert report["mean_frontier"] > 0


class TestBatchedFlagsThroughFlow:
    """Warm/cold stage-cache identity for the batched-router knob."""

    @pytest.mark.parametrize(
        "options",
        [FlowOptions(seed=0, inner_num=0.1, batched_router=True)],
        ids=["batched_router"],
    )
    def test_warm_rerun_reproduces_cold(self, options, tmp_path):
        from repro.core.flow import implement_multi_mode
        from repro.exec.cache import StageCache

        _n, modes, _a, _r, _p, _s = _pair_fixture("fsm")
        cache = StageCache(str(tmp_path / "cache"))
        cold = implement_multi_mode(
            "pair", modes, options=options, cache=cache
        )
        warm = implement_multi_mode(
            "pair", modes, options=options,
            cache=StageCache(str(tmp_path / "cache")),
        )
        assert cold.mdr.mean_wirelength() == warm.mdr.mean_wirelength()
        for strategy, result in cold.dcs.items():
            assert (
                result.mean_wirelength()
                == warm.dcs[strategy].mean_wirelength()
            )

    def test_batched_key_never_aliases_baseline(self, tmp_path):
        """A batched run must not serve a cached non-batched result
        (or vice versa) — the cores are not bit-identical."""
        from repro.core.flow import (
            dcs_stage_inputs,
            route_lut_stage_inputs,
        )
        from repro.core.merge import MergeStrategy
        from repro.exec.fingerprint import fingerprint

        _n, modes, arch, _r, placements, _s = _pair_fixture("fsm")
        base = FlowOptions(seed=0, inner_num=0.1)
        router_on = FlowOptions(
            seed=0, inner_num=0.1, batched_router=True
        )
        circuit, placement = modes[0], placements[0]
        assert fingerprint(
            *route_lut_stage_inputs(circuit, placement, arch, base)
        ) != fingerprint(
            *route_lut_stage_inputs(
                circuit, placement, arch, router_on
            )
        )
        assert fingerprint(
            *dcs_stage_inputs(
                "p", tuple(modes), arch,
                MergeStrategy.WIRE_LENGTH, base,
            )
        ) != fingerprint(
            *dcs_stage_inputs(
                "p", tuple(modes), arch,
                MergeStrategy.WIRE_LENGTH, router_on,
            )
        )
