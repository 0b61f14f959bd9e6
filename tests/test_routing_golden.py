"""Golden digests of the PathFinder router and of the timing numbers.

Each routing case routes the tiny pair of every generator family and
hashes the outcome: every connection's ``(conn_id, net,
sorted(modes), edges)``, sorted, plus the negotiation's iteration
count.  Those literals were recorded before the batched core, the
router lookahead and partial rip-up were deleted; the router must
reproduce them bit for bit, so any drift in a route (a tie-break, a
float grouping, a search-graph pruning that changes a decision) fails
here, not only in the benchmark digest.
``tests/test_router_equivalence.py`` separately keeps the scalar
reference and the production core in lockstep.

The ``sta`` cases hash, on the same runs, every mode's routed MDR and
DCS report ``(critical_delay, n_endpoints, critical_path)``, its
placed critical delay and the sorted criticality maps of both router
adapters.  Their literals were recorded while the placed estimate and
the routed STA still had longest-path loops of their own, before both
moved onto ``CriticalityAnalyzer``.
"""

import hashlib

import pytest

from repro.arch.architecture import size_for_circuits
from repro.arch.rrg import build_rrg
from repro.core.combined_placement import merge_with_combined_placement
from repro.core.flow import FlowOptions
from repro.core.merge import MergeStrategy
from repro.gen.spec import build_circuit
from repro.gen.suites import suite_pair_specs
from repro.place.placer import place_circuit
from repro.route.troute import route_lut_circuit, route_tunable_circuit
from repro.timing.criticality import (
    lut_connection_criticalities,
    placed_arc_delays,
    tunable_cell_sites,
    tunable_connection_criticalities,
)
from repro.timing.sta import (
    dcs_arc_delays,
    mdr_arc_delays,
    routed_critical_path,
)

FAMILIES = ("datapath", "fsm", "xbar", "klut")
OPTIONS = FlowOptions(seed=0, inner_num=0.1)
TIMING = FlowOptions(
    seed=0, inner_num=0.1, timing_driven=True
).criticality()


def _pair(family):
    name, specs = suite_pair_specs(
        family, seed=0, k=4, scale="tiny", limit=1
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
    return name, modes, arch, build_rrg(arch)


def digest(results):
    """One SHA-256 over every routing: its sorted (conn_id, net,
    sorted modes, edges) rows plus its iteration count."""
    h = hashlib.sha256()
    for result in results:
        rows = sorted(
            (
                conn_id,
                route.request.net,
                sorted(route.request.modes),
                route.edges,
            )
            for conn_id, route in result.routes.items()
        )
        h.update(repr(rows).encode())
        h.update(repr(result.iterations).encode())
    return h.hexdigest()


def _mdr_runs(timing):
    """Place and route every mode of every family separately."""
    schedule = OPTIONS.schedule()
    for family in FAMILIES:
        _name, modes, arch, rrg = _pair(family)
        for mode, circuit in enumerate(modes):
            placement = place_circuit(
                circuit, arch, seed=mode, schedule=schedule
            )
            routing = route_lut_circuit(
                circuit, placement, rrg, timing=timing
            )
            yield rrg, mode, circuit, placement, routing


def _troute_runs(timing):
    """Merge every family's pair and route it with TRoute; the
    criticality map is always built, and used only when timed."""
    for family in FAMILIES:
        name, modes, arch, rrg = _pair(family)
        tunable, _ = merge_with_combined_placement(
            name, modes, arch, strategy=MergeStrategy.WIRE_LENGTH,
            seed=0, schedule=OPTIONS.schedule(),
        )
        criticality = tunable_connection_criticalities(
            tunable, rrg, TIMING
        )
        routing = route_tunable_circuit(
            rrg,
            tunable.site_connections(),
            len(modes),
            net_affinity=OPTIONS.net_affinity,
            bit_affinity=OPTIONS.bit_affinity,
            sharing_passes=OPTIONS.sharing_passes,
            criticality=criticality if timing is not None else None,
            delay_model=timing.model if timing is not None else None,
        )
        yield rrg, tunable, criticality, routing


def mdr_case(timing):
    return digest(run[-1] for run in _mdr_runs(timing))


def troute_case(timing):
    return digest(run[-1] for run in _troute_runs(timing))


def _report(report):
    return (
        report.critical_delay, report.n_endpoints, report.critical_path
    )


def sta_case(timing):
    """One SHA-256 over every mode's timing: the routed MDR and DCS
    reports, the placed critical delays and the sorted criticality
    maps of both router adapters."""
    h = hashlib.sha256()
    for rrg, mode, circuit, placement, routing in _mdr_runs(timing):
        routed = routed_critical_path(
            circuit, mdr_arc_delays(circuit, placement, routing)
        )
        placed = routed_critical_path(
            circuit, placed_arc_delays(circuit, placement.sites)
        ).critical_delay
        crit = lut_connection_criticalities(
            circuit, placement, rrg, TIMING, mode
        )
        h.update(
            repr((_report(routed), placed, sorted(crit.items())))
            .encode()
        )
    for _rrg, tunable, crit, routing in _troute_runs(timing):
        for mode, sites in enumerate(tunable_cell_sites(tunable)):
            circuit = tunable.specialize(mode)
            routed = routed_critical_path(
                circuit, dcs_arc_delays(tunable, routing, mode)
            )
            placed = routed_critical_path(
                circuit, placed_arc_delays(circuit, sites)
            ).critical_delay
            h.update(repr((_report(routed), placed)).encode())
        h.update(repr(sorted(crit.items())).encode())
    return h.hexdigest()


CASES = {
    "mdr": lambda: mdr_case(None),
    "mdr-timed": lambda: mdr_case(TIMING),
    "troute": lambda: troute_case(None),
    "troute-timed": lambda: troute_case(TIMING),
    "sta": lambda: sta_case(None),
    "sta-timed": lambda: sta_case(TIMING),
}

GOLDEN = {
    "mdr": (
        "f0d884eeee660a4fefd7c3870aab4c2449f50916e99414dfc2130a207c06b5a8"
    ),
    "mdr-timed": (
        "7f7e4a60e1341582cee06dc41f0c09b32a367972f81fd1d88fe8760882aafe8e"
    ),
    "troute": (
        "3b15d02944d9f361114bc228f2536970fd519dd52aa1aa4508e776257818e089"
    ),
    "troute-timed": (
        "0c1eb83eba0cb781bed79ac83c979a6d810f0feae5f92fc5e619a8dbd7cf6716"
    ),
    "sta": (
        "644937709a6d4012644bb340cf330ad80fa5e0cecfc24c089f8cd2d498c316d5"
    ),
    "sta-timed": (
        "452a12c1014fd3ec6e01acb9a2e1386afb181ab273db36d536716057ea858e8c"
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_routing_matches_golden_digest(case):
    assert CASES[case]() == GOLDEN[case]
