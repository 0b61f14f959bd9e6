"""TRoute — routing workloads for LUT and Tunable circuits.

This module turns placed netlists into :class:`RouteRequest` workloads
and runs the PathFinder engine on them:

* :func:`route_lut_circuit` — conventional single-mode routing of one
  placed LUT circuit (the "Routing" box of the MDR flow).
* :func:`route_tunable_circuit` — TRoute proper: routes the tunable
  connections of a merged multi-mode circuit, honouring activation
  functions (a connection is only realised — and only occupies wires —
  in the modes where its activation function is True).

Both return a :class:`~repro.route.router.RoutingResult`, from which
per-mode configurations and the paper's bit/wire metrics are derived.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.arch.architecture import Site
from repro.arch.rrg import RoutingResourceGraph
from repro.netlist.lutcircuit import LutCircuit
from repro.place.placer import Placement, pad_cell
from repro.route.router import (
    PathFinderRouter,
    RouteRequest,
    RoutingResult,
    RoutingTiming,
)

# A site-level connection: (net id, source site, sink site, modes).
SiteConnection = Tuple[str, Site, Site, FrozenSet[int]]


def lut_circuit_connections(
    circuit: LutCircuit,
    placement: Placement,
    mode: int = 0,
) -> List[SiteConnection]:
    """Site-level connections of one placed LUT circuit.

    Every block-input pin and every primary-output tap becomes one
    connection, active only in *mode*.
    """
    modes = frozenset((mode,))
    conns: List[SiteConnection] = []

    def site_of_signal(signal: str) -> Site:
        if signal in circuit.inputs:
            return placement.sites[pad_cell(signal)]
        return placement.sites[signal]

    for block in circuit.blocks.values():
        sink_site = placement.sites[block.name]
        for src in block.inputs:
            conns.append(
                (f"m{mode}:{src}", site_of_signal(src), sink_site, modes)
            )
    for out in circuit.outputs:
        conns.append(
            (
                f"m{mode}:{out}",
                site_of_signal(out),
                placement.sites[pad_cell(out)],
                modes,
            )
        )
    return conns


def requests_from_connections(
    rrg: RoutingResourceGraph,
    connections: Iterable[SiteConnection],
) -> List[RouteRequest]:
    """Convert site-level connections into RRG route requests.

    Connections sharing (source site, sink site, net) in several modes
    must already be merged into a single entry with the union
    activation set (the merge step does this); this function performs a
    defensive merge as well so duplicate entries cannot inflate the
    workload.
    """
    merged: Dict[Tuple[str, int, int], FrozenSet[int]] = {}
    for net, src_site, sink_site, modes in connections:
        source = rrg.source_node(src_site)
        sink = rrg.sink_node(sink_site)
        key = (net, source, sink)
        merged[key] = merged.get(key, frozenset()) | modes
    requests = []
    for conn_id, ((net, source, sink), modes) in enumerate(
        sorted(merged.items(), key=lambda item: item[0])
    ):
        requests.append(
            RouteRequest(conn_id, net, source, sink, modes)
        )
    return requests


def _request_criticalities(
    requests: Sequence[RouteRequest],
    criticality,
) -> dict:
    """Map (net, sink node)-keyed criticalities onto connection ids."""
    return {
        request.conn_id: criticality.get(
            (request.net, request.sink), 0.0
        )
        for request in requests
    }


def route_lut_circuit(
    circuit: LutCircuit,
    placement: Placement,
    rrg: RoutingResourceGraph,
    timing=None,
    **router_kwargs,
) -> RoutingResult:
    """Route one placed LUT circuit (conventional, single mode).

    *timing* is an optional
    :class:`~repro.timing.criticality.CriticalityConfig`: when given,
    per-connection criticalities are derived from a placement-level
    STA of the circuit and the router prices critical connections by
    delay (``crit * delay + (1 - crit) * congestion``); ``None`` is
    bit-identical to the historical congestion-only routing.
    """
    conns = lut_circuit_connections(circuit, placement)
    requests = requests_from_connections(rrg, conns)
    router_timing = None
    if timing is not None:
        # Lazy import: repro.timing's package init imports this
        # package's router module.
        from repro.timing.criticality import (
            lut_connection_criticalities,
        )

        criticality = lut_connection_criticalities(
            circuit, placement, rrg, timing
        )
        router_timing = RoutingTiming(
            timing.model,
            _request_criticalities(requests, criticality),
        )
    router = PathFinderRouter(
        rrg, n_modes=1, timing=router_timing, **router_kwargs
    )
    return router.route(requests)


def route_tunable_circuit(
    rrg: RoutingResourceGraph,
    connections: Sequence[SiteConnection],
    n_modes: int,
    net_affinity: float = 0.5,
    criticality=None,
    delay_model=None,
    **router_kwargs,
) -> RoutingResult:
    """Route the tunable connections of a merged multi-mode circuit.

    *connections* come from
    :meth:`repro.core.tunable.TunableCircuit.site_connections`; each
    carries its activation set.  Wires and switches are shared across
    modes wherever profitable (``net_affinity`` steers a net's
    per-mode branches onto common wires; ``bit_affinity`` and
    ``sharing_passes``, passed through ``router_kwargs``, steer
    connections onto switches already on in the other modes) — the
    resulting per-mode bit differences are exactly the parameterised
    routing bits of the paper.

    *criticality* maps ``(net, sink node)`` to sharpened connection
    criticalities (from :func:`repro.timing.criticality
    .tunable_connection_criticalities`); with it, TRoute prices
    critical connections by delay under *delay_model* — the worst
    criticality over a connection's active modes, so cross-mode wire
    sharing never sacrifices the critical mode's path.
    """
    requests = requests_from_connections(rrg, connections)
    timing = None
    if criticality:
        if delay_model is None:
            from repro.timing.delay import DelayModel

            delay_model = DelayModel()
        timing = RoutingTiming(
            delay_model,
            _request_criticalities(requests, criticality),
        )
    router = PathFinderRouter(
        rrg, n_modes=n_modes, net_affinity=net_affinity,
        timing=timing, **router_kwargs,
    )
    return router.route(requests)
