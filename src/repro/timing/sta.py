"""Static timing analysis over routed circuits.

Arrival times propagate along the *routed* paths: every net's routes
(for the analysed mode) are united into a route tree and signal delay
to each sink is the cheapest tree path from the net's source, under a
:class:`~repro.timing.delay.DelayModel`.  The logical analysis is the
criticality subsystem's :class:`~repro.timing.criticality
.CriticalityAnalyzer`, run over those real interconnect delays — or
over :func:`~repro.timing.criticality.placed_arc_delays` for the
pre-route estimate.

Launch/capture points follow the usual FPGA STA convention: primary
inputs and flip-flop outputs launch at t=0; flip-flop inputs and
primary outputs are capture endpoints.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.netlist.lutcircuit import LutCircuit
from repro.place.placer import Placement, pad_cell
from repro.route.router import RoutingResult
from repro.timing.criticality import ArcKey, CriticalityAnalyzer
from repro.timing.delay import DelayModel


@dataclass(frozen=True)
class StaReport:
    """Critical path of one mode circuit (routed or placed)."""

    critical_delay: float
    n_endpoints: int
    critical_path: Tuple[str, ...]

    def frequency(self) -> float:
        """Max clock frequency (1 / delay), arbitrary units."""
        if self.critical_delay <= 0:
            return float("inf")
        return 1.0 / self.critical_delay


def net_delay_tree(
    routing: RoutingResult,
    mode: int,
    net: str,
    model: Optional[DelayModel] = None,
) -> Dict[int, float]:
    """Delay from *net*'s source to every RRG node of its route tree.

    All routes of the net that are active in *mode* are united; the
    delay to a node is the cheapest path inside that union, which
    handles trunk-shared branches and the rare case of a node
    reachable from two directions.  Every route is a simple path out
    of the shared source, so the union is a DAG and one relaxation
    pass in Kahn topological order suffices — no priority queue.
    """
    model = model or DelayModel()
    edges: Dict[int, List[Tuple[int, int]]] = {}
    indeg: Dict[int, int] = {}
    source: Optional[int] = None
    for route in routing.routes.values():
        if route.request.net != net or mode not in route.request.modes:
            continue
        source = route.request.source
        for u, v, bit in route.edges:
            edges.setdefault(u, []).append((v, bit))
            indeg[v] = indeg.get(v, 0) + 1
    if source is None:
        return {}
    rrg = routing.rrg
    dist: Dict[int, float] = {source: model.node_delay(rrg, source)}
    # Kahn order: a node is expanded once all its in-edges (counting
    # trunk-shared duplicates once per occurrence) have relaxed it,
    # at which point its label is final.
    queue = deque([source])
    while queue:
        node = queue.popleft()
        d = dist[node]
        for nxt, bit in edges.get(node, ()):
            nd = d + model.edge_delay(rrg, nxt, bit)
            if nd < dist.get(nxt, float("inf")):
                dist[nxt] = nd
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    return dist


def connection_delays_for_mode(
    routing: RoutingResult,
    mode: int,
    model: Optional[DelayModel] = None,
) -> Dict[Tuple[str, int], float]:
    """Routed delay of every connection active in *mode*.

    Returns ``(net, sink node) -> delay`` from the net's source to the
    connection's sink, along the net's route tree.
    """
    model = model or DelayModel()
    trees: Dict[str, Dict[int, float]] = {}
    delays: Dict[Tuple[str, int], float] = {}
    for route in routing.routes.values():
        request = route.request
        if mode not in request.modes:
            continue
        if request.net not in trees:
            trees[request.net] = net_delay_tree(
                routing, mode, request.net, model
            )
        tree = trees[request.net]
        if request.sink not in tree:
            raise ValueError(
                f"net {request.net}: sink not reached by its route "
                f"tree in mode {mode}"
            )
        delays[(request.net, request.sink)] = tree[request.sink]
    return delays


def mdr_arc_delays(
    circuit: LutCircuit,
    placement: Placement,
    routing: RoutingResult,
    model: Optional[DelayModel] = None,
) -> Dict[ArcKey, float]:
    """Arc delays of one separately implemented (MDR) mode.

    The net naming follows
    :func:`repro.route.troute.lut_circuit_connections` (single-mode
    workloads are routed as mode 0).
    """
    from repro.route.troute import lut_circuit_connections

    rrg = routing.rrg
    model = model or DelayModel()
    delays = connection_delays_for_mode(routing, 0, model)
    arcs: Dict[ArcKey, float] = {}
    for net, _src_site, sink_site, _modes in lut_circuit_connections(
        circuit, placement
    ):
        sink_node = rrg.sink_node(sink_site)
        signal = net.split(":", 1)[1]
        sink_cells = [
            block.name
            for block in circuit.blocks.values()
            if placement.sites[block.name] == sink_site
            and signal in block.inputs
        ]
        if signal in circuit.outputs and sink_site == placement.sites[
            pad_cell(signal)
        ]:
            sink_cells.append(pad_cell(signal))
        for cell in sink_cells:
            arcs[(signal, cell)] = delays[(net, sink_node)]
    return arcs


def dcs_arc_delays(
    tunable,
    routing: RoutingResult,
    mode: int,
    model: Optional[DelayModel] = None,
) -> Dict[ArcKey, float]:
    """Arc delays of mode *mode* inside the merged implementation.

    Tunable connection endpoints (tunable cell names) are translated to
    the specialised circuit's signals: a Tunable LUT stands for its
    mode member, a pad for the mode's IO signal.
    """
    rrg = routing.rrg
    model = model or DelayModel()
    delays = connection_delays_for_mode(routing, mode, model)

    def signal_of(cell: str) -> Optional[str]:
        tlut = tunable.tluts.get(cell)
        if tlut is not None:
            member = tlut.members.get(mode)
            return None if member is None else member.name
        return tunable.pads[cell].signals.get(mode)

    sites = tunable.sites()
    arcs: Dict[ArcKey, float] = {}
    for conn in tunable.connections:
        if mode not in conn.activation.modes:
            continue
        source_signal = signal_of(conn.source)
        if source_signal is None:
            continue
        sink_node = rrg.sink_node(sites[conn.sink])
        delay = delays[(conn.source, sink_node)]
        sink_tlut = tunable.tluts.get(conn.sink)
        if sink_tlut is not None:
            member = sink_tlut.members.get(mode)
            if member is not None and source_signal in member.inputs:
                arcs[(source_signal, member.name)] = delay
        else:
            pad_signal = tunable.pads[conn.sink].signals.get(mode)
            if pad_signal is not None:
                arcs[(source_signal, pad_cell(pad_signal))] = delay
    return arcs


def routed_critical_path(
    circuit: LutCircuit,
    arcs: Mapping[ArcKey, float],
    model: Optional[DelayModel] = None,
) -> StaReport:
    """Longest path of *circuit* under the given arc delays.

    *arcs* must cover every connection of the circuit (block inputs
    and primary-output taps): :func:`mdr_arc_delays` and
    :func:`dcs_arc_delays` give routed delays,
    :func:`~repro.timing.criticality.placed_arc_delays` the pre-route
    estimate.  Only ``model.lut_delay`` is read here.
    """
    model = model or DelayModel()
    analyzer = CriticalityAnalyzer(circuit)
    delays = []
    for signal, sink_cell in analyzer.arcs:
        try:
            delays.append(arcs[(signal, sink_cell)])
        except KeyError:
            raise KeyError(
                f"no routed arc for connection {signal} -> {sink_cell}"
            ) from None
    report = analyzer.analyze(delays, model.lut_delay)
    return StaReport(
        critical_delay=report.max_delay,
        n_endpoints=analyzer.n_endpoints,
        critical_path=analyzer.critical_path(report),
    )


@dataclass(frozen=True)
class TimingComparison:
    """Per-mode MDR vs DCS routed critical-path comparison."""

    mdr_delays: Tuple[float, ...]
    dcs_delays: Tuple[float, ...]

    def ratios(self) -> Tuple[float, ...]:
        return tuple(
            d / m for m, d in zip(self.mdr_delays, self.dcs_delays)
            if m > 0
        )

    @property
    def mean_ratio(self) -> float:
        ratios = self.ratios()
        return sum(ratios) / len(ratios)

    @property
    def worst_ratio(self) -> float:
        return max(self.ratios())


def timing_comparison(
    mdr_reports: Sequence[StaReport],
    dcs_reports: Sequence[StaReport],
) -> TimingComparison:
    """Pair up per-mode reports of both flows (Fig. 7 companion).

    A mean ratio near 1.0 substantiates the abstract's "without
    significant performance penalties"; routed and placed reports
    compare alike.
    """
    if len(mdr_reports) != len(dcs_reports) or not mdr_reports:
        raise ValueError("need one report per mode for both flows")
    return TimingComparison(
        mdr_delays=tuple(r.critical_delay for r in mdr_reports),
        dcs_delays=tuple(r.critical_delay for r in dcs_reports),
    )
