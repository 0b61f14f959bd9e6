"""Connection criticalities: one timing model for every flow layer.

The DATE'13 comparison is ultimately about *speed* — achievable clock
frequency of the merged (DCS) implementation versus the separate (MDR)
ones — so the implementation tools must be able to optimise for it.
This module is the shared criticality subsystem: a slack-based
arrival/required-time STA over the connections of a LUT circuit, the
standard VPR ``crit ** exponent`` sharpening, and the adapters that
feed the resulting per-connection weights into

* the annealing placers (:class:`PlacementTimingCost` — a
  criticality-weighted connection-delay cost maintained incrementally
  per move, with criticalities refreshed every temperature),
* the PathFinder router (:func:`lut_connection_criticalities` /
  :func:`tunable_connection_criticalities` map criticalities onto the
  ``(net, sink node)`` keys of the routing workload), and
* the experiment harness (per-mode Fmax and MDR:DCS frequency ratios
  are derived from the same :class:`~repro.timing.delay.DelayModel`).

Definitions (per analysed mode circuit):

* arrival times propagate forward through the combinational netlist
  (primary inputs and flip-flop outputs launch at t=0, every LUT adds
  ``lut_delay``, every connection its estimated delay);
* required times propagate backward from the capture endpoints
  (flip-flop inputs and primary outputs must settle by ``Dmax``, the
  worst arrival);
* ``slack(c) = required(c) - arrival(c)`` per connection, and
  ``crit(c) = 1 - slack(c) / Dmax`` clamped to
  ``[0, max_criticality]`` — 0 for connections with ample margin,
  ``max_criticality`` on the critical path;
* the *sharpened* weight is ``crit ** exponent``; exponents above 1
  concentrate effort on the most critical connections, and an
  exponent of 0 (or below) turns the timing term off entirely, so the
  flow degrades to pure wire-length/congestion optimisation.

Connection delays are *estimates* — :func:`placed_arc_delays`, the
:meth:`DelayModel.connection_delay` of each arc's placed Manhattan
span — which is what lets the same analysis run before routing exists.
:class:`CriticalityAnalyzer` is the flow's only longest-path engine:
:func:`repro.timing.sta.routed_critical_path` runs it over routed (or
placed) arc delays to report a mode's critical path and Fmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.arch.architecture import Site
from repro.netlist.lutcircuit import LutCircuit
from repro.place.placer import pad_cell
from repro.timing.delay import DelayModel

#: An arc key: (driving signal, sink cell) — the sink cell is a block
#: name or ``pad:<signal>`` for primary outputs.
ArcKey = Tuple[str, str]

_INF = float("inf")


@dataclass(frozen=True)
class CriticalityConfig:
    """Knobs of the criticality model (shared by place and route).

    ``exponent`` sharpens criticalities (``crit ** exponent``);
    values <= 0 disable the timing term entirely.  ``tradeoff`` is the
    placement-level mix: 0 = pure wire length, 1 = pure timing (the
    router does not consume it — there the criticality itself blends
    delay against congestion).  ``max_criticality`` keeps even the
    critical path's connections from ignoring congestion completely.
    """

    exponent: float = 1.0
    tradeoff: float = 0.5
    max_criticality: float = 0.99
    model: DelayModel = DelayModel()

    def __post_init__(self) -> None:
        if not 0.0 <= self.tradeoff <= 1.0:
            raise ValueError("tradeoff must be in [0, 1]")
        if not 0.0 < self.max_criticality < 1.0:
            raise ValueError("max_criticality must be in (0, 1)")
        self.model.validate()

    def sharpen(self, criticality: float) -> float:
        """``crit ** exponent`` (exponent <= 0 turns timing off)."""
        return sharpen(criticality, self.exponent)


def sharpen(criticality: float, exponent: float) -> float:
    """Sharpened criticality weight.

    ``crit ** exponent`` for positive exponents; an exponent of 0 (or
    below) returns 0 for every connection — the flow degrades to pure
    congestion/wire-length optimisation rather than to "everything is
    critical" (``x ** 0 == 1`` would invert the knob's intent).
    """
    if exponent <= 0.0 or criticality <= 0.0:
        return 0.0
    return criticality ** exponent


@dataclass
class CriticalityReport:
    """Slack and criticality of every arc of one analysed circuit.

    The lists are aligned with :attr:`CriticalityAnalyzer.arcs`.
    ``criticality`` is clamped but *not* sharpened — apply
    :func:`sharpen` (or :meth:`CriticalityConfig.sharpen`) to weight.
    ``arrival`` is the arrival time at each arc's sink pin and
    ``block_arrival`` each block's output arrival (after its LUT).
    """

    max_delay: float
    slack: List[float]
    criticality: List[float]
    arrival: List[float]
    block_arrival: Dict[str, float]

    def by_arc(
        self, arcs: Sequence[ArcKey]
    ) -> Dict[ArcKey, float]:
        """Criticality as an arc-keyed mapping."""
        return dict(zip(arcs, self.criticality))


class CriticalityAnalyzer:
    """Arrival/required-time STA over one LUT circuit's connections.

    The topology (arc list, topological order, launch/capture
    classification) is resolved once at construction; each
    :meth:`analyze` call is then a single forward plus a single
    backward sweep over the precomputed arcs — O(V + E) with no
    re-derivation — which is what makes the per-temperature refresh of
    the timing-driven placer cheap.  Callers maintain the per-arc
    delays incrementally (the placers update only the arcs a move
    touches) and hand the current delay vector to ``analyze``.
    """

    def __init__(self, circuit: LutCircuit) -> None:
        self.circuit = circuit
        self._order = circuit.topological_blocks()
        blocks = circuit.blocks
        #: All arcs, block-input arcs first (grouped per block in
        #: topological order), then primary-output taps.
        self.arcs: List[ArcKey] = []
        self._launch: List[bool] = []

        def is_launch(signal: str) -> bool:
            block = blocks.get(signal)
            return block is None or block.registered

        #: Index of each block's first input arc.
        self._first_arc: Dict[str, int] = {}
        for block in self._order:
            self._first_arc[block.name] = len(self.arcs)
            for src in block.inputs:
                self.arcs.append((src, block.name))
                self._launch.append(is_launch(src))
        self._n_block_arcs = len(self.arcs)
        #: Capture points: registered blocks plus primary outputs.
        self.n_endpoints = sum(
            1 for block in self._order if block.registered
        ) + len(circuit.outputs)
        for out in circuit.outputs:
            self.arcs.append((out, pad_cell(out)))
            self._launch.append(is_launch(out))
        # Fanout arc indices per *combinational* driver block (for the
        # backward sweep; launch-point drivers start fresh paths, so
        # their fanouts never constrain their own inputs).
        self._fanout: Dict[str, List[int]] = {}
        for i, (src, _sink) in enumerate(self.arcs):
            if not self._launch[i]:
                self._fanout.setdefault(src, []).append(i)

    def n_arcs(self) -> int:
        return len(self.arcs)

    def analyze(
        self, delays: Sequence[float], lut_delay: float = 1.0
    ) -> CriticalityReport:
        """STA under the given per-arc *delays* (aligned with ``arcs``).

        *lut_delay* is the only non-connection delay (every LUT adds
        it); pass the owning :class:`DelayModel`'s value so the
        analysis matches the routed STA's units.
        """
        if len(delays) != len(self.arcs):
            raise ValueError(
                f"{len(delays)} delays for {len(self.arcs)} arcs"
            )
        arcs = self.arcs
        launch = self._launch
        # -- forward: arrival at every arc's sink pin -------------------
        arrival_out: Dict[str, float] = {}
        arrive_at: List[float] = [0.0] * len(arcs)
        max_delay = 0.0
        idx = 0
        for block in self._order:
            t = 0.0
            for _src in block.inputs:
                src = arcs[idx][0]
                base = 0.0 if launch[idx] else arrival_out[src]
                a = base + delays[idx]
                arrive_at[idx] = a
                if a > t:
                    t = a
                idx += 1
            t += lut_delay
            arrival_out[block.name] = t
            if block.registered and t > max_delay:
                max_delay = t
        for i in range(self._n_block_arcs, len(arcs)):
            src = arcs[i][0]
            base = 0.0 if launch[i] else arrival_out[src]
            a = base + delays[i]
            arrive_at[i] = a
            if a > max_delay:
                max_delay = a

        # -- backward: required time at every arc's sink pin ------------
        # req_in[b]: latest allowed arrival at block b's input pins.
        # Registered blocks capture at Dmax; combinational blocks
        # inherit the tightest fanout requirement.
        req_in: Dict[str, float] = {}
        req_at: List[float] = [0.0] * len(arcs)
        blocks = self.circuit.blocks
        for i in range(self._n_block_arcs, len(arcs)):
            req_at[i] = max_delay
        for block in reversed(self._order):
            if block.registered:
                req_in[block.name] = max_delay - lut_delay
                continue
            required = _INF
            for i in self._fanout.get(block.name, ()):
                sink = arcs[i][1]
                sink_block = blocks.get(sink)
                bound = (
                    max_delay if sink_block is None
                    else req_in[sink]
                ) - delays[i]
                if bound < required:
                    required = bound
            req_in[block.name] = required - lut_delay
        for i in range(self._n_block_arcs):
            req_at[i] = req_in[arcs[i][1]]

        # -- slack and clamped criticality ------------------------------
        slack = [r - a for r, a in zip(req_at, arrive_at)]
        if max_delay > 0.0:
            crit = [
                min(max(1.0 - s / max_delay, 0.0), 1.0)
                for s in slack
            ]
        else:
            crit = [0.0] * len(arcs)
        return CriticalityReport(
            max_delay=max_delay, slack=slack, criticality=crit,
            arrival=arrive_at, block_arrival=arrival_out,
        )

    def critical_path(
        self, report: CriticalityReport
    ) -> Tuple[str, ...]:
        """Cells of *report*'s worst path, launch point first.

        Walks back over the report's arrivals.  The endpoint is the
        first strictly latest capture point, scanning registered
        blocks in topological order, then primary outputs (an output
        names its driving signal).  Each block's predecessor is its
        first input with the strictly latest arrival above 0.0; the
        walk stops at a launch point (a primary input or a registered
        block other than the endpoint).
        """
        arcs = self.arcs
        arrival = report.arrival
        worst = 0.0
        cell: Optional[str] = None
        end_is_launch = False
        for block in self._order:
            t = report.block_arrival[block.name]
            if block.registered and t > worst:
                worst, cell = t, block.name
        for i in range(self._n_block_arcs, len(arcs)):
            if arrival[i] > worst:
                worst, cell = arrival[i], arcs[i][0]
                end_is_launch = self._launch[i]
        blocks = self.circuit.blocks
        path: List[str] = []
        seen = set()
        while cell is not None and cell not in seen:
            seen.add(cell)
            path.append(cell)
            if end_is_launch:
                break
            block = blocks.get(cell)
            if block is None or block.registered and len(path) > 1:
                break
            t = 0.0
            cell = None
            first = self._first_arc[block.name]
            for i in range(first, first + len(block.inputs)):
                if arrival[i] > t:
                    t, cell = arrival[i], arcs[i][0]
        path.reverse()
        return tuple(path)


class PlacementTimingCost:
    """Criticality-weighted connection-delay cost for annealing placers.

    One instance serves one placement problem; multi-mode problems add
    one circuit per mode (each gets its own STA).  Connections are
    keyed by the *placement cells* of their endpoints — the cell ids
    of the owning problem's ``site_of`` — via the ``key_of``
    translator passed to :meth:`add_circuit`.  Positions are read from
    the problem's own arrays (:meth:`bind`), and each distance's
    delay from a table of ``DelayModel.connection_delay`` values.

    The cost is ``sum_c crit_c ** exponent * delay_c``:

    * delays are maintained **incrementally per move** — the owning
      problem evaluates only the connections its moved cells touch
      (:meth:`eval_conns` inside the tentatively-applied window) and
      commits the evaluated values (:meth:`commit`);
    * criticalities are refreshed **once per temperature**
      (:meth:`refresh_criticalities` — a full STA per mode over the
      cached delays, O(V + E), cheap next to a temperature's worth of
      moves).
    """

    def __init__(self, config: CriticalityConfig) -> None:
        self.config = config
        self.model = config.model
        self._analyzers: List[Tuple[CriticalityAnalyzer, int]] = []
        self._src_keys: List[Any] = []
        self._snk_keys: List[Any] = []
        self.conns_of_key: Dict[Any, List[int]] = {}
        self.delay: List[float] = []
        self.weight: List[float] = []  # sharpened criticality
        self.cost = 0.0
        self._site_of: Sequence[int] = ()
        self._site_x: Sequence[int] = ()
        self._site_y: Sequence[int] = ()
        self._delay_at: List[float] = []

    # -- construction -------------------------------------------------------

    def add_circuit(
        self,
        circuit: LutCircuit,
        key_of: Callable[[str], Any] = lambda cell: cell,
    ) -> None:
        """Register *circuit*'s arcs, endpoints mapped through *key_of*.

        ``key_of`` translates circuit cell names (block names and
        ``pad:<signal>`` cells) into the owning problem's placement
        keys.
        """
        analyzer = CriticalityAnalyzer(circuit)
        offset = len(self._src_keys)
        blocks = circuit.blocks
        for signal, sink_cell in analyzer.arcs:
            src_cell = (
                signal if signal in blocks else pad_cell(signal)
            )
            src_key = key_of(src_cell)
            snk_key = key_of(sink_cell)
            index = len(self._src_keys)
            self._src_keys.append(src_key)
            self._snk_keys.append(snk_key)
            self.conns_of_key.setdefault(src_key, []).append(index)
            if snk_key != src_key:
                self.conns_of_key.setdefault(snk_key, []).append(
                    index
                )
        self._analyzers.append((analyzer, offset))

    def bind(
        self,
        site_of: Mapping[Any, int],
        site_x: Sequence[int],
        site_y: Sequence[int],
    ) -> None:
        """Attach the live cell -> site id mapping and the sites'
        coordinates, then do the initial STA."""
        self._site_of = site_of
        self._site_x = site_x
        self._site_y = site_y
        span = (max(site_x) - min(site_x)) + (max(site_y) - min(site_y))
        self._delay_at = [
            self.model.connection_delay(d) for d in range(span + 1)
        ]
        self.delay = list(
            self.eval_conns(range(len(self._src_keys))).values()
        )
        self.weight = [0.0] * len(self.delay)
        self.refresh_criticalities()

    # -- incremental cost ---------------------------------------------------

    def conns_of(self, keys: Sequence[Any]) -> List[int]:
        """Sorted connection indices incident to any of *keys*."""
        affected: set = set()
        for key in keys:
            affected.update(self.conns_of_key.get(key, ()))
        return sorted(affected)

    def weighted(self, indices: Sequence[int]) -> float:
        """Current weighted cost of the given connections."""
        delay = self.delay
        weight = self.weight
        return sum([weight[i] * delay[i] for i in indices])

    def eval_conns(self, indices: Sequence[int]
                   ) -> Dict[int, float]:
        """Delays of *indices* at the problem's *current* sites.

        Call while a move is tentatively applied; pass the result to
        :meth:`weighted_eval` for the after-cost and to :meth:`commit`
        when the move is accepted.
        """
        site_of = self._site_of
        site_x = self._site_x
        site_y = self._site_y
        delay_at = self._delay_at
        src_keys = self._src_keys
        snk_keys = self._snk_keys
        evaluated = {}
        for i in indices:
            a = site_of[src_keys[i]]
            b = site_of[snk_keys[i]]
            evaluated[i] = delay_at[
                abs(site_x[a] - site_x[b]) + abs(site_y[a] - site_y[b])
            ]
        return evaluated

    def weighted_eval(self, evaluated: Mapping[int, float]) -> float:
        weight = self.weight
        return sum([weight[i] * d for i, d in evaluated.items()])

    def commit(self, evaluated: Mapping[int, float]) -> None:
        """Fold evaluated delays into the cache and the running cost."""
        delay = self.delay
        weight = self.weight
        cost = self.cost
        for i, d in evaluated.items():
            cost += weight[i] * (d - delay[i])
            delay[i] = d
        self.cost = cost

    # -- per-temperature refresh --------------------------------------------

    def refresh_criticalities(self) -> None:
        """Re-run the STA per mode and rebuild the weighted cost."""
        config = self.config
        lut_delay = self.model.lut_delay
        for analyzer, offset in self._analyzers:
            n = analyzer.n_arcs()
            report = analyzer.analyze(
                self.delay[offset:offset + n], lut_delay
            )
            cap = config.max_criticality
            exponent = config.exponent
            weight = self.weight
            for j, crit in enumerate(report.criticality):
                weight[offset + j] = sharpen(
                    min(crit, cap), exponent
                )
        self.cost = sum(
            w * d for w, d in zip(self.weight, self.delay)
        )


# ---------------------------------------------------------------------------
# Placed delay estimates and the router-facing adapters
# ---------------------------------------------------------------------------


def placed_arc_delays(
    circuit: LutCircuit,
    cell_sites: Mapping[str, Site],
    model: Optional[DelayModel] = None,
) -> Dict[ArcKey, float]:
    """Pre-route delay estimate of every arc of *circuit*.

    *cell_sites* maps every cell — block names and ``pad:<signal>``
    cells — to its site.  Each arc gets the
    :meth:`~repro.timing.delay.DelayModel.connection_delay` of its
    endpoints' Manhattan span, a lower bound of its routed delay.
    :func:`repro.timing.sta.routed_critical_path` over these delays is
    the placed critical path.
    """
    model = model or DelayModel()
    blocks = circuit.blocks
    arcs = [
        (src, block.name)
        for block in blocks.values()
        for src in block.inputs
    ]
    arcs += [(out, pad_cell(out)) for out in circuit.outputs]
    delays: Dict[ArcKey, float] = {}
    for signal, sink_cell in arcs:
        a = cell_sites[signal if signal in blocks else pad_cell(signal)]
        b = cell_sites[sink_cell]
        delays[(signal, sink_cell)] = model.connection_delay(
            abs(a.x - b.x) + abs(a.y - b.y)
        )
    return delays


def lut_connection_criticalities(
    circuit: LutCircuit,
    placement,
    rrg,
    config: CriticalityConfig,
    mode: int = 0,
) -> Dict[Tuple[str, int], float]:
    """Sharpened criticalities of one placed LUT circuit's connections.

    Keys follow the routing workload of
    :func:`repro.route.troute.lut_circuit_connections`:
    ``(net, sink node)`` with ``net = f"m{mode}:{signal}"`` and the
    sink node resolved through *rrg*.  Delays are the pre-route
    estimate over the placed Manhattan distances; several arcs landing
    on the same sink site keep the worst (max) criticality.
    """
    analyzer = CriticalityAnalyzer(circuit)
    sites = placement.sites
    delays = placed_arc_delays(circuit, sites, config.model)
    report = analyzer.analyze(
        [delays[arc] for arc in analyzer.arcs], config.model.lut_delay
    )
    cap = config.max_criticality
    crit: Dict[Tuple[str, int], float] = {}
    for (signal, sink_cell), c in zip(
        analyzer.arcs, report.criticality
    ):
        key = (
            f"m{mode}:{signal}",
            rrg.sink_node(sites[sink_cell]),
        )
        weight = config.sharpen(min(c, cap))
        if weight > crit.get(key, 0.0):
            crit[key] = weight
    return crit


def tunable_carriers(tunable) -> Dict[Tuple[int, str], str]:
    """Map (mode, specialised cell name) -> tunable cell carrying it.

    Specialised circuits (:meth:`TunableCircuit.specialize`) name their
    blocks after the mode members and their pads after the mode's IO
    signals; this map translates those names back to the Tunable LUTs
    and pads whose sites they occupy.
    """
    carriers: Dict[Tuple[int, str], str] = {}
    for name, tlut in tunable.tluts.items():
        for mode, member in tlut.members.items():
            carriers[(mode, member.name)] = name
    for name, pad in tunable.pads.items():
        for mode, signal in pad.signals.items():
            carriers[(mode, pad_cell(signal))] = name
    return carriers


def tunable_cell_sites(tunable) -> List[Dict[str, Site]]:
    """Per mode, the site of every cell of ``tunable.specialize(mode)``.

    A block sits on its Tunable LUT's site and a pad cell on its
    tunable pad's, so :func:`placed_arc_delays` over one mode's map
    estimates that mode inside the merged placement.  Raises
    ``ValueError`` when a tunable cell has no site.
    """
    sites = tunable.sites()
    per_mode: List[Dict[str, Site]] = [
        {} for _ in range(tunable.n_modes)
    ]
    for (mode, cell), carrier in tunable_carriers(tunable).items():
        per_mode[mode][cell] = sites[carrier]
    return per_mode


def tunable_connection_criticalities(
    tunable,
    rrg,
    config: CriticalityConfig,
) -> Dict[Tuple[str, int], float]:
    """Sharpened criticalities of a merged circuit's connections.

    Each mode's specialised circuit is analysed at the tunable cells'
    sites; mode-level arc criticalities are mapped onto the tunable
    connection keys TRoute routes by — ``(source tunable cell, sink
    node)`` — keeping, per connection, the worst criticality over all
    modes it is active in (a wire shared by a critical and a relaxed
    mode must satisfy the critical one).
    """
    carriers = tunable_carriers(tunable)
    cap = config.max_criticality
    crit: Dict[Tuple[str, int], float] = {}
    for mode, sites in enumerate(tunable_cell_sites(tunable)):
        circuit = tunable.specialize(mode)
        analyzer = CriticalityAnalyzer(circuit)
        delays = placed_arc_delays(circuit, sites, config.model)
        report = analyzer.analyze(
            [delays[arc] for arc in analyzer.arcs],
            config.model.lut_delay,
        )
        blocks = circuit.blocks
        for (signal, sink_cell), c in zip(
            analyzer.arcs, report.criticality
        ):
            src_cell = (
                signal if signal in blocks else pad_cell(signal)
            )
            key = (
                carriers[(mode, src_cell)],
                rrg.sink_node(sites[sink_cell]),
            )
            weight = config.sharpen(min(c, cap))
            if weight > crit.get(key, 0.0):
                crit[key] = weight
    return crit
