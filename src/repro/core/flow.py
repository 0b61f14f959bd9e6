"""End-to-end tool flows: MDR baseline and the paper's DCS flow.

``MdrFlow`` implements Fig. 2(a): every mode is placed and routed
separately in the same reconfigurable region; a mode switch rewrites
the whole region.

``DcsFlow`` implements Fig. 2(b): the per-mode LUT circuits are merged
into one Tunable circuit via combined placement (edge-matching or
wire-length cost), optionally refined by TPlace, and routed by TRoute;
a mode switch rewrites the LUT bits plus only the parameterised routing
bits.

``implement_multi_mode`` drives both flows on a shared architecture
(same grid, same channel width) so their bit counts are comparable, and
retries with a wider channel when routing fails — mirroring the paper's
"20% bigger than minimum" sizing rule.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.arch.architecture import FpgaArchitecture, size_for_circuits
from repro.arch.rrg import RoutingResourceGraph, build_rrg
from repro.exec.cache import StageCache
from repro.exec.progress import ProgressLog, StageRecord, timed_call
from repro.exec.jobs import (
    Task,
    effective_workers,
    resolve_workers,
    run_tasks,
)
from repro.core.combined_placement import (
    CombinedPlacementResult,
    merge_with_combined_placement,
    tplace,
)
from repro.core.merge import MergeStrategy, merge_by_index
from repro.core.reconfig import (
    ReconfigCost,
    diff_cost,
    mdr_cost,
    speedup,
)
from repro.core.tunable import TunableCircuit
from repro.netlist.lutcircuit import LutCircuit
from repro.place.annealing import AnnealingSchedule
from repro.place.placer import Placement, place_circuit
from repro.route.router import RoutingError, RoutingResult
from repro.route.troute import (
    route_lut_circuit,
    route_tunable_circuit,
)


@dataclass
class FlowOptions:
    """Knobs shared by both flows.

    ``channel_width=None`` lets the driver estimate a width from
    placement wire-length and grow it on routing failure; a fixed value
    reproduces a specific experiment exactly.
    """

    seed: int = 0
    k: int = 4
    slack: float = 1.2
    io_rat: int = 2
    fc_in: float = 0.5
    fc_out: float = 0.5
    channel_width: Optional[int] = None
    inner_num: float = 1.0
    tplace_refine: bool = True
    max_width_retries: int = 5
    router_max_iterations: int = 40
    #: Cross-mode wire-affinity of TRoute (< 1 steers a net's per-mode
    #: branches onto shared wires; 1.0 disables the bias).
    net_affinity: float = 0.5
    #: Cross-mode switch-bit affinity of TRoute (< 1 steers connections
    #: onto switches already on in the other modes, turning their bits
    #: static; 1.0 disables the bias).
    bit_affinity: float = 0.3
    #: Extra TRoute sweeps after congestion is resolved that reroute
    #: every net with the sharing discounts active, keeping the legal
    #: result with the fewest parameterised bits.  Sweeps stop early
    #: when a sweep no longer improves.  One sweep by default: with the
    #: wire-length combined placement refined rather than re-placed
    #: by TPlace, a second and third sweep mostly return the routes
    #: the connections already had.
    sharing_passes: int = 1
    #: Channel sizing when ``channel_width`` is None: ``"estimate"``
    #: derives a width from netlist statistics and grows it on routing
    #: failure; ``"search"`` runs the paper's methodology exactly — a
    #: binary search for the minimum routable width plus 20% slack
    #: (slower: several trial routings).
    sizing: str = "estimate"
    #: Timing-driven implementation: thread one criticality model
    #: (:mod:`repro.timing.criticality`) through placement (a
    #: criticality-weighted delay term in every annealing cost) and
    #: routing (VPR's ``crit*delay + (1-crit)*congestion`` pricing).
    #: ``False`` (the default) is bit-identical to the historical
    #: wirelength-driven flow.
    timing_driven: bool = False
    #: Criticality sharpening ``crit ** exponent``; larger exponents
    #: concentrate effort on the most critical connections, and 0
    #: degrades a timing-driven run to pure congestion/wire length.
    criticality_exponent: float = 1.0
    #: Placement-level mix between wire length (0.0) and the timing
    #: term (1.0); the router ignores it (criticality itself blends
    #: delay against congestion there).
    timing_tradeoff: float = 0.5

    # Wire typing of every knob (to_dict/from_dict boundary).  The
    # round-trip test asserts these partition the dataclass fields and
    # OPTION_STAGE_COVERAGE exactly, so adding a field without
    # declaring its wire type fails fast.
    _INT_KNOBS = frozenset({
        "seed", "k", "io_rat", "max_width_retries",
        "router_max_iterations", "sharing_passes",
    })
    _FLOAT_KNOBS = frozenset({
        "slack", "fc_in", "fc_out", "inner_num", "net_affinity",
        "bit_affinity", "criticality_exponent", "timing_tradeoff",
    })
    _BOOL_KNOBS = frozenset({"tplace_refine", "timing_driven"})
    _OPTIONAL_INT_KNOBS = frozenset({"channel_width"})
    _CHOICE_KNOBS = {"sizing": ("estimate", "search")}

    def __post_init__(self) -> None:
        """Reject out-of-range knobs with a clear error.

        Only numeric ranges are enforced here — values no stage could
        honour.  Enum-ish knobs (``sizing``) are validated where they
        are consumed, and strictly at the wire boundary
        (:meth:`from_dict`), so exploratory in-process construction
        stays permissive.
        """
        def require(ok: bool, knob: str, why: str) -> None:
            if not ok:
                raise ValueError(
                    f"FlowOptions.{knob} out of range: {why} "
                    f"(got {getattr(self, knob)!r})"
                )

        require(self.k >= 2, "k", "LUT arity must be >= 2")
        require(self.slack > 0, "slack",
                "channel-width slack factor must be > 0")
        require(self.io_rat >= 1, "io_rat", "I/O pads per tile must be >= 1")
        require(0 < self.fc_in <= 1, "fc_in",
                "connection-box fraction must be in (0, 1]")
        require(0 < self.fc_out <= 1, "fc_out",
                "connection-box fraction must be in (0, 1]")
        require(self.channel_width is None or self.channel_width >= 1,
                "channel_width", "explicit channel width must be >= 1")
        require(self.inner_num > 0, "inner_num",
                "annealing effort must be > 0")
        require(self.max_width_retries >= 1, "max_width_retries",
                "width retries must be >= 1")
        require(self.router_max_iterations >= 1, "router_max_iterations",
                "router iteration budget must be >= 1")
        require(0 < self.net_affinity <= 1, "net_affinity",
                "TRoute affinity discount must be in (0, 1]")
        require(0 < self.bit_affinity <= 1, "bit_affinity",
                "TRoute affinity discount must be in (0, 1]")
        require(self.sharing_passes >= 0, "sharing_passes",
                "sharing sweeps must be >= 0")
        require(self.criticality_exponent >= 0, "criticality_exponent",
                "criticality exponent must be >= 0")
        require(0 <= self.timing_tradeoff <= 1, "timing_tradeoff",
                "timing tradeoff must be in [0, 1]")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping of every knob; exact inverse of
        :meth:`from_dict`."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: object) -> "FlowOptions":
        """Build options from an untrusted wire mapping.

        Strict by design — this is the HTTP API boundary:

        * unknown keys are rejected (a typo must not silently fall
          back to a default and dedup against the wrong fingerprint);
        * numbers are coerced to the declared knob type (``1`` and
          ``1.0`` fingerprint differently, so cross-client dedup
          needs canonical types);
        * enum knobs must name a known choice;
        * numeric ranges are then enforced by ``__post_init__``.
        """
        try:
            items = dict(data)  # type: ignore[call-overload]
        except (TypeError, ValueError):
            raise ValueError(
                "FlowOptions payload must be a mapping, got "
                f"{type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(items) - known)
        if unknown:
            raise ValueError(
                "unknown FlowOptions key(s): " + ", ".join(unknown)
                + "; known keys: " + ", ".join(sorted(known))
            )
        kwargs: Dict[str, object] = {}
        for name, value in items.items():
            if name in cls._FLOAT_KNOBS:
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    raise ValueError(
                        f"FlowOptions.{name} must be a number, got {value!r}"
                    )
                kwargs[name] = float(value)
            elif name in cls._INT_KNOBS:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(
                        f"FlowOptions.{name} must be an integer, got {value!r}"
                    )
                kwargs[name] = int(value)
            elif name in cls._OPTIONAL_INT_KNOBS:
                if value is not None and (
                    isinstance(value, bool) or not isinstance(value, int)
                ):
                    raise ValueError(
                        f"FlowOptions.{name} must be an integer or null, "
                        f"got {value!r}"
                    )
                kwargs[name] = value
            elif name in cls._BOOL_KNOBS:
                if not isinstance(value, bool):
                    raise ValueError(
                        f"FlowOptions.{name} must be a boolean, got {value!r}"
                    )
                kwargs[name] = value
            else:
                choices = cls._CHOICE_KNOBS[name]
                if value not in choices:
                    raise ValueError(
                        f"FlowOptions.{name} must be one of "
                        f"{', '.join(choices)}; got {value!r}"
                    )
                kwargs[name] = value
        return cls(**kwargs)

    def schedule(self) -> AnnealingSchedule:
        return AnnealingSchedule(inner_num=self.inner_num)

    def criticality(self):
        """The flow's :class:`~repro.timing.criticality
        .CriticalityConfig`, or ``None`` when the run is not
        timing-driven (also for ``criticality_exponent <= 0``, which
        defines the timing term away entirely)."""
        if not self.timing_driven or self.criticality_exponent <= 0:
            return None
        from repro.timing.criticality import CriticalityConfig

        return CriticalityConfig(
            exponent=self.criticality_exponent,
            tradeoff=self.timing_tradeoff,
        )


# ---------------------------------------------------------------------------
# Stage cache keys
# ---------------------------------------------------------------------------
#
# Each cached stage is keyed by exactly the FlowOptions-derived inputs
# that reach its computation, built by the functions below (the flow
# and the key-coverage test share them).  OPTION_STAGE_COVERAGE
# declares, per FlowOptions field, which stage keys the field perturbs
# *directly*; fields marked only "multimode" influence the per-stage
# runs indirectly through inputs those keys already carry (k/slack/...
# shape the architecture, seed shapes the placement fed to route_lut).
# tests/test_option_fingerprints.py asserts the declaration is exact
# and total, so a newly added knob that nobody classified — one that
# could silently alias stale cache entries — fails the suite.


def _timing_key(options: "FlowOptions") -> Tuple:
    return (
        options.timing_driven,
        options.criticality_exponent,
        options.timing_tradeoff,
    )


def place_stage_inputs(
    circuit: LutCircuit,
    arch: FpgaArchitecture,
    options: "FlowOptions",
    mode: int,
) -> Tuple:
    """Key inputs of the ``place`` stage (one mode's placement)."""
    return (
        circuit, arch, options.seed + mode, options.schedule(),
    ) + _timing_key(options)


def route_lut_stage_inputs(
    circuit: LutCircuit,
    placement: Placement,
    arch: FpgaArchitecture,
    options: "FlowOptions",
) -> Tuple:
    """Key inputs of the ``route_lut`` stage (one mode's routing)."""
    return (
        circuit, placement, arch, options.router_max_iterations,
    ) + _timing_key(options)


def dcs_stage_inputs(
    name: str,
    mode_circuits: Tuple[LutCircuit, ...],
    arch: FpgaArchitecture,
    strategy: MergeStrategy,
    options: "FlowOptions",
) -> Tuple:
    """Key inputs of the ``dcs`` stage (merge + TPlace + TRoute)."""
    return (
        name, mode_circuits, arch, strategy,
        options.seed, options.schedule(), options.tplace_refine,
        options.net_affinity, options.bit_affinity,
        options.sharing_passes, options.router_max_iterations,
    ) + _timing_key(options)


def multimode_stage_inputs(
    name: str,
    mode_circuits: Tuple[LutCircuit, ...],
    options: "FlowOptions",
    strategies: Tuple[MergeStrategy, ...],
) -> Tuple:
    """Key inputs of the whole-result ``multimode`` stage."""
    return (name, mode_circuits, options, strategies)


#: FlowOptions field -> stage keys it perturbs directly (see above).
#: The ``campaign`` stage (one campaign run's QoR record, see
#: :func:`repro.bench.campaign.campaign_stage_inputs`) embeds the
#: whole options object like ``multimode`` does, so every field
#: appears in its set.
OPTION_STAGE_COVERAGE: Dict[str, frozenset] = {
    "seed": frozenset({"place", "dcs", "multimode", "campaign"}),
    "k": frozenset({"multimode", "campaign"}),
    "slack": frozenset({"multimode", "campaign"}),
    "io_rat": frozenset({"multimode", "campaign"}),
    "fc_in": frozenset({"multimode", "campaign"}),
    "fc_out": frozenset({"multimode", "campaign"}),
    "channel_width": frozenset({"multimode", "campaign"}),
    "inner_num": frozenset(
        {"place", "dcs", "multimode", "campaign"}
    ),
    "tplace_refine": frozenset({"dcs", "multimode", "campaign"}),
    "max_width_retries": frozenset({"multimode", "campaign"}),
    "router_max_iterations": frozenset(
        {"route_lut", "dcs", "multimode", "campaign"}
    ),
    "net_affinity": frozenset({"dcs", "multimode", "campaign"}),
    "bit_affinity": frozenset({"dcs", "multimode", "campaign"}),
    "sharing_passes": frozenset({"dcs", "multimode", "campaign"}),
    "sizing": frozenset({"multimode", "campaign"}),
    "timing_driven": frozenset(
        {"place", "route_lut", "dcs", "multimode", "campaign"}
    ),
    "criticality_exponent": frozenset(
        {"place", "route_lut", "dcs", "multimode", "campaign"}
    ),
    "timing_tradeoff": frozenset(
        {"place", "route_lut", "dcs", "multimode", "campaign"}
    ),
}


@dataclass
class ModeImplementation:
    """One mode's separate (MDR) implementation.

    ``circuit`` is the mode's LUT circuit — carried along so routed
    timing (Fmax) can be analysed without re-deriving the netlist.
    """

    mode: int
    placement: Placement
    routing: RoutingResult
    circuit: Optional[LutCircuit] = None

    def bits_on(self) -> Set[int]:
        return self.routing.bits_on(0)

    def wirelength(self) -> int:
        return self.routing.total_wirelength(0)

    def sta(self, model=None):
        """Routed critical path of this mode (a ``StaReport``)."""
        if self.circuit is None:
            raise ValueError(
                "implementation carries no circuit; rebuild the "
                "result with the current flow to analyse timing"
            )
        from repro.timing.sta import (
            mdr_arc_delays,
            routed_critical_path,
        )

        arcs = mdr_arc_delays(
            self.circuit, self.placement, self.routing, model
        )
        return routed_critical_path(self.circuit, arcs, model)

    def fmax(self, model=None) -> float:
        """Max clock frequency (1 / routed critical delay)."""
        return self.sta(model).frequency()


@dataclass
class MdrResult:
    """Outcome of the MDR flow on one multi-mode circuit."""

    arch: FpgaArchitecture
    implementations: List[ModeImplementation]
    cost: ReconfigCost
    diff: ReconfigCost

    def per_mode_wirelength(self) -> List[int]:
        return [impl.wirelength() for impl in self.implementations]

    def mean_wirelength(self) -> float:
        wl = self.per_mode_wirelength()
        return sum(wl) / len(wl)

    def per_mode_sta(self, model=None) -> List["StaReport"]:
        """Routed critical-path report of every mode.

        Default-model reports are computed once and cached on the
        result (routings never mutate after assembly), so reporting
        layers — the harness tables, the CLI summary — can all ask
        without re-walking the route trees.  ``pack_result`` rebuilds
        via ``dataclasses.replace``, so the cache never reaches the
        stage cache's pickles.
        """
        if model is not None:
            return [impl.sta(model) for impl in self.implementations]
        cached = getattr(self, "_sta_reports", None)
        if cached is None:
            cached = [impl.sta() for impl in self.implementations]
            self._sta_reports = cached
        return cached

    def per_mode_critical_delay(self, model=None) -> List[float]:
        return [r.critical_delay for r in self.per_mode_sta(model)]

    def per_mode_fmax(self, model=None) -> List[float]:
        """Per-mode max clock frequency (the paper's actual metric)."""
        return [r.frequency() for r in self.per_mode_sta(model)]


@dataclass
class DcsResult:
    """Outcome of the DCS flow with one merge strategy."""

    arch: FpgaArchitecture
    strategy: MergeStrategy
    tunable: TunableCircuit
    routing: RoutingResult
    cost: ReconfigCost
    placement: Optional[CombinedPlacementResult] = None

    def per_mode_wirelength(self) -> List[int]:
        return [
            self.routing.total_wirelength(m)
            for m in range(self.tunable.n_modes)
        ]

    def mean_wirelength(self) -> float:
        wl = self.per_mode_wirelength()
        return sum(wl) / len(wl)

    def per_mode_sta(self, model=None) -> List["StaReport"]:
        """Routed critical path of every specialised mode.

        Default-model reports are cached like
        :meth:`MdrResult.per_mode_sta`'s.
        """
        if model is None:
            cached = getattr(self, "_sta_reports", None)
            if cached is not None:
                return cached
        from repro.timing.sta import (
            dcs_arc_delays,
            routed_critical_path,
        )

        reports = []
        for mode in range(self.tunable.n_modes):
            arcs = dcs_arc_delays(
                self.tunable, self.routing, mode, model
            )
            reports.append(
                routed_critical_path(
                    self.tunable.specialize(mode), arcs, model
                )
            )
        if model is None:
            self._sta_reports = reports
        return reports

    def per_mode_critical_delay(self, model=None) -> List[float]:
        return [r.critical_delay for r in self.per_mode_sta(model)]

    def per_mode_fmax(self, model=None) -> List[float]:
        """Per-mode max clock frequency inside the merged circuit."""
        return [r.frequency() for r in self.per_mode_sta(model)]


@dataclass
class MultiModeResult:
    """Both flows on one multi-mode circuit, on a shared architecture."""

    name: str
    arch: FpgaArchitecture
    mdr: MdrResult
    dcs: Dict[MergeStrategy, DcsResult]

    def speedup(self, strategy: MergeStrategy) -> float:
        """Fig. 5: reconfiguration speed-up of DCS over MDR."""
        return speedup(self.mdr.cost, self.dcs[strategy].cost)

    def wirelength_ratio(self, strategy: MergeStrategy) -> float:
        """Fig. 7: per-mode wires of DCS relative to MDR."""
        return (
            self.dcs[strategy].mean_wirelength()
            / self.mdr.mean_wirelength()
        )

    def timing(self, strategy: MergeStrategy, model=None):
        """Per-mode MDR vs DCS routed-timing comparison."""
        from repro.timing.sta import timing_comparison

        return timing_comparison(
            self.mdr.per_mode_sta(model),
            self.dcs[strategy].per_mode_sta(model),
        )

    def frequency_ratios(
        self, strategy: MergeStrategy, model=None
    ) -> Tuple[float, ...]:
        """Per-mode MDR:DCS Fmax ratios (the paper's speed claim).

        ``fmax_mdr / fmax_dcs`` per mode — equivalently the DCS:MDR
        critical-delay ratio; 1.0 means the merged implementation
        clocks as fast as the separate one, above 1.0 it is slower.
        """
        return self.timing(strategy, model).ratios()

    def mean_frequency_ratio(
        self, strategy: MergeStrategy, model=None
    ) -> float:
        return self.timing(strategy, model).mean_ratio


@dataclass
class PackedRouting:
    """A :class:`RoutingResult` with the RRG detached.

    The RRG is deterministic from the architecture, so cached and
    inter-process payloads carry only the routes and rebuild (or
    reattach) the graph on arrival — entries stay small and never pin
    a stale graph object.
    """

    routes: Dict[int, "ConnectionRoute"]
    n_modes: int
    iterations: int


def pack_routing(routing: RoutingResult) -> PackedRouting:
    return PackedRouting(
        routes=routing.routes,
        n_modes=routing.n_modes,
        iterations=routing.iterations,
    )


def restore_routing(
    packed: PackedRouting, rrg: RoutingResourceGraph
) -> RoutingResult:
    return RoutingResult(
        rrg=rrg,
        routes=packed.routes,
        n_modes=packed.n_modes,
        iterations=packed.iterations,
    )


def pack_result(result: "MultiModeResult") -> "MultiModeResult":
    """Detach every RRG reference for caching / IPC transport."""
    mdr = replace(
        result.mdr,
        implementations=[
            replace(impl, routing=pack_routing(impl.routing))
            for impl in result.mdr.implementations
        ],
    )
    dcs = {
        strategy: replace(d, routing=pack_routing(d.routing))
        for strategy, d in result.dcs.items()
    }
    return MultiModeResult(result.name, result.arch, mdr, dcs)


def unpack_result(packed: "MultiModeResult") -> "MultiModeResult":
    """Rebuild the RRG once and reattach it to every routing."""
    rrg = build_rrg(packed.arch)
    mdr = replace(
        packed.mdr,
        implementations=[
            replace(impl, routing=restore_routing(impl.routing, rrg))
            for impl in packed.mdr.implementations
        ],
    )
    dcs = {
        strategy: replace(d, routing=restore_routing(d.routing, rrg))
        for strategy, d in packed.dcs.items()
    }
    return MultiModeResult(packed.name, packed.arch, mdr, dcs)


def _stage_cache(cache_root: Optional[str],
                 cache_enabled: bool) -> StageCache:
    return StageCache(cache_root, enabled=cache_enabled)


def _mdr_mode_stage(
    label: str,
    mode: int,
    circuit: LutCircuit,
    arch: FpgaArchitecture,
    options: FlowOptions,
    cache_root: Optional[str],
    cache_enabled: bool,
    rrg: Optional[RoutingResourceGraph] = None,
) -> Tuple[int, Placement, PackedRouting, List[StageRecord]]:
    """Place & route one MDR mode (scheduler task; runs in workers).

    Placement and routing are memoized independently, so a placement
    survives router-option changes and vice versa.
    """
    cache = _stage_cache(cache_root, cache_enabled)
    records: List[StageRecord] = []
    item = f"{label}/mode{mode}"
    timing = options.criticality()

    def compute_placement() -> Placement:
        return place_circuit(
            circuit,
            arch,
            seed=options.seed + mode,
            schedule=options.schedule(),
            timing=timing,
        )

    # Keyed by exactly the inputs that reach place_circuit, so cached
    # placements survive changes to unrelated (e.g. router) options.
    (placement, place_hit), record = timed_call(
        "place", item, cache.memoize,
        "place",
        place_stage_inputs(circuit, arch, options, mode),
        compute_placement,
    )
    records.append(replace(record, cache_hit=place_hit))

    def compute_routing() -> PackedRouting:
        graph = rrg if rrg is not None else build_rrg(arch)
        return pack_routing(
            route_lut_circuit(
                circuit,
                placement,
                graph,
                timing=timing,
                max_iterations=options.router_max_iterations,
            )
        )

    (packed, route_hit), record = timed_call(
        "route_lut", item, cache.memoize,
        "route_lut",
        route_lut_stage_inputs(circuit, placement, arch, options),
        compute_routing,
    )
    records.append(replace(record, cache_hit=route_hit))
    return mode, placement, packed, records


def _dcs_stage(
    label: str,
    name: str,
    strategy_value: str,
    mode_circuits: Tuple[LutCircuit, ...],
    arch: FpgaArchitecture,
    options: FlowOptions,
    cache_root: Optional[str],
    cache_enabled: bool,
    rrg: Optional[RoutingResourceGraph] = None,
) -> Tuple[str, DcsResult, List[StageRecord]]:
    """Merge + TPlace + TRoute for one strategy (scheduler task).

    The returned :class:`DcsResult` carries a :class:`PackedRouting`
    in place of its routing; the parent reattaches the RRG.
    """
    cache = _stage_cache(cache_root, cache_enabled)
    strategy = MergeStrategy(strategy_value)
    item = f"{label}/dcs-{strategy_value}"

    def compute() -> DcsResult:
        graph = rrg if rrg is not None else build_rrg(arch)
        result = _run_dcs(
            name, mode_circuits, arch, strategy, options, graph
        )
        return replace(result, routing=pack_routing(result.routing))

    # Keyed by the inputs the DCS pipeline actually consumes (merge,
    # TPlace, TRoute) rather than the whole options object.
    (packed, hit), record = timed_call(
        "dcs", item, cache.memoize, "dcs",
        dcs_stage_inputs(name, mode_circuits, arch, strategy, options),
        compute,
    )
    return strategy_value, packed, [replace(record, cache_hit=hit)]


def _run_dcs(
    name: str,
    mode_circuits: Sequence[LutCircuit],
    arch: FpgaArchitecture,
    strategy: MergeStrategy,
    options: FlowOptions,
    rrg: RoutingResourceGraph,
) -> DcsResult:
    """The DCS flow proper: merge, (T)place, TRoute, bit accounting.

    With ``options.timing_driven`` the same criticality model steers
    every stage: the wire-length combined placement and the TPlace
    refinement anneal the criticality-weighted delay term, and TRoute
    prices connections by the worst criticality over their active
    modes (edge matching itself stays topology-only — the paper's
    criterion — so its timing pressure comes from TPlace).
    """
    n_modes = len(mode_circuits)
    timing = options.criticality()
    placement_result: Optional[CombinedPlacementResult] = None
    if strategy == MergeStrategy.BY_INDEX:
        tunable = merge_by_index(name, mode_circuits)
        tplace(
            tunable,
            arch,
            seed=options.seed,
            schedule=options.schedule(),
            randomize=True,
            timing=timing,
        )
    else:
        tunable, placement_result = merge_with_combined_placement(
            name,
            mode_circuits,
            arch,
            strategy=strategy,
            seed=options.seed,
            schedule=options.schedule(),
            timing=(
                timing
                if strategy == MergeStrategy.WIRE_LENGTH else None
            ),
        )
        if options.tplace_refine:
            # Only the wire-length combined placement annealed TPlace's
            # own cost (plus its timing term when timed), so only it
            # is worth refining; edge matching is topology-only, and
            # its geometry gains from a full re-placement.
            tplace(
                tunable,
                arch,
                seed=options.seed,
                schedule=options.schedule(),
                timing=timing,
                refine=strategy == MergeStrategy.WIRE_LENGTH,
            )
    criticality = None
    if timing is not None:
        from repro.timing.criticality import (
            tunable_connection_criticalities,
        )

        criticality = tunable_connection_criticalities(
            tunable, rrg, timing
        )
    routing = route_tunable_circuit(
        rrg,
        tunable.site_connections(),
        n_modes,
        net_affinity=options.net_affinity,
        bit_affinity=options.bit_affinity,
        sharing_passes=options.sharing_passes,
        max_iterations=options.router_max_iterations,
        criticality=criticality,
        delay_model=timing.model if timing is not None else None,
    )
    per_mode_bits = [
        routing.bits_on(m) for m in range(n_modes)
    ]
    return DcsResult(
        arch=arch,
        strategy=strategy,
        tunable=tunable,
        routing=routing,
        cost=diff_cost(arch, per_mode_bits),
        placement=placement_result,
    )


class MdrFlow:
    """Modular Dynamic Reconfiguration: implement each mode separately.

    Modes are independent synth→place→route runs, so they are submitted
    as one scheduler batch: serial when ``workers <= 1`` (bit-identical
    to the historical loop), fanned over a process pool otherwise.
    """

    def __init__(
        self,
        options: Optional[FlowOptions] = None,
        workers: Optional[int] = None,
        cache: Optional[StageCache] = None,
        progress: Optional[ProgressLog] = None,
    ) -> None:
        self.options = options or FlowOptions()
        self.workers = resolve_workers(workers)
        self.cache = cache or StageCache(enabled=False)
        self.progress = progress or ProgressLog()

    def run(
        self,
        mode_circuits: Sequence[LutCircuit],
        arch: FpgaArchitecture,
        rrg: Optional[RoutingResourceGraph] = None,
        label: str = "mdr",
    ) -> MdrResult:
        """Place & route every mode independently in the region."""
        rrg = rrg or build_rrg(arch)
        inline = (
            effective_workers(self.workers, len(mode_circuits)) <= 1
        )
        tasks = [
            Task(
                _mdr_mode_stage,
                (
                    label, mode, circuit, arch, self.options,
                    _cache_root_arg(self.cache), self.cache.enabled,
                    rrg if inline else None,
                ),
                name=f"{label}/mode{mode}",
            )
            for mode, circuit in enumerate(mode_circuits)
        ]
        outcomes = run_tasks(tasks, workers=self.workers)
        return _assemble_mdr(
            arch, rrg, outcomes, self.progress, mode_circuits
        )


def _cache_root_arg(cache: StageCache) -> Optional[str]:
    return str(cache.root) if cache.enabled else None


def _assemble_mdr(
    arch: FpgaArchitecture,
    rrg: RoutingResourceGraph,
    outcomes: Sequence[Tuple[int, Placement, PackedRouting,
                             List[StageRecord]]],
    progress: ProgressLog,
    mode_circuits: Sequence[LutCircuit],
) -> MdrResult:
    implementations = []
    for mode, placement, packed, records in outcomes:
        progress.extend(records)
        implementations.append(
            ModeImplementation(
                mode, placement, restore_routing(packed, rrg),
                circuit=mode_circuits[mode],
            )
        )
    implementations.sort(key=lambda impl: impl.mode)
    per_mode_bits = [impl.bits_on() for impl in implementations]
    return MdrResult(
        arch=arch,
        implementations=implementations,
        cost=mdr_cost(arch, rrg),
        diff=diff_cost(arch, per_mode_bits),
    )


class DcsFlow:
    """The paper's flow: merge + Dynamic Circuit Specialization."""

    def __init__(
        self,
        options: Optional[FlowOptions] = None,
        cache: Optional[StageCache] = None,
        progress: Optional[ProgressLog] = None,
    ) -> None:
        self.options = options or FlowOptions()
        self.cache = cache or StageCache(enabled=False)
        self.progress = progress or ProgressLog()

    def run(
        self,
        name: str,
        mode_circuits: Sequence[LutCircuit],
        arch: FpgaArchitecture,
        strategy: MergeStrategy = MergeStrategy.WIRE_LENGTH,
        rrg: Optional[RoutingResourceGraph] = None,
    ) -> DcsResult:
        """Combined placement, merge, TPlace, TRoute, bit accounting."""
        rrg = rrg or build_rrg(arch)
        _value, packed, records = _dcs_stage(
            name, name, strategy.value, tuple(mode_circuits), arch,
            self.options, _cache_root_arg(self.cache),
            self.cache.enabled, rrg,
        )
        self.progress.extend(records)
        return replace(
            packed, routing=restore_routing(packed.routing, rrg)
        )


def estimate_channel_width(
    mode_circuits: Sequence[LutCircuit],
    arch: FpgaArchitecture,
    utilization: float = 0.55,
    slack: float = 1.2,
    floor: int = 6,
    ceiling: int = 48,
) -> int:
    """Estimate a routable channel width from netlist statistics.

    Average wiring demand per channel segment is approximated from the
    connection count and the mean Manhattan length of a random
    placement (~ one third of the grid semi-perimeter); the estimate is
    then inflated by ``1/utilization`` (peak-to-average) and the
    paper's 20% slack.
    """
    n_segments = max(1, arch.n_channel_segments())
    demand = 0.0
    for circuit in mode_circuits:
        n_conns = len(circuit.connections())
        mean_length = (arch.nx + arch.ny) / 6.0
        demand = max(demand, n_conns * mean_length)
    width = int(demand / n_segments / utilization * slack) + 1
    return max(floor, min(ceiling, width))


def implement_multi_mode(
    name: str,
    mode_circuits: Sequence[LutCircuit],
    options: Optional[FlowOptions] = None,
    strategies: Sequence[MergeStrategy] = (
        MergeStrategy.EDGE_MATCHING,
        MergeStrategy.WIRE_LENGTH,
    ),
    workers: Optional[int] = None,
    cache: Optional[StageCache] = None,
    progress: Optional[ProgressLog] = None,
) -> MultiModeResult:
    """Run MDR and DCS on a shared architecture; retry wider on failure.

    This is the experiment driver: one call per multi-mode circuit
    yields every quantity Figs. 5-7 need.

    The per-mode MDR runs and the per-strategy DCS runs are mutually
    independent, so they are submitted as *one* scheduler batch
    (``workers`` processes; ``<= 1`` = serial, bit-identical results).
    With a ``cache``, the whole result is memoized against the inputs
    — a warm rerun deserialises one entry — and on a miss every stage
    (placement, LUT routing, DCS merge+route) is memoized separately.
    """
    options = options or FlowOptions()
    cache = cache or StageCache(enabled=False)
    progress = progress or ProgressLog()
    workers = resolve_workers(workers)

    pair_key = None
    if cache.enabled:
        pair_key = cache.key(
            "multimode",
            *multimode_stage_inputs(
                name, tuple(mode_circuits), options,
                tuple(strategies),
            ),
        )
        hit, packed = cache.get("multimode", pair_key)
        if hit:
            progress.add(
                StageRecord("multimode", name, 0.0, cache_hit=True)
            )
            return unpack_result(packed)

    n_blocks = max(c.n_luts() for c in mode_circuits)
    io_names = set()
    for circuit in mode_circuits:
        io_names.update(circuit.inputs)
        io_names.update(circuit.outputs)

    arch = size_for_circuits(
        n_blocks,
        len(io_names),
        k=options.k,
        channel_width=options.channel_width or 8,
        slack=options.slack,
        io_rat=options.io_rat,
        fc_in=options.fc_in,
        fc_out=options.fc_out,
    )
    if options.channel_width is not None:
        width = options.channel_width
    elif options.sizing == "search":
        from repro.arch.sizing import paper_channel_width

        width = paper_channel_width(
            mode_circuits,
            arch,
            slack=options.slack,
            seed=options.seed,
            schedule=options.schedule(),
            router_max_iterations=options.router_max_iterations,
        )
    elif options.sizing == "estimate":
        width = estimate_channel_width(mode_circuits, arch)
    else:
        raise ValueError(
            f"unknown sizing {options.sizing!r} "
            "(use 'estimate' or 'search')"
        )

    cache_root = _cache_root_arg(cache)
    last_error: Optional[Exception] = None
    for _attempt in range(options.max_width_retries):
        arch = FpgaArchitecture(
            nx=arch.nx,
            ny=arch.ny,
            k=arch.k,
            channel_width=width,
            fc_in=arch.fc_in,
            fc_out=arch.fc_out,
            io_rat=arch.io_rat,
        )
        # Serial/inline execution routes everything over one shared
        # graph; pool workers rebuild it locally instead of
        # deserialising it.
        n_tasks = len(mode_circuits) + len(strategies)
        serial = effective_workers(workers, n_tasks) <= 1
        rrg = build_rrg(arch)
        shipped_rrg = rrg if serial else None
        tasks = [
            Task(
                _mdr_mode_stage,
                (
                    name, mode, circuit, arch, options,
                    cache_root, cache.enabled, shipped_rrg,
                ),
                name=f"{name}/mode{mode}",
            )
            for mode, circuit in enumerate(mode_circuits)
        ]
        tasks += [
            Task(
                _dcs_stage,
                (
                    name, name, strategy.value, tuple(mode_circuits),
                    arch, options, cache_root, cache.enabled,
                    shipped_rrg,
                ),
                name=f"{name}/dcs-{strategy.value}",
            )
            for strategy in strategies
        ]
        try:
            outcomes = run_tasks(tasks, workers=workers)
        except RoutingError as error:
            last_error = error
            width = max(width + 2, int(width * 1.25))
            continue
        n_modes = len(mode_circuits)
        mdr = _assemble_mdr(
            arch, rrg, outcomes[:n_modes], progress, mode_circuits
        )
        dcs: Dict[MergeStrategy, DcsResult] = {}
        for value, packed_dcs, records in outcomes[n_modes:]:
            progress.extend(records)
            dcs[MergeStrategy(value)] = replace(
                packed_dcs,
                routing=restore_routing(packed_dcs.routing, rrg),
            )
        result = MultiModeResult(name, arch, mdr, dcs)
        if pair_key is not None:
            cache.put("multimode", pair_key, pack_result(result))
        return result
    # ``width`` already holds the next width to try; ``arch`` is the
    # last one routed.
    raise RoutingError(
        f"{name}: unroutable even at channel width "
        f"{arch.channel_width}: {last_error}"
    )
