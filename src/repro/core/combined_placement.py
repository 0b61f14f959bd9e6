"""Combined placement of all mode circuits (paper Sections III-A/B).

The conventional annealing placer is extended so several LUT circuits
are placed *simultaneously* on the same fabric:

* LUTs of different modes may occupy the same physical logic block
  (they will share a Tunable LUT after merging);
* a swap selects two physical blocks *and a mode*: only the chosen
  mode's occupants are interchanged;
* IO pads are shared across modes by signal name (the chip pins of a
  multi-mode system are fixed), so pad moves relocate the pad in every
  mode at once.

Two cost functions are available, matching the paper's two options:

* ``EDGE_MATCHING`` — minimise the number of distinct tunable
  connections, i.e. maximise the connections of different modes that
  end up with the same physical source and sink (Rullmann & Merker's
  criterion).  Topology-only: placement quality is ignored.
* ``WIRE_LENGTH`` — minimise the summed per-mode bounding-box wire
  length, the same estimator TPlace uses (the paper's novel approach).

:class:`TunablePlacementProblem` implements TPlace: annealing of an
already-merged Tunable circuit, moving whole Tunable cells (topology
fixed), either as a true refinement of its sites or as a re-placement
(see :func:`tplace`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.architecture import FpgaArchitecture, Site
from repro.core.merge import MergeStrategy, merge_from_placement
from repro.core.tunable import TunableCircuit
from repro.netlist.lutcircuit import LutCircuit
from repro.place.annealing import AnnealingSchedule, AnnealingStats, anneal
from repro.place.placer import circuit_nets, pad_cell
from repro.place.state import Move, PlacementState
from repro.utils.rng import make_rng


@dataclass
class CombinedPlacementResult:
    """Outcome of a combined placement run."""

    arch: FpgaArchitecture
    block_sites: Dict[Tuple[int, str], Site]
    pad_sites: Dict[str, Site]
    cost: float
    wirelength: float
    n_tunable_connections: int
    stats: Optional[AnnealingStats] = None


class CombinedPlacementProblem(PlacementState):
    """Annealing problem placing all modes at once.

    Cells are numbered every mode's blocks first (``block_names``,
    mode by mode), then the IO pads the modes share (``pad_names``).
    A block of mode *m* occupies layer *m* of the occupancy
    (:mod:`repro.place.state`), so a block move swaps only with a
    block of its own mode; pads all sit in layer 0.

    *timing* (a :class:`~repro.timing.criticality.CriticalityConfig`)
    adds the criticality-weighted connection-delay term to the
    wire-length cost — one STA per mode, refreshed every temperature.
    It requires the ``WIRE_LENGTH`` strategy: edge matching is the
    paper's topology-only criterion (placement geometry is
    deliberately ignored), so a geometric timing term has no place in
    it; timing pressure reaches edge-matched circuits through the
    TPlace refinement instead.
    """

    def __init__(
        self,
        arch: FpgaArchitecture,
        mode_circuits: Sequence[LutCircuit],
        rng,
        strategy: MergeStrategy = MergeStrategy.WIRE_LENGTH,
        timing=None,
    ) -> None:
        if strategy == MergeStrategy.BY_INDEX:
            raise ValueError(
                "BY_INDEX is not a combined-placement strategy"
            )
        if timing is not None and strategy != MergeStrategy.WIRE_LENGTH:
            raise ValueError(
                "timing-driven combined placement requires the "
                "wire-length strategy"
            )
        self._init_sites(arch)
        self.circuits = list(mode_circuits)
        self.n_modes = len(self.circuits)
        self.strategy = strategy
        self._mode_inputs = [
            set(circuit.inputs) for circuit in self.circuits
        ]

        # -- cells ---------------------------------------------------------
        self.block_names: List[Tuple[int, str]] = [
            (mode, block)
            for mode, circuit in enumerate(self.circuits)
            for block in circuit.blocks
        ]
        self.pad_names: List[str] = sorted({
            pad_cell(signal)
            for circuit in self.circuits
            for signal in list(circuit.inputs) + list(circuit.outputs)
        })
        n_blocks = len(self.block_names)
        self._block_id = {
            key: i for i, key in enumerate(self.block_names)
        }
        self._pad_id = {
            name: n_blocks + j for j, name in enumerate(self.pad_names)
        }
        self.logic_pool = list(range(n_blocks))
        self.pad_pool = list(range(n_blocks, n_blocks + len(self._pad_id)))
        max_blocks = max(len(c.blocks) for c in self.circuits)
        if max_blocks > self.n_clb:
            raise ValueError("largest mode does not fit the grid")
        if len(self.pad_pool) > self.n_sites - self.n_clb:
            raise ValueError("IO pads do not fit the perimeter")

        # -- initial placement (random, legal) --------------------------------
        site_of = [-1] * (n_blocks + len(self.pad_pool))
        for mode, circuit in enumerate(self.circuits):
            shuffled = self._shuffled(rng, False)
            for block, site in zip(sorted(circuit.blocks), shuffled):
                site_of[self._block_id[(mode, block)]] = site
        for cell, site in zip(self.pad_pool, self._shuffled(rng, True)):
            site_of[cell] = site
        self._init_state(
            site_of,
            [
                [self._cell_id(mode, cell) for cell in net.cells]
                for mode, circuit in enumerate(self.circuits)
                for net in circuit_nets(circuit)
            ],
            n_layers=self.n_modes,
            layer_base=[
                mode * self.n_sites for mode, _ in self.block_names
            ] + [0] * len(self.pad_pool),
        )

        # -- connections (for edge-matching cost) -----------------------------
        # Per mode, cell-level connections (source cell, sink cell).
        self.conn_src: List[int] = []
        self.conn_snk: List[int] = []
        for mode, circuit in enumerate(self.circuits):
            for block in circuit.blocks.values():
                sink = self._block_id[(mode, block.name)]
                for src in block.inputs:
                    self.conn_src.append(self._cell_id(mode, src))
                    self.conn_snk.append(sink)
            for out in circuit.outputs:
                self.conn_src.append(self._cell_id(mode, out))
                self.conn_snk.append(self._pad_id[pad_cell(out)])
        self.conns_of_cell: List[List[int]] = [[] for _ in site_of]
        for i, (src, sink) in enumerate(zip(self.conn_src, self.conn_snk)):
            self.conns_of_cell[src].append(i)
            if sink != src:
                self.conns_of_cell[sink].append(i)
        if strategy == MergeStrategy.EDGE_MATCHING:
            # Multiset of site-level connections (key -> copies), each
            # keyed ``src_site * n_sites + sink_site``, plus every
            # connection's current key (the keys a move leaves).
            self._conn_keys = self._site_keys(range(len(self.conn_src)))
            self._conn_count: Dict[int, int] = {}
            for key in self._conn_keys:
                self._conn_count[key] = self._conn_count.get(key, 0) + 1

        # -- timing term (wire-length strategy only) --------------------------
        self._bind_timing(timing, [
            (circuit, lambda cell, m=mode: self._cell_id(m, cell))
            for mode, circuit in enumerate(self.circuits)
        ])

    # -- helpers ---------------------------------------------------------

    def _cell_id(self, mode: int, cell: str) -> int:
        if cell.startswith("pad:"):
            return self._pad_id[cell]
        if cell in self._mode_inputs[mode]:
            return self._pad_id[pad_cell(cell)]
        return self._block_id[(mode, cell)]

    # -- annealing interface -------------------------------------------------

    def edge_matching_cost(self) -> float:
        """Number of distinct tunable connections after merging."""
        return float(len(set(
            self._site_keys(range(len(self.conn_src)))
        )))

    def initial_cost(self) -> float:
        if self.strategy == MergeStrategy.WIRE_LENGTH:
            return self._combined_cost()
        return self.edge_matching_cost()

    def delta_cost(self, move: Move) -> float:
        if self.strategy == MergeStrategy.WIRE_LENGTH:
            return super().delta_cost(move)
        # Edge matching: the change in the number of distinct
        # site-level connections.  A key the moved connections leave
        # disappears when they held all its copies and none return; a
        # key they arrive at is new when nothing else holds it.
        cell, src, dst = move
        other = self.cell_at[self.layer_base[cell] + dst]
        affected = self._affected_conns(cell, other)
        conn_keys = self._conn_keys
        left: Dict[int, int] = {}
        for i in affected:
            key = conn_keys[i]
            left[key] = left.get(key, 0) + 1
        site_of = self.site_of
        site_of[cell] = dst
        if other >= 0:
            site_of[other] = src
        new_keys = self._site_keys(affected)
        site_of[cell] = src
        if other >= 0:
            site_of[other] = dst
        # Remembered so commit() of this same move reuses the keys.
        self._pending = (move, affected, new_keys)
        arrived = set(new_keys)
        count = self._conn_count
        delta = 0
        for key, n in left.items():
            if key not in arrived and count[key] == n:
                delta -= 1
        for key in arrived:
            if key not in left and key not in count:
                delta += 1
        return float(delta)

    def _affected_conns(self, cell: int, other: int) -> Sequence[int]:
        """Connections of the moved cells, each once (a lone cell's
        list is duplicate-free as built)."""
        if other < 0:
            return self.conns_of_cell[cell]
        conns = set(self.conns_of_cell[cell])
        conns.update(self.conns_of_cell[other])
        return conns

    def _site_keys(self, conns: Sequence[int]) -> List[int]:
        """The site-level keys of *conns* at the current sites,
        ``src_site * n_sites + sink_site``."""
        site_of = self.site_of
        conn_src = self.conn_src
        conn_snk = self.conn_snk
        n_sites = self.n_sites
        return [
            site_of[conn_src[i]] * n_sites + site_of[conn_snk[i]]
            for i in conns
        ]

    def commit(self, move: Move) -> None:
        if self.strategy == MergeStrategy.WIRE_LENGTH:
            super().commit(move)
            return
        # Edge matching anneals on the connection count alone; the
        # net costs are recounted when the result is read.
        other = self._apply(move)
        pending = self._pending
        self._pending = None
        if pending is not None and pending[0] is move:
            _, affected, new_keys = pending
        else:
            affected = self._affected_conns(move[0], other)
            new_keys = self._site_keys(affected)
        count = self._conn_count
        conn_keys = self._conn_keys
        for i in affected:
            key = conn_keys[i]
            n = count[key] - 1
            if n:
                count[key] = n
            else:
                del count[key]
        for i, key in zip(affected, new_keys):
            count[key] = count.get(key, 0) + 1
            conn_keys[i] = key

    # -- results -----------------------------------------------------------

    def result(self, stats: Optional[AnnealingStats] = None
               ) -> CombinedPlacementResult:
        sites = self.sites
        site_of = self.site_of
        n_blocks = len(self.block_names)
        return CombinedPlacementResult(
            arch=self.arch,
            block_sites={
                key: sites[site_of[i]]
                for i, key in enumerate(self.block_names)
            },
            pad_sites={
                name: sites[site_of[n_blocks + j]]
                for j, name in enumerate(self.pad_names)
            },
            cost=self.initial_cost(),
            wirelength=self.wirelength(),
            n_tunable_connections=int(self.edge_matching_cost()),
            stats=stats,
        )


def combined_place(
    mode_circuits: Sequence[LutCircuit],
    arch: FpgaArchitecture,
    strategy: MergeStrategy = MergeStrategy.WIRE_LENGTH,
    seed: int = 0,
    schedule: Optional[AnnealingSchedule] = None,
    timing=None,
) -> CombinedPlacementResult:
    """Run the combined placement of all modes with *strategy*.

    *timing* (a ``CriticalityConfig``) makes the wire-length variant
    timing-driven; it must be ``None`` for edge matching.
    """
    rng = make_rng(seed, f"combined:{strategy.value}")
    problem = CombinedPlacementProblem(
        arch, mode_circuits, rng, strategy, timing=timing
    )
    stats = anneal(problem, rng, schedule)
    return problem.result(stats)


def merge_with_combined_placement(
    name: str,
    mode_circuits: Sequence[LutCircuit],
    arch: FpgaArchitecture,
    strategy: MergeStrategy = MergeStrategy.WIRE_LENGTH,
    seed: int = 0,
    schedule: Optional[AnnealingSchedule] = None,
    timing=None,
) -> Tuple[TunableCircuit, CombinedPlacementResult]:
    """Combined placement followed by Tunable-circuit extraction."""
    placement = combined_place(
        mode_circuits, arch, strategy, seed, schedule, timing=timing
    )
    tunable = merge_from_placement(
        name, mode_circuits, placement.block_sites, placement.pad_sites
    )
    return tunable, placement


class TunablePlacementProblem(PlacementState):
    """TPlace: refine the placement of a merged Tunable circuit.

    Cells are whole Tunable LUTs / pads (all modes move together),
    numbered Tunable LUTs first, then pads, each in name order; the
    topology — which LUTs share a Tunable LUT — is fixed.  The cost is
    the same summed per-mode bounding-box estimator the combined
    placement's wire-length option uses; *timing* (a
    ``CriticalityConfig``) adds the criticality-weighted delay term,
    analysed per mode on the specialised circuits at the Tunable
    cells' sites.
    """

    def __init__(self, tunable: TunableCircuit,
                 arch: FpgaArchitecture, rng,
                 randomize: bool = False,
                 timing=None) -> None:
        self._init_sites(arch)
        self.tunable = tunable
        tlut_names = sorted(tunable.tluts)
        pad_names = sorted(tunable.pads)
        if len(tlut_names) > self.n_clb:
            raise ValueError("tunable circuit does not fit the grid")
        if len(pad_names) > self.n_sites - self.n_clb:
            raise ValueError("tunable pads do not fit the perimeter")
        self.names = tlut_names + pad_names
        index = {name: i for i, name in enumerate(self.names)}
        self.logic_pool = list(range(len(tlut_names)))
        self.pad_pool = list(range(len(tlut_names), len(self.names)))

        #: Whether the start sites were drawn at random (nothing to
        #: refine) rather than read from the Tunable circuit.
        self.randomized = randomize or any(
            tunable.tluts[n].site is None for n in tlut_names
        )
        if self.randomized:
            site_of = (
                self._shuffled(rng, False)[:len(tlut_names)]
                + self._shuffled(rng, True)[:len(pad_names)]
            )
        else:
            site_id = {site: i for i, site in enumerate(self.sites)}
            site_of = [
                site_id[tunable.tluts[name].site] for name in tlut_names
            ] + [site_id[tunable.pads[name].site] for name in pad_names]

        # Per-mode nets in tunable-cell space, derived from the
        # tunable connections (the fixed topology).
        sinks_by_source: Dict[Tuple[int, str], List[str]] = {}
        for conn in tunable.connections:
            for mode in conn.activation:
                sinks_by_source.setdefault(
                    (mode, conn.source), []
                ).append(conn.sink)
        nets: List[List[int]] = []
        for (_mode, source), sinks in sorted(sinks_by_source.items()):
            cells = [index[source]]
            for sink in sinks:
                if index[sink] not in cells:
                    cells.append(index[sink])
            if len(cells) >= 2:
                nets.append(cells)
        self._init_state(site_of, nets)

        circuits = []
        if timing is not None:
            from repro.timing.criticality import tunable_carriers

            carriers = tunable_carriers(tunable)
            circuits = [
                (
                    tunable.specialize(mode),
                    lambda cell, m=mode: index[carriers[(m, cell)]],
                )
                for mode in range(tunable.n_modes)
            ]
        self._bind_timing(timing, circuits)

    def apply_to_tunable(self) -> None:
        """Write the refined sites back into the Tunable circuit."""
        n_tluts = len(self.logic_pool)
        for cell, name in enumerate(self.names):
            cells = self.tunable.tluts if cell < n_tluts else self.tunable.pads
            cells[name].site = self.sites[self.site_of[cell]]


def tplace(
    tunable: TunableCircuit,
    arch: FpgaArchitecture,
    seed: int = 0,
    schedule: Optional[AnnealingSchedule] = None,
    randomize: bool = False,
    timing=None,
    refine: bool = False,
) -> AnnealingStats:
    """Run TPlace on *tunable*; sites are updated in place.

    By default the anneal starts hot (VPR's schedule): its temperature
    probe scrambles the sites it was given, so TPlace re-places the
    circuit.  *refine* starts it cold from those sites instead
    (:func:`repro.place.annealing.anneal`), which pays off only when
    they already optimise TPlace's own cost — the wire-length combined
    placement's.  A start drawn at random (*randomize*, or a Tunable
    LUT without a site) is never refined.  *timing* (a
    ``CriticalityConfig``) makes the anneal timing-driven; ``None`` is
    bit-identical to the historical run.
    """
    rng = make_rng(seed, "tplace")
    problem = TunablePlacementProblem(
        tunable, arch, rng, randomize=randomize, timing=timing
    )
    stats = anneal(
        problem, rng, schedule, refine=refine and not problem.randomized
    )
    problem.apply_to_tunable()
    return stats
