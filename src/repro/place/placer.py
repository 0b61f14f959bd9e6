"""Conventional wire-length-driven placement (single circuit).

This is the "Placement" box of the MDR tool flow (paper Fig. 2(a)): a
VPR-style simulated-annealing placer that assigns every LUT block to a
logic-block tile and every primary IO to a perimeter pad slot, while
minimising the bounding-box wire-length estimate.

The combined placer of the paper (``repro.core.combined_placement``)
extends the same machinery to several mode circuits at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.arch.architecture import FpgaArchitecture, Site
from repro.netlist.lutcircuit import LutCircuit
from repro.place.annealing import AnnealingSchedule, AnnealingStats, anneal
from repro.place.cost import net_bounding_box_cost
from repro.place.state import PlacementState, randbelow
from repro.utils.rng import make_rng


def pad_cell(signal: str) -> str:
    """Cell name of the IO pad carrying primary IO *signal*."""
    return f"pad:{signal}"


@dataclass
class Net:
    """One placement net: a source cell and its sink cells."""

    name: str
    cells: List[str]  # source first, then sinks (duplicates removed)


def circuit_nets(circuit: LutCircuit) -> List[Net]:
    """Extract placement nets from a LUT circuit.

    Each driven signal with at least one reader becomes a net.  Primary
    inputs source from their pad cell; primary outputs add the pad cell
    as a sink.
    """
    # Sorted so net order (and with it the whole annealing trajectory)
    # is identical in every process: ``signals()`` is a set of strings,
    # and string-set iteration order changes with PYTHONHASHSEED.
    readers: Dict[str, List[str]] = {
        s: [] for s in sorted(circuit.signals())
    }
    for block in circuit.blocks.values():
        for src in block.inputs:
            readers[src].append(block.name)
    for out in circuit.outputs:
        readers[out].append(pad_cell(out))

    nets = []
    for signal, sinks in readers.items():
        if not sinks:
            continue
        source = (
            pad_cell(signal) if signal in circuit.inputs else signal
        )
        seen: Set[str] = {source}
        cells = [source]
        for cell in sinks:
            if cell not in seen:
                seen.add(cell)
                cells.append(cell)
        if len(cells) >= 2:
            nets.append(Net(signal, cells))
    return nets


def circuit_cells(circuit: LutCircuit) -> Tuple[List[str], List[str]]:
    """(logic cells, pad cells) of a circuit."""
    logic = list(circuit.blocks)
    pads = [pad_cell(s) for s in circuit.inputs]
    pads += [pad_cell(s) for s in circuit.outputs]
    return logic, pads


@dataclass
class Placement:
    """A finished placement: cell name -> site."""

    arch: FpgaArchitecture
    sites: Dict[str, Site]
    cost: float
    stats: Optional[AnnealingStats] = None

    def position(self, cell: str) -> Tuple[int, int]:
        return self.sites[cell].pos()


class _SinglePlacementProblem(PlacementState):
    """Annealing problem for one circuit; see repro.place.annealing.

    Cells are numbered logic blocks first, then IO pads.  *timing* is
    an optional :class:`~repro.timing.criticality.CriticalityConfig`;
    when given, moves are priced by the combined wire-length +
    criticality-weighted-delay cost.
    """

    def __init__(
        self,
        circuit: LutCircuit,
        arch: FpgaArchitecture,
        rng,
        timing=None,
    ) -> None:
        self._init_sites(arch)
        logic, pads = circuit_cells(circuit)
        if len(logic) > self.n_clb:
            raise ValueError(
                f"{len(logic)} blocks exceed {self.n_clb} logic tiles"
            )
        n_pad_sites = self.n_sites - self.n_clb
        if len(pads) > n_pad_sites:
            raise ValueError(
                f"{len(pads)} IOs exceed {n_pad_sites} pad slots"
            )
        # An IO that is both input and output names one pad cell
        # twice: one cell id, listed twice in the pad pool.
        self.names: List[str] = list(dict.fromkeys(logic + pads))
        index = {name: i for i, name in enumerate(self.names)}
        self.logic_pool = [index[cell] for cell in logic]
        self.pad_pool = [index[cell] for cell in pads]
        # Random legal initial placement.
        site_of = [-1] * len(self.names)
        for cell, site in zip(self.logic_pool, self._shuffled(rng, False)):
            site_of[cell] = site
        for cell, site in zip(self.pad_pool, self._shuffled(rng, True)):
            site_of[cell] = site
        self._init_state(site_of, [
            [index[cell] for cell in net.cells]
            for net in circuit_nets(circuit)
        ])
        self._bind_timing(timing, [(circuit, index.__getitem__)])

    def propose(self, rlim: float, rng):
        """Pick a random cell and a random target site within rlim."""
        pool = (
            self.logic_pool
            if rng.random() < (
                len(self.logic_pool) / max(1, self.size())
            )
            else self.pad_pool
        )
        if not pool:
            pool = self.logic_pool or self.pad_pool
        getrandbits = rng.getrandbits
        return self._propose_site(
            pool[randbelow(getrandbits, len(pool))], rlim, getrandbits
        )

    def _affected_nets(self, cell: int, other: int) -> List[int]:
        # A lone cell's net list is ascending and duplicate-free, so
        # it is already what sorting its set would give.
        if other < 0:
            return self.nets_of_cell[cell]
        return sorted(super()._affected_nets(cell, other))

    def placement(self, stats: AnnealingStats) -> Placement:
        sites = self.sites
        return Placement(
            arch=self.arch,
            sites={
                name: sites[site]
                for name, site in zip(self.names, self.site_of)
            },
            cost=self.wirelength(),
            stats=stats,
        )


def place_circuit(
    circuit: LutCircuit,
    arch: FpgaArchitecture,
    seed: int = 0,
    schedule: Optional[AnnealingSchedule] = None,
    timing=None,
) -> Placement:
    """Place *circuit* on *arch*; returns the final placement.

    *timing* is an optional
    :class:`~repro.timing.criticality.CriticalityConfig`: when given,
    the annealer optimises the combined wire-length +
    criticality-weighted-delay cost (timing-driven placement); when
    ``None`` the run is bit-identical to the historical
    wire-length-driven placer.  The reported ``Placement.cost`` is the
    wire-length cost in both variants so results stay comparable.
    """
    rng = make_rng(seed, f"place:{circuit.name}")
    problem = _SinglePlacementProblem(circuit, arch, rng, timing=timing)
    return problem.placement(anneal(problem, rng, schedule))


def placement_wirelength(
    placement: Placement, nets: Sequence[Net]
) -> float:
    """Re-evaluate the bounding-box wire length of *nets* under *placement*."""
    return sum(
        net_bounding_box_cost(
            [placement.sites[c].pos() for c in net.cells]
        )
        for net in nets
    )
