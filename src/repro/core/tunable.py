"""Tunable circuits: Tunable LUTs and Tunable connections.

A *Tunable circuit* (paper Section II-B, Figs. 3 and 4) is a network of
Tunable LUTs — logic blocks whose configuration bits are Boolean
functions of the mode bits — connected by Tunable connections, each
annotated with an activation function.

A Tunable LUT implements one (or no) ordinary LUT per mode.  Its
parameterised truth-table bits are generated exactly as in Fig. 4: each
member LUT's bits are ANDed with the Boolean product of its mode and
the per-row results are ORed together.  Internally that reduces to: bit
*r* of the Tunable LUT is *on in mode m* iff the member of mode *m* has
bit *r* set; rendering as a mode-bit expression goes through the
Quine-McCluskey minimiser.

Because member LUTs of the same Tunable LUT may have different arity
and different input order, every member is first *aligned* to the full
K-input physical LUT (unused inputs padded; the function is independent
of them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.arch.architecture import Site
from repro.core.activation import ActivationFunction
from repro.core.modes import ModeEncoding
from repro.netlist.lutcircuit import LutBlock, LutCircuit
from repro.netlist.truthtable import TruthTable


@dataclass
class TunableLut:
    """One Tunable LUT: at most one member LUT per mode.

    ``members`` maps a mode index to the member block of that mode.
    ``site`` is the physical logic-block tile the Tunable LUT occupies
    (combined placement decides it; merging by index leaves it None
    until TPlace runs).
    """

    name: str
    k: int
    n_modes: int
    members: Dict[int, LutBlock] = field(default_factory=dict)
    site: Optional[Site] = None

    def add_member(self, mode: int, block: LutBlock) -> None:
        """Attach mode *mode*'s LUT to this Tunable LUT."""
        if not 0 <= mode < self.n_modes:
            raise ValueError(f"mode {mode} out of range")
        if mode in self.members:
            raise ValueError(
                f"tunable LUT {self.name}: mode {mode} already has a "
                f"member ({self.members[mode].name})"
            )
        if len(block.inputs) > self.k:
            raise ValueError(
                f"member {block.name} has more than k={self.k} inputs"
            )
        self.members[mode] = block

    def aligned_table(self, mode: int) -> TruthTable:
        """Member table of *mode* expanded to the full K inputs.

        Input *i* of the member maps to physical pin *i*; the expanded
        function ignores the padded pins.  Unoccupied modes configure
        the all-zero LUT (the fabric default).
        """
        block = self.members.get(mode)
        if block is None:
            return TruthTable.const(False, self.k)
        return block.table.expand(
            list(range(len(block.inputs))), self.k
        )

    def bit_modes(self) -> List[FrozenSet[int]]:
        """For each of the ``2**k`` truth-table rows (plus the
        register-select bit as the last entry), the set of modes in
        which the bit is 1.

        This is the Fig. 4 construction: row *r*'s Boolean expression
        is the OR over modes of (mode product AND member bit value),
        i.e. exactly "on in the modes whose member has the bit set".
        """
        rows: List[Set[int]] = [set() for _ in range(1 << self.k)]
        select: Set[int] = set()
        for mode, block in self.members.items():
            table = self.aligned_table(mode)
            for r in range(1 << self.k):
                if table.evaluate_index(r):
                    rows[r].add(mode)
            if block.registered:
                select.add(mode)
        return [frozenset(r) for r in rows] + [frozenset(select)]

    def bit_expressions(
        self, encoding: Optional[ModeEncoding] = None
    ) -> List[str]:
        """Mode-bit expressions of every configuration bit (Fig. 4)."""
        encoding = encoding or ModeEncoding(self.n_modes)
        return [
            encoding.expression(modes) for modes in self.bit_modes()
        ]

    def n_parameterized_bits(self) -> int:
        """Bits that actually vary with the mode."""
        count = 0
        for modes in self.bit_modes():
            if 0 < len(modes) < self.n_modes:
                count += 1
        return count

    def specialize(self, mode: int) -> Tuple[int, bool]:
        """(truth-table bit mask, registered flag) realised in *mode*.

        Evaluating every parameterised bit at the mode value recovers
        the member LUT's configuration — the correctness property of
        Fig. 4.
        """
        bits = 0
        bit_modes = self.bit_modes()
        for r in range(1 << self.k):
            if mode in bit_modes[r]:
                bits |= 1 << r
        registered = mode in bit_modes[-1]
        return bits, registered


@dataclass(frozen=True)
class TunableConnection:
    """A merged connection with its activation function.

    ``source`` / ``sink`` name tunable cells (Tunable LUTs or tunable
    IO pads).  Connections of different modes with the same source and
    sink merge into one TunableConnection whose activation is the OR of
    theirs (paper Fig. 3).
    """

    source: str
    sink: str
    activation: ActivationFunction


@dataclass
class TunablePad:
    """A tunable IO pad: carries one primary IO signal per mode."""

    name: str
    n_modes: int
    direction: str  # "in" or "out"
    signals: Dict[int, str] = field(default_factory=dict)
    site: Optional[Site] = None


class TunableCircuit:
    """A merged multi-mode circuit.

    Built by :mod:`repro.core.merge` from per-mode LUT circuits plus a
    grouping decision (which LUTs share a Tunable LUT, which IOs share
    a pad).  Offers specialisation back to per-mode LUT circuits (the
    correctness oracle) and the site-level connection workload consumed
    by TRoute.
    """

    def __init__(self, name: str, k: int, n_modes: int) -> None:
        self.name = name
        self.k = k
        self.n_modes = n_modes
        self.encoding = ModeEncoding(n_modes)
        self.tluts: Dict[str, TunableLut] = {}
        self.pads: Dict[str, TunablePad] = {}
        # signal of mode -> tunable cell name carrying it
        self.cell_of_signal: Dict[Tuple[int, str], str] = {}
        self.connections: List[TunableConnection] = []

    # -- construction -------------------------------------------------------

    def add_tlut(self, name: str, site: Optional[Site] = None
                 ) -> TunableLut:
        if name in self.tluts or name in self.pads:
            raise ValueError(f"duplicate tunable cell {name}")
        tlut = TunableLut(name, self.k, self.n_modes, site=site)
        self.tluts[name] = tlut
        return tlut

    def add_pad(self, name: str, direction: str,
                site: Optional[Site] = None) -> TunablePad:
        if name in self.tluts or name in self.pads:
            raise ValueError(f"duplicate tunable cell {name}")
        pad = TunablePad(name, self.n_modes, direction, site=site)
        self.pads[name] = pad
        return pad

    def bind_signal(self, mode: int, signal: str, cell: str) -> None:
        """Record that *cell* carries mode *mode*'s signal *signal*."""
        key = (mode, signal)
        if key in self.cell_of_signal:
            raise ValueError(
                f"signal {signal} of mode {mode} already bound"
            )
        self.cell_of_signal[key] = cell

    def finalize_connections(
        self, per_mode_connections: Dict[int, List[Tuple[str, str]]]
    ) -> None:
        """Merge per-mode cell-level connections into tunable ones.

        *per_mode_connections* maps mode -> list of (source cell, sink
        cell).  Connections with identical endpoints merge; their
        activation functions are ORed (paper Section III).
        """
        grouped: Dict[Tuple[str, str], Set[int]] = {}
        for mode, conns in per_mode_connections.items():
            for source, sink in conns:
                grouped.setdefault((source, sink), set()).add(mode)
        self.connections = [
            TunableConnection(
                source,
                sink,
                ActivationFunction.of(modes, self.n_modes),
            )
            for (source, sink), modes in sorted(grouped.items())
        ]

    # -- statistics --------------------------------------------------------

    def n_tunable_connections(self) -> int:
        return len(self.connections)

    def n_shared_connections(self) -> int:
        """Connections active in every mode (no routing bits change)."""
        return sum(
            1 for c in self.connections if c.activation.is_always()
        )

    def n_parameterized_lut_bits(self) -> int:
        return sum(
            t.n_parameterized_bits() for t in self.tluts.values()
        )

    def stats(self) -> Dict[str, int]:
        return {
            "tluts": len(self.tluts),
            "pads": len(self.pads),
            "connections": self.n_tunable_connections(),
            "shared_connections": self.n_shared_connections(),
            "parameterized_lut_bits": self.n_parameterized_lut_bits(),
        }

    # -- specialisation (correctness oracle) ---------------------------------

    def specialize(self, mode: int) -> LutCircuit:
        """Reconstruct mode *mode*'s LUT circuit from the merged form.

        Every Tunable LUT is evaluated at the mode value (paper: "when
        evaluating the Tunable LUT ... for a certain mode value, the
        correct bit values for the LUTs ... are obtained").  The result
        must be functionally identical to the original mode circuit —
        the invariant the test-suite checks.
        """
        if not 0 <= mode < self.n_modes:
            raise ValueError(f"mode {mode} out of range")
        circuit = LutCircuit(f"{self.name}.m{mode}", self.k)
        for pad in self.pads.values():
            signal = pad.signals.get(mode)
            if signal is not None and pad.direction == "in":
                circuit.add_input(signal)
        for tlut in self.tluts.values():
            member = tlut.members.get(mode)
            if member is None:
                continue
            bits, registered = tlut.specialize(mode)
            # Reduce the K-input table back onto the member's inputs.
            full = TruthTable(self.k, bits)
            reduced = full
            for var in reversed(range(len(member.inputs), self.k)):
                reduced = reduced.restrict(var, False)
            circuit.add_block(
                member.name,
                member.inputs,
                reduced,
                registered=registered,
                init=member.init,
            )
        for pad in self.pads.values():
            signal = pad.signals.get(mode)
            if signal is not None and pad.direction == "out":
                circuit.add_output(signal)
        circuit.validate()
        return circuit

    # -- routing workload -----------------------------------------------------

    def sites(self) -> Dict[str, Site]:
        """Site of every tunable cell (Tunable LUTs, then pads).

        Requires every tunable cell to carry a site (i.e. a combined
        placement or TPlace result); raises ``ValueError`` otherwise.
        """
        sites: Dict[str, Site] = {}
        for name, tlut in self.tluts.items():
            if tlut.site is None:
                raise ValueError(f"tunable LUT {name} has no site")
            sites[name] = tlut.site
        for name, pad in self.pads.items():
            if pad.site is None:
                raise ValueError(f"tunable pad {name} has no site")
            sites[name] = pad.site
        return sites

    def site_connections(self):
        """Site-level connections for TRoute.

        Returns entries of the form consumed by
        :func:`repro.route.troute.route_tunable_circuit`; every cell
        needs a site (:meth:`sites`).
        """
        sites = self.sites()
        return [
            (
                conn.source,
                sites[conn.source],
                sites[conn.sink],
                frozenset(conn.activation.modes),
            )
            for conn in self.connections
        ]
