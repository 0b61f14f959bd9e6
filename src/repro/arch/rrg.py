"""Routing-resource graph (RRG) construction.

The RRG is the standard representation of an FPGA's routing fabric
(Betz/Rose/Marquardt): a directed graph whose nodes are wires and pins
and whose edges are programmable switches.  TRoute in the paper
explicitly works on this representation, which keeps the tool flow
architecture-independent.

Node kinds:

* ``OPIN`` — logic-block or pad output pin (route sources),
* ``IPIN`` — input pin reached through a connection-block switch,
* ``SINK`` — per-block logical sink; all IPINs of a block lead to it,
  so the router exploits the logical equivalence of LUT inputs,
* ``WIRE`` — one unit-length channel segment track.

Every programmable switch owns one configuration-memory bit.  The
bidirectional switch-box connections share a single bit between their
two directed edges (a pass-transistor switch).  IPIN→SINK edges are
internal and carry no bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.architecture import FpgaArchitecture, Site

OPIN = 0
IPIN = 1
SINK = 2
WIRE = 3

KIND_NAMES = {OPIN: "OPIN", IPIN: "IPIN", SINK: "SINK", WIRE: "WIRE"}


@dataclass
class RoutingResourceGraph:
    """The routing fabric as arrays indexed by integer node id."""

    arch: FpgaArchitecture
    node_kind: List[int] = field(default_factory=list)
    node_x: List[int] = field(default_factory=list)
    node_y: List[int] = field(default_factory=list)
    node_capacity: List[int] = field(default_factory=list)
    node_label: List[str] = field(default_factory=list)
    # adjacency: per node, list of (target node, bit id)
    adjacency: List[List[Tuple[int, int]]] = field(default_factory=list)
    n_bits: int = 0
    # lookup tables
    clb_opin: Dict[Tuple[int, int], int] = field(default_factory=dict)
    clb_ipin: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    clb_sink: Dict[Tuple[int, int], int] = field(default_factory=dict)
    pad_opin: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    pad_ipin: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    pad_sink: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    chanx: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    chany: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    # Lazily built flat views of the graph for the router's inner loop
    # (the graph is immutable once build_rrg returns, so they are
    # built at most once).  Excluded from comparison; pickling them is
    # harmless but pointless, so __getstate__ drops them.
    _csr: Optional[Tuple[List[int], List[int], List[int]]] = field(
        default=None, repr=False, compare=False
    )
    _base_cost: Optional[List[float]] = field(
        default=None, repr=False, compare=False
    )
    _wire_out: Optional[List[Tuple[Tuple[int, int], ...]]] = field(
        default=None, repr=False, compare=False
    )
    _pin_src: Optional[List[Tuple[int, ...]]] = field(
        default=None, repr=False, compare=False
    )
    _max_span: Optional[int] = field(
        default=None, repr=False, compare=False
    )

    # -- construction helpers ----------------------------------------------

    def _add_node(self, kind: int, x: int, y: int, capacity: int,
                  label: str) -> int:
        node = len(self.node_kind)
        self.node_kind.append(kind)
        self.node_x.append(x)
        self.node_y.append(y)
        self.node_capacity.append(capacity)
        self.node_label.append(label)
        self.adjacency.append([])
        return node

    def _add_switch(self, src: int, dst: int) -> int:
        """Directed programmable switch with a fresh config bit."""
        bit = self.n_bits
        self.n_bits += 1
        self.adjacency[src].append((dst, bit))
        return bit

    def _add_bidir_switch(self, a: int, b: int) -> int:
        """Bidirectional switch: two directed edges sharing one bit."""
        bit = self.n_bits
        self.n_bits += 1
        self.adjacency[a].append((b, bit))
        self.adjacency[b].append((a, bit))
        return bit

    def _add_internal_edge(self, src: int, dst: int) -> None:
        """Non-configurable edge (no bit), e.g. IPIN to SINK."""
        self.adjacency[src].append((dst, -1))

    # -- queries ----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.node_kind)

    def n_edges(self) -> int:
        return sum(len(a) for a in self.adjacency)

    def source_node(self, site: Site) -> int:
        """Route source node for a cell placed on *site*."""
        if site.kind == "clb":
            return self.clb_opin[(site.x, site.y)]
        return self.pad_opin[(site.x, site.y, site.slot)]

    def sink_node(self, site: Site) -> int:
        """Route sink node for a cell placed on *site*."""
        if site.kind == "clb":
            return self.clb_sink[(site.x, site.y)]
        return self.pad_sink[(site.x, site.y, site.slot)]

    def describe(self, node: int) -> str:
        """Human-readable node description for diagnostics."""
        return (
            f"{KIND_NAMES[self.node_kind[node]]}"
            f"({self.node_x[node]},{self.node_y[node]})"
            f"[{self.node_label[node]}]"
        )

    # -- flat views for the router's inner loop -----------------------------

    def neighbor_arrays(
        self,
    ) -> Tuple[List[int], List[int], List[int]]:
        """CSR form of the adjacency: ``(row_ptr, edge_dst, edge_bit)``.

        Node *n*'s out-edges are ``edge_dst[row_ptr[n]:row_ptr[n+1]]``
        (same order as ``adjacency[n]``, so searches over either view
        make identical tie-breaking decisions).  Scanning flat lists
        avoids a tuple unpack per edge in PathFinder's relaxation loop.
        """
        if self._csr is None:
            row_ptr = [0]
            edge_dst: List[int] = []
            edge_bit: List[int] = []
            for neighbors in self.adjacency:
                for dst, bit in neighbors:
                    edge_dst.append(dst)
                    edge_bit.append(bit)
                row_ptr.append(len(edge_dst))
            self._csr = (row_ptr, edge_dst, edge_bit)
        return self._csr

    def base_cost_array(self) -> List[float]:
        """Per-node intrinsic cost (the unit-delay model): 0 for SINKs,
        1 for every real resource — precomputed so the router never
        branches on node kind to price a node."""
        if self._base_cost is None:
            self._base_cost = [
                0.0 if kind == SINK else 1.0
                for kind in self.node_kind
            ]
        return self._base_cost

    def wire_neighbors(self) -> List[Tuple[Tuple[int, int], ...]]:
        """Per node, its out-edges into WIRE nodes — the ``(dst,
        bit)`` tuples of ``adjacency``, shared, in the same order.

        Every other edge ends in a pin (WIRE→IPIN, IPIN→SINK), and a
        pin leads only to its own block's SINK, so a search toward one
        SINK needs just the pin edges of that block on top of these
        (see :meth:`pin_sources`).
        """
        if self._wire_out is None:
            kinds = self.node_kind
            self._wire_out = [
                tuple(edge for edge in edges if kinds[edge[0]] == WIRE)
                for edges in self.adjacency
            ]
        return self._wire_out

    def pin_sources(self) -> List[Tuple[int, ...]]:
        """Per node that is not a WIRE, the sources of its in-edges in
        ascending order; empty for wires, whose in-edges
        :meth:`wire_neighbors` already holds."""
        if self._pin_src is None:
            kinds = self.node_kind
            sources: List[List[int]] = [[] for _ in range(self.n_nodes)]
            for src, edges in enumerate(self.adjacency):
                for dst, _bit in edges:
                    if kinds[dst] != WIRE:
                        sources[dst].append(src)
            self._pin_src = [tuple(srcs) for srcs in sources]
        return self._pin_src

    def max_edge_span(self) -> int:
        """Widest Manhattan distance between the two ends of any edge.

        Every hop of a path closes the Manhattan distance to its
        target by at most this much, which is what bounds a consistent
        A* weight (see ``PathFinderRouter._search``).  In the
        unit-segment fabric it is 2: the switch-box turns between
        ``chanx(x+1, y)`` and ``chany(x, y+1)``.
        """
        if self._max_span is None:
            xs, ys = self.node_x, self.node_y
            self._max_span = max(
                (
                    abs(xs[src] - xs[dst]) + abs(ys[src] - ys[dst])
                    for src, edges in enumerate(self.adjacency)
                    for dst, _bit in edges
                ),
                default=0,
            )
        return self._max_span

    def __getstate__(self):
        state = self.__dict__.copy()
        for name in (
            "_csr", "_base_cost", "_wire_out", "_pin_src", "_max_span",
        ):
            state[name] = None
        return state


def build_rrg(arch: FpgaArchitecture) -> RoutingResourceGraph:
    """Construct the routing-resource graph for *arch*.

    The fabric follows the paper's architecture file: unit-length
    segments, disjoint (planar) switch boxes, connection-block
    flexibility ``fc_in``/``fc_out``.
    """
    g = RoutingResourceGraph(arch)
    w = arch.channel_width

    # Channel wire nodes.
    for (x, y) in arch.chanx_positions():
        for t in range(w):
            g.chanx[(x, y, t)] = g._add_node(
                WIRE, x, y, 1, f"chanx.t{t}"
            )
    for (x, y) in arch.chany_positions():
        for t in range(w):
            g.chany[(x, y, t)] = g._add_node(
                WIRE, x, y, 1, f"chany.t{t}"
            )

    # Logic-block pins.
    for x in range(1, arch.nx + 1):
        for y in range(1, arch.ny + 1):
            g.clb_opin[(x, y)] = g._add_node(OPIN, x, y, 1, "clb.out")
            g.clb_sink[(x, y)] = g._add_node(
                SINK, x, y, arch.k, "clb.sink"
            )
            for pin in range(arch.k):
                node = g._add_node(IPIN, x, y, 1, f"clb.in{pin}")
                g.clb_ipin[(x, y, pin)] = node
                g._add_internal_edge(node, g.clb_sink[(x, y)])

    # Pad pins.
    for (x, y) in arch.pad_locations():
        for slot in range(arch.io_rat):
            g.pad_opin[(x, y, slot)] = g._add_node(
                OPIN, x, y, 1, f"pad{slot}.out"
            )
            sink = g._add_node(SINK, x, y, 1, f"pad{slot}.sink")
            g.pad_sink[(x, y, slot)] = sink
            ipin = g._add_node(IPIN, x, y, 1, f"pad{slot}.in")
            g.pad_ipin[(x, y, slot)] = ipin
            g._add_internal_edge(ipin, sink)

    # Connection blocks for CLBs.
    #
    # Input pin p sits on side p mod 4 (bottom, top, left, right);
    # the output pin reaches the channel above and to the right.
    for x in range(1, arch.nx + 1):
        for y in range(1, arch.ny + 1):
            opin = g.clb_opin[(x, y)]
            for track in arch.tracks_for_pin(0, arch.fc_out):
                g._add_switch(opin, g.chanx[(x, y, track)])
                g._add_switch(opin, g.chany[(x, y, track)])
            for pin in range(arch.k):
                ipin = g.clb_ipin[(x, y, pin)]
                side = pin % 4
                if side == 0:
                    wires = [g.chanx[(x, y - 1, t)]
                             for t in arch.tracks_for_pin(pin, arch.fc_in)]
                elif side == 1:
                    wires = [g.chanx[(x, y, t)]
                             for t in arch.tracks_for_pin(pin, arch.fc_in)]
                elif side == 2:
                    wires = [g.chany[(x - 1, y, t)]
                             for t in arch.tracks_for_pin(pin, arch.fc_in)]
                else:
                    wires = [g.chany[(x, y, t)]
                             for t in arch.tracks_for_pin(pin, arch.fc_in)]
                for wire in wires:
                    g._add_switch(wire, ipin)

    # Connection blocks for pads.
    for (x, y) in arch.pad_locations():
        if y == 0:
            channel = [("x", x, 0)]
        elif y == arch.ny + 1:
            channel = [("x", x, arch.ny)]
        elif x == 0:
            channel = [("y", 0, y)]
        else:
            channel = [("y", arch.nx, y)]
        for slot in range(arch.io_rat):
            opin = g.pad_opin[(x, y, slot)]
            ipin = g.pad_ipin[(x, y, slot)]
            for orient, cx, cy in channel:
                table = g.chanx if orient == "x" else g.chany
                for track in arch.tracks_for_pin(slot, arch.fc_out):
                    g._add_switch(opin, table[(cx, cy, track)])
                for track in arch.tracks_for_pin(slot, arch.fc_in):
                    g._add_switch(table[(cx, cy, track)], ipin)

    # Wilton-style switch boxes at every channel junction.
    #
    # Junction (x, y) joins chanx(x, y) / chanx(x+1, y) horizontally
    # and chany(x, y) / chany(x, y+1) vertically.  Straight-through
    # connections keep their track; turning connections rotate the
    # track by one.  (A purely disjoint box would partition the fabric
    # into W isolated track planes, which breaks routability when the
    # connection blocks have fractional Fc.)
    # Straight connections preserve the track.  Two of the four turn
    # types rotate by one, the other two do not: rotating *every* turn
    # would make each turn flip track parity, which for even W splits
    # the fabric into two unreachable halves (a classic switch-box
    # design pitfall).
    _ROTATING_TURNS = {
        frozenset(("W", "S")),
        frozenset(("E", "N")),
    }

    def _track_map(side_a: str, side_b: str, t: int) -> int:
        pair = frozenset((side_a, side_b))
        if pair in _ROTATING_TURNS:
            return (t + 1) % w
        return t

    for x in range(0, arch.nx + 1):
        for y in range(0, arch.ny + 1):
            incident: List[Tuple[str, Dict, Tuple[int, int]]] = []
            if x >= 1 and (x, y, 0) in g.chanx:
                incident.append(("W", g.chanx, (x, y)))
            if (x + 1, y, 0) in g.chanx:
                incident.append(("E", g.chanx, (x + 1, y)))
            if y >= 1 and (x, y, 0) in g.chany:
                incident.append(("S", g.chany, (x, y)))
            if (x, y + 1, 0) in g.chany:
                incident.append(("N", g.chany, (x, y + 1)))
            for i in range(len(incident)):
                for j in range(i + 1, len(incident)):
                    side_a, table_a, pos_a = incident[i]
                    side_b, table_b, pos_b = incident[j]
                    for t in range(w):
                        u = _track_map(side_a, side_b, t)
                        g._add_bidir_switch(
                            table_a[pos_a + (t,)],
                            table_b[pos_b + (u,)],
                        )

    return g


def routing_bits_total(g: RoutingResourceGraph) -> int:
    """All routing configuration bits of the region (MDR rewrites these)."""
    return g.n_bits
