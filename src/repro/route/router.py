"""Connection-based, mode-aware PathFinder router.

PathFinder (McMurchie & Ebeling) negotiates congestion by repeatedly
ripping up and re-routing connections whose resources are overused,
with present-congestion and history costs steering later iterations
away from contested nodes.

Two extensions serve the multi-mode tool flow (both follow the
connection router of Vansteenkiste et al. that TRoute builds on):

* **Per-mode occupancy.**  Every connection carries an activation set
  of modes.  A routing node conflicts only when two *different* nets
  occupy it in the *same* mode — wires may be time-multiplexed between
  modes, which is exactly what turns switch bits into Boolean functions
  of the mode.
* **Trunk sharing.**  Connections of the same net (same source signal)
  may overlap freely; the search frontier is seeded with every node the
  net already occupies in all modes of the connection being routed, so
  per-net route trees form naturally even though routing is
  connection-by-connection (this is VPR's multi-sink expansion applied
  per connection).
* **Bit sharing.**  A switch bit is *parameterised* only when it is on
  in some modes and off in others.  With ``bit_affinity < 1`` the
  search discounts edges whose bit is already on in every mode outside
  the connection's activation set — taking such a switch turns its bit
  into a static one instead of a parameterised bit, which is precisely
  the quantity the paper's Fig. 6 merge effect measures.  After
  congestion is resolved, optional ``sharing_passes`` sweeps rip up and
  reroute every net with these discounts active, keeping the legal
  solution with the fewest parameterised bits.

**Pricing.**  A node entered by a connection costs

``price = (base + history) * (1 + pres_fac * overuse) [* affinities]``

plus a deterministic per-(net, node) jitter of at most 0.01, and a
timing-driven connection of criticality ``crit`` pays
``crit * delay + (1 - crit) * price`` per edge instead.  During one
connection search the congestion state is frozen — occupancy,
history, the net's own reference counts and the bit-sharing reference
counts only change *between* searches — so a node's price is a pure
function of the node for the whole search.  :class:`PathFinderRouter`
therefore prices the **entire graph at once** as numpy array math over
per-node vectors, and the heap kernels of
:mod:`repro.route.searchkernel` read one precomputed Python list per
scanned edge (``tolist()`` keeps scalar access cheap): no per-mode
loops, no dict membership probes, no noise hashing in the inner loop.
The bit-sharing discount's occupancy gate is folded into the
discounted price vector itself (``where(overused, plain,
discounted)``), so even that path costs one set probe per edge.

**The A* bound.**  The search is multi-source A* with the heuristic
``astar_fac * M(n, target)``, ``M`` the integer Manhattan distance.
The weight is capped at the affinity floor ``net_affinity *
bit_affinity``, the cheapest a hop can be, but that does not make the
bound consistent: the switch-box turn ``chanx(x+1, y) -> chany(x,
y+1)`` closes 2 Manhattan units in one hop, so Manhattan is consistent
only up to weight floor/2.  What actually holds:

* TRoute's untimed weight (0.15 at the flow defaults) is consistent
  for connections active in every mode (no discount applies, floor 1)
  but not for the others, whose hops can cost 0.15.
* MDR's weight of 1.0 is not consistent.
* The timed blend ``(1 - crit) * astar_fac + crit * wire_delay`` is
  not consistent for critical connections: a wire->IPIN hop adds
  ``pin_delay + switch_delay = 0.2`` of delay per Manhattan unit,
  against the bound's ``wire_delay`` of 0.3.  For connections active
  in every mode the E-N turn breaks it above a criticality of about
  0.82.

The kernels never reopen a settled node, so an inconsistent bound can
settle a node before its cheapest path is known.  That behaviour is
deterministic and part of what the scalar reference reproduces bit for
bit.

**Scalar reference.**  :class:`ScalarPathFinderRouter` replaces the
two search methods with the pure-Python kernels, which price one node
at a time.  Every float expression of the production core keeps the
reference's exact operation order and grouping (float addition is not
associative; a one-ULP difference flips equal-cost tie-breaks), so
both make byte-identical decisions: identical routes, wirelength,
iteration counts and cached-result pickles
(``tests/test_router_equivalence.py``).  The production core takes
three structural liberties, none of which can change a decision (only
the ``RouterStats`` counters differ):

* **Dead-end pins.**  A pin leads only to its own block's SINK, so an
  IPIN of any block but the target's, and any SINK but the target,
  can never reach the target.  The heap kernels search the wire-only
  neighbour tuples plus a per-target overlay holding the target
  block's pin edges, placed after each node's wire edges — the
  relaxations out of one node reach distinct nodes, and the heap pops
  entries in value order regardless of push order.  The dropped heap
  entries never relaxed anything, so every other entry still pops in
  the same order.
* **Live seeds.**  Trunk seeds with no edge in that graph (other
  connections' SINKs and IPINs) are not pushed, for the same reason.
* **Shared-connection weight.**  Untimed searches of connections
  active in every mode use ``max(astar_fac, 1/max_edge_span)``
  instead of the affinity floor; see :meth:`PathFinderRouter._search`.

The production core's routes are also pinned by committed golden
digests (``tests/test_routing_golden.py``).

**Price-vector reuse.**  Connections of one net route consecutively,
and adding or removing a route of the *same net* whose activation set
is a subset of a priced connection's cannot change that connection's
prices: for every mode the route and the pricing context share,
occupancy and the net's own reference counts move together, so
``occ_after = occ + (0 if already else 1)`` is invariant; modes
outside the route's set are untouched, and a subset activation set
cannot reach the pricing context's *other*-mode affinity state.  The
router therefore keeps one price entry per activation set of the
current net (TRoute requests mix ``{0}``, ``{1}`` and ``{0, 1}``
connections of one net), drops an entry only when an update escapes
its subset guarantee, and clears the lot when the net or the
present-cost factor moves on or when the negotiation loop raises
history costs (``pres_fac`` alone would not cover that, since
``pres_fac_mult`` may be 1.0) — one vector build prices a whole net's
fan-out.
"""

from __future__ import annotations

import gc
import zlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.arch.rrg import WIRE, RoutingResourceGraph
from repro.route.searchkernel import (
    EMPTY_STATIC,
    RouterStats,
    heap_search_timed,
    heap_search_untimed,
    scalar_search,
    scalar_search_timed,
)

#: Knuth's multiplicative-hash constant of the per-(net, node)
#: tie-break jitter — the scalar reference hashes with the same one.
_NOISE_MUL = 0x9E3779B9

#: Heuristic-vector cache bound: evict least-recently-used entries
#: once the cached lists hold more than this many floats (~16 MB).
#: Untimed routing keys by target only and never comes close; timed
#: routing keys by (target, astar_fac) and would otherwise grow one
#: entry per connection.
_H_CACHE_MAX_FLOATS = 2_000_000

#: "Not seen this search" sentinel of the heap kernels' ``dist``.
_INF = float("inf")


@dataclass(frozen=True)
class RouteRequest:
    """One tunable connection to route.

    ``net`` identifies the source signal (connections of one net may
    share wires); ``modes`` is the activation set — the connection only
    exists in those modes.  ``source``/``sink`` are RRG node ids (an
    OPIN and a SINK).
    """

    conn_id: int
    net: str
    source: int
    sink: int
    modes: FrozenSet[int]


@dataclass
class ConnectionRoute:
    """Routed path of one connection: RRG edges source -> sink."""

    request: RouteRequest
    edges: List[Tuple[int, int, int]]  # (from, to, bit)

    def nodes(self) -> List[int]:
        # The edge list never changes after construction and nodes()
        # runs once per mode on every add/remove/congestion check, so
        # the path is materialised once per route.
        cached = self.__dict__.get("_nodes")
        if cached is not None:
            return cached
        if not self.edges:
            result: List[int] = []
        else:
            result = [self.edges[0][0]]
            result.extend(edge[1] for edge in self.edges)
        self.__dict__["_nodes"] = result
        return result

    def __getstate__(self):
        return {"request": self.request, "edges": self.edges}

    def __setstate__(self, state):
        self.__dict__.update(state)

    def bits(self) -> Set[int]:
        return {bit for _u, _v, bit in self.edges if bit >= 0}

    def wire_nodes(self, rrg: RoutingResourceGraph) -> Set[int]:
        return {
            n for n in self.nodes() if rrg.node_kind[n] == WIRE
        }


class RoutingError(RuntimeError):
    """Raised when the router cannot find a legal solution."""


@dataclass
class RoutingTiming:
    """Timing context of a timing-driven routing run.

    ``criticality`` maps connection ids to *sharpened* criticalities
    in ``[0, 1)`` (see :mod:`repro.timing.criticality`); connections
    absent from the map route purely on congestion.  ``model`` is the
    shared :class:`~repro.timing.delay.DelayModel` (annotated loosely
    to avoid a circular import — ``repro.timing``'s package init pulls
    this module in).

    A connection with criticality ``w`` is priced VPR-style:

    ``edge cost = w * delay(edge) + (1 - w) * congestion cost``

    so critical connections buy short paths while relaxed ones keep
    negotiating congestion; ``w < 1`` always (the criticality cap),
    hence overuse never becomes free and PathFinder still converges.
    """

    model: "object"  # repro.timing.delay.DelayModel
    criticality: Dict[int, float]


@dataclass
class RoutingResult:
    """All routed connections plus per-mode summaries."""

    rrg: RoutingResourceGraph
    routes: Dict[int, ConnectionRoute]
    n_modes: int
    iterations: int

    def bits_on(self, mode: int) -> Set[int]:
        """Switch bits that are *on* in *mode*."""
        bits: Set[int] = set()
        for route in self.routes.values():
            if mode in route.request.modes:
                bits |= route.bits()
        return bits

    def wires_used(self, mode: int) -> Set[int]:
        """WIRE nodes used by *mode* (the paper's Fig. 7 metric)."""
        wires: Set[int] = set()
        for route in self.routes.values():
            if mode in route.request.modes:
                wires |= route.wire_nodes(self.rrg)
        return wires

    def total_wirelength(self, mode: int) -> int:
        return len(self.wires_used(mode))


def validate_routing(result: "RoutingResult") -> None:
    """Check a finished routing for legality and connectivity.

    Raises ``AssertionError`` when any invariant fails:

    * per mode, no node carries more distinct nets than its capacity;
    * every connection's edge list is a contiguous path ending at its
      sink, using edges that exist in the RRG;
    * every connection is electrically connected: its path starts at
      the net's source or at a node another connection of the same net
      (covering the same modes) drives.

    The checks raise explicitly rather than through ``assert``
    statements, so they still run under ``python -O``.
    """
    rrg = result.rrg
    # Per (mode, node): distinct nets.
    users: Dict[Tuple[int, int], Set[str]] = {}
    for route in result.routes.values():
        for mode in route.request.modes:
            for node in route.nodes():
                users.setdefault((mode, node), set()).add(
                    route.request.net
                )
    for (mode, node), nets in users.items():
        if len(nets) > rrg.node_capacity[node]:
            raise AssertionError(
                f"node {rrg.describe(node)} carries {len(nets)} nets "
                f"in mode {mode}"
            )
    edge_set = {
        (src, dst)
        for src in range(rrg.n_nodes)
        for dst, _bit in rrg.adjacency[src]
    }
    # Nodes reachable from each net's source, per mode, built
    # incrementally (paths may chain through other connections).
    for route in result.routes.values():
        nodes = route.nodes()
        if not nodes:
            continue
        for (u, v, _bit), a, b in zip(
            route.edges, nodes, nodes[1:]
        ):
            if (u, v) != (a, b):
                raise AssertionError("edge list is not a path")
            if (u, v) not in edge_set:
                raise AssertionError("edge missing from RRG")
        if nodes[-1] != route.request.sink:
            raise AssertionError("path misses sink")
    for mode in range(result.n_modes):
        # per net: grow reachable set from the source.
        by_net: Dict[str, List[ConnectionRoute]] = {}
        source_of: Dict[str, int] = {}
        for route in result.routes.values():
            if mode not in route.request.modes:
                continue
            by_net.setdefault(route.request.net, []).append(route)
            source_of[route.request.net] = route.request.source
        for net, routes in by_net.items():
            reachable = {source_of[net]}
            pending = list(routes)
            progress = True
            while pending and progress:
                progress = False
                remaining = []
                for route in pending:
                    nodes = route.nodes()
                    if not nodes or nodes[0] in reachable:
                        reachable.update(nodes)
                        progress = True
                    else:
                        remaining.append(route)
                pending = remaining
            if pending:
                raise AssertionError(
                    f"net {net}: {len(pending)} connections stranded "
                    f"from the source in mode {mode}"
                )


class PathFinderRouter:
    """Negotiated-congestion router over a routing-resource graph.

    Occupancy and history live in numpy arrays: the bookkeeping
    (``occ[node] += 1``) works on them element by element, and the
    per-search price build reads them whole.  ``stats`` collects
    :class:`RouterStats` counters of every search.
    """

    def __init__(
        self,
        rrg: RoutingResourceGraph,
        n_modes: int = 1,
        max_iterations: int = 40,
        pres_fac_first: float = 0.6,
        pres_fac_mult: float = 1.8,
        acc_fac: float = 1.0,
        astar_fac: float = 1.0,
        net_affinity: float = 1.0,
        bit_affinity: float = 1.0,
        sharing_passes: int = 0,
        timing: Optional[RoutingTiming] = None,
        stats: Optional[RouterStats] = None,
    ) -> None:
        self.stats = stats
        self.rrg = rrg
        self.n_modes = n_modes
        self.max_iterations = max_iterations
        self.pres_fac_first = pres_fac_first
        self.pres_fac_mult = pres_fac_mult
        self.acc_fac = acc_fac
        # net_affinity < 1 discounts nodes the same net already uses
        # in *other* modes, steering a mode's connections onto the
        # wires its sibling modes use: overlapping wires hold the same
        # value in every overlapped mode, so their switch bits stop
        # being mode-dependent.  The A* weight is capped at the
        # affinity floor below.
        if not 0.0 < net_affinity <= 1.0:
            raise ValueError("net_affinity must be in (0, 1]")
        # bit_affinity < 1 discounts switches whose bit is already on
        # in every mode the connection is *not* active in: taking the
        # switch makes its bit static-one rather than parameterised.
        if not 0.0 < bit_affinity <= 1.0:
            raise ValueError("bit_affinity must be in (0, 1]")
        if sharing_passes < 0:
            raise ValueError("sharing_passes must be >= 0")
        self.net_affinity = net_affinity
        self.bit_affinity = bit_affinity
        self.sharing_passes = sharing_passes
        # Both discounts can compound on one step, so the per-hop
        # floor is their product (see the module docstring for what
        # this weight does and does not guarantee).
        self.astar_fac = min(astar_fac, net_affinity * bit_affinity)
        # A* weight of connections active in every mode: see _search.
        self._shared_fac = max(
            self.astar_fac, 1.0 / max(rrg.max_edge_span(), 1)
        )

        n = rrg.n_nodes
        self._n_nodes = n
        # occupancy[mode][node] = number of distinct nets on the node.
        self._occ = [np.zeros(n, dtype=np.int64) for _ in range(n_modes)]
        self._hist = np.zeros(n, dtype=np.float64)
        # (net, mode) -> node -> reference count.
        self._net_mode_refs: Dict[Tuple[str, int], Dict[int, int]] = {}
        # per mode: bit -> number of routes turning the bit on.
        self._bit_refs: List[Dict[int, int]] = [
            {} for _ in range(n_modes)
        ]
        # (mode, node) pairs currently over capacity, maintained at
        # the occupancy-mutation points so congestion checks never
        # rescan the whole graph.
        self._overused: Set[Tuple[int, int]] = set()
        # Search-tree parents, rewritten by every search.
        self._parent_node = [-1] * n
        self._parent_bit = [-1] * n
        # Timing-driven context: per-node intrinsic delays are
        # precomputed once so the timed relaxation loop reads a flat
        # list, like the price lists.
        self.timing = timing
        self._node_delay: Optional[List[float]] = None
        if timing is not None:
            model = timing.model
            self._node_delay = [
                model.node_delay(rrg, node) for node in range(n)
            ]
            # Same per-edge `delay + switch_delay` add as the scalar
            # loop, hoisted into one list read.
            switch_delay = model.switch_delay
            self._node_delay_switch = [
                d + switch_delay for d in self._node_delay
            ]
        # Immutable per-graph vectors of the price build.
        self._np_base = np.asarray(
            rrg.base_cost_array(), dtype=np.float64
        )
        self._np_cap = np.asarray(rrg.node_capacity, dtype=np.int64)
        self._np_x = np.asarray(rrg.node_x, dtype=np.int64)
        self._np_y = np.asarray(rrg.node_y, dtype=np.int64)
        self._wire_mask = (
            np.asarray(rrg.node_kind, dtype=np.int64) == WIRE
        )
        # Per-node part of the tie-break jitter; XORing the net salt
        # in is the only per-search step.
        self._noise_mul = np.arange(n, dtype=np.int64) * _NOISE_MUL
        # The heap kernels' search graph: wire-bound edges for every
        # node, plus per target the edges toward its own pins (see
        # _target_adjacency and the module docstring).
        self._nbr = rrg.wire_neighbors()
        self._tadj: Dict[int, Dict[int, Tuple[Tuple[int, int], ...]]] = {}
        # Per-net noise vector (nets route consecutively, so a
        # one-entry cache hits for every connection after the first).
        self._noise_salt: Optional[int] = None
        self._noise01: Optional[np.ndarray] = None
        # Price entries of the current (net, pres_fac), one per
        # activation set; see the module docstring for the
        # reuse-safety argument behind _invalidate_prices.
        self._price_net: Optional[str] = None
        self._price_pres: Optional[float] = None
        self._price_entries: Dict[FrozenSet[int], Tuple] = {}
        # Heuristic vectors keyed by (target, astar_fac).
        self._h_cache: Dict[Tuple[int, float], List[float]] = {}

    # -- occupancy bookkeeping ---------------------------------------------

    def _add_route(self, route: ConnectionRoute) -> None:
        net = route.request.net
        bits = route.bits()
        cap = self.rrg.node_capacity
        overused = self._overused
        nodes = route.nodes()
        for mode in route.request.modes:
            refs = self._net_mode_refs.setdefault((net, mode), {})
            occ = self._occ[mode]
            for node in nodes:
                count = refs.get(node, 0)
                if count == 0:
                    occ[node] += 1
                    if occ[node] > cap[node]:
                        overused.add((mode, node))
                refs[node] = count + 1
            bit_refs = self._bit_refs[mode]
            for bit in bits:
                bit_refs[bit] = bit_refs.get(bit, 0) + 1
        self._invalidate_prices(route)

    def _remove_route(self, route: ConnectionRoute) -> None:
        net = route.request.net
        bits = route.bits()
        cap = self.rrg.node_capacity
        overused = self._overused
        nodes = route.nodes()
        for mode in route.request.modes:
            refs = self._net_mode_refs[(net, mode)]
            occ = self._occ[mode]
            for node in nodes:
                refs[node] -= 1
                if refs[node] == 0:
                    del refs[node]
                    occ[node] -= 1
                    if occ[node] <= cap[node]:
                        overused.discard((mode, node))
            bit_refs = self._bit_refs[mode]
            for bit in bits:
                bit_refs[bit] -= 1
                if bit_refs[bit] == 0:
                    del bit_refs[bit]
        self._invalidate_prices(route)

    def _invalidate_prices(self, route: ConnectionRoute) -> None:
        entries = self._price_entries
        if not entries:
            return
        if route.request.net != self._price_net:
            entries.clear()
            return
        modes = route.request.modes
        for key in [k for k in entries if not modes <= k]:
            del entries[key]

    def _bit_becomes_static(
        self, bit: int, modes: FrozenSet[int]
    ) -> bool:
        """True when turning *bit* on in *modes* leaves it on in every
        mode, i.e. the bit ends up a static one instead of a
        parameterised bit."""
        for mode in range(self.n_modes):
            if mode in modes:
                continue
            if not self._bit_refs[mode].get(bit):
                return False
        return True

    def _trunk_nodes(self, request: RouteRequest) -> List[int]:
        """Nodes the net already occupies in *every* mode of the
        request — free starting points for the search (the net's
        existing route tree, as in VPR's multi-sink routing)."""
        modes = sorted(request.modes)
        refs0 = self._net_mode_refs.get((request.net, modes[0]))
        if not refs0:
            return []
        trunk = set(refs0)
        for mode in modes[1:]:
            refs = self._net_mode_refs.get((request.net, mode))
            if not refs:
                return []
            trunk &= refs.keys()
        # No ordering needed: the caller unions these into its start
        # set (int sets iterate identically in every process).
        # repro: allow[RPR003] consumer is order-insensitive (set union)
        return list(trunk)

    # -- array-level pricing -------------------------------------------------

    def _heuristic(
        self, target: int, astar_fac: float
    ) -> List[float]:
        """``astar_fac * manhattan(node, target)`` for every node —
        exactly the scalar per-push expression, as one list per
        target, cached (LRU)."""
        cache = self._h_cache
        key = (target, astar_fac)
        h = cache.get(key)
        if h is None:
            # Evict least-recently-used entries (dict order = use
            # order: hits below re-insert) instead of clearing the
            # lot — timed routing keys one entry per connection and
            # would thrash the whole cache at the bound.
            n = self._n_nodes
            while cache and (len(cache) + 1) * n > _H_CACHE_MAX_FLOATS:
                del cache[next(iter(cache))]
            h = (
                astar_fac
                * (
                    np.abs(self._np_x - self.rrg.node_x[target])
                    + np.abs(self._np_y - self.rrg.node_y[target])
                )
            ).tolist()
            cache[key] = h
        else:
            del cache[key]
            cache[key] = h
        return h

    def _price_arrays(
        self, request: RouteRequest, pres_fac: float
    ):
        """Whole-graph numpy price state of one connection search.

        Returns ``(pn_np, pnA_np, static_set)`` where
        ``pn = cost + 0.01 * noise`` (the additive edge term of the
        untimed loop), ``pnA`` its bit-affinity-discounted twin
        *already gated on zero overuse* (``pnA == pn`` wherever the
        node is overused, exactly like the scalar guard; None when no
        discount can apply), and ``static_set`` the switch bits
        currently on in every mode outside the activation set.  Every
        expression mirrors the scalar reference's grouping.
        """
        net = request.net
        modes = request.modes
        salt = zlib.crc32(net.encode())
        if self._noise_salt != salt:
            # Same ints, same single division, same 0.01 scale as the
            # scalar `0.01 * (((salt ^ node*MUL) & 0xFFFF) / 0xFFFF)`.
            self._noise01 = 0.01 * (
                ((self._noise_mul ^ salt) & 0xFFFF) / 0xFFFF
            )
            self._noise_salt = salt
        noise01 = self._noise01

        cap = self._np_cap
        overuse: Optional[np.ndarray] = None
        for mode in modes:
            # occ_after = occ + (0 if net already there else 1);
            # overuse accumulates max(occ_after - cap, 0) per mode.
            occ_after = self._occ[mode] + 1
            refs = self._net_mode_refs.get((net, mode))
            if refs:
                occ_after[
                    np.fromiter(refs.keys(), np.int64, len(refs))
                ] -= 1
            occ_after -= cap
            np.maximum(occ_after, 0, out=occ_after)
            overuse = (
                occ_after if overuse is None else overuse + occ_after
            )
        cost = (self._np_base + self._hist) * (
            1.0 + pres_fac * overuse
        )
        if self.net_affinity < 1.0:
            other: set = set()
            for mode in range(self.n_modes):
                if mode not in modes:
                    refs = self._net_mode_refs.get((net, mode))
                    if refs:
                        other.update(refs.keys())
            if other:
                idx = np.fromiter(other, np.int64, len(other))
                sel = idx[
                    self._wire_mask[idx] & (overuse[idx] == 0)
                ]
                cost[sel] *= self.net_affinity

        pn_np = cost + noise01
        pnA_np = None
        static_set: set = set()
        if self.bit_affinity < 1.0 and len(modes) < self.n_modes:
            static = None
            for mode in range(self.n_modes):
                if mode in modes:
                    continue
                bits = self._bit_refs[mode].keys()
                static = (
                    set(bits) if static is None
                    else static & set(bits)
                )
                if not static:
                    break
            static_set = static or set()
            # No discountable bit means no edge can diverge from the
            # plain price — skip the discounted twin entirely.
            if static_set:
                pnA_np = np.where(
                    overuse == 0,
                    cost * self.bit_affinity + noise01,
                    pn_np,
                )
        return pn_np, pnA_np, static_set

    def _price_vectors(
        self, request: RouteRequest, pres_fac: float
    ) -> Tuple:
        """Cached price state ``(pn, pnA, static_set)`` as Python
        lists, one entry per activation set of the current (net,
        pres_fac).  Without a live bit discount the entry holds
        ``pnA=pn`` and an empty static set, which evaluates the exact
        float expressions of the historical no-bit loops."""
        net = request.net
        modes = request.modes
        if (
            net != self._price_net
            or pres_fac != self._price_pres
        ):
            self._price_entries.clear()
            self._price_net = net
            self._price_pres = pres_fac
        entry = self._price_entries.get(modes)
        if entry is None:
            pn_np, pnA_np, static_set = self._price_arrays(
                request, pres_fac
            )
            pn = pn_np.tolist()
            if pnA_np is None:
                entry = (pn, pn, EMPTY_STATIC)
            else:
                entry = (pn, pnA_np.tolist(), static_set)
            self._price_entries[modes] = entry
        return entry

    # -- search --------------------------------------------------------------
    #
    # The relaxation loops live in repro.route.searchkernel.  ``dist``
    # is a fresh per-search list using value sentinels: +inf means
    # "not seen this search" (any first relaxation improves) and
    # -inf, written when a node is popped, means "settled" (no
    # relaxation can improve — a node's first pop always carries its
    # best tentative distance, because entries of one node share its
    # heuristic and thus sort by distance).

    def _route_connection(
        self, request: RouteRequest, pres_fac: float
    ) -> ConnectionRoute:
        """Route one connection: timing dispatch and the error path.

        Timing-driven connections (a criticality above 0 in
        ``self.timing``) take the timed search; keeping the two
        kernels separate leaves the untimed one byte-identical to the
        wirelength-driven reference, so those results cannot drift.
        """
        crit = 0.0
        if self.timing is not None:
            crit = self.timing.criticality.get(request.conn_id, 0.0)
        if crit > 0.0:
            edges = self._search_timed(request, pres_fac, crit)
        else:
            edges = self._search(request, pres_fac)
        if edges is None:
            rrg = self.rrg
            raise RoutingError(
                f"no path from {rrg.describe(request.source)} to "
                f"{rrg.describe(request.sink)}"
            )
        return ConnectionRoute(request, edges)

    def _search(
        self, request: RouteRequest, pres_fac: float
    ) -> Optional[List[Tuple[int, int, int]]]:
        """Untimed multi-source A*; the edge list of the found path,
        or None when the sink is unreachable."""
        pn, pnA, static_set = self._price_vectors(request, pres_fac)
        # A connection active in every mode can take neither affinity
        # discount, so each hop into a non-sink node costs at least 1
        # and closes the Manhattan distance by at most the graph's
        # edge span (a hop into a SINK spans 0).  Any weight up to
        # 1/span is then consistent, and so is the affinity floor
        # below it.  Both settle every node at its optimal distance
        # and rank equal-distance nodes in the same Manhattan order,
        # so the larger weight changes no route, only skips pops.
        if len(request.modes) == self.n_modes:
            astar_fac = self._shared_fac
        else:
            astar_fac = self.astar_fac
        starts = self._seed(request)
        found = heap_search_untimed(
            starts,
            request.sink,
            self._heuristic(request.sink, astar_fac),
            pn,
            pnA,
            static_set,
            self._nbr,
            self._target_adjacency(request.sink),
            [_INF] * self._n_nodes,
            self._parent_node,
            self._parent_bit,
            stats=self.stats,
        )
        return self._backtrack(request.sink, starts) if found else None

    def _search_timed(
        self, request: RouteRequest, pres_fac: float, crit: float
    ) -> Optional[List[Tuple[int, int, int]]]:
        """Timed twin of :meth:`_search`.

        Criticality differs per connection, so nothing
        criticality-weighted is worth precomputing: the kernel blends
        the *cached* congestion vectors with the static per-node delay
        lists edge by edge — ``g + (inv_crit * congestion + crit *
        delay)`` — exactly the scalar grouping."""
        pn, pnA, static_set = self._price_vectors(request, pres_fac)
        inv_crit = 1.0 - crit
        astar_fac = (
            inv_crit * self.astar_fac
            + crit * self.timing.model.wire_delay
        )
        rrg = self.rrg
        starts = self._seed(request)
        found = heap_search_timed(
            starts,
            request.sink,
            rrg.node_x,
            rrg.node_y,
            astar_fac,
            inv_crit,
            crit,
            self._node_delay,
            self._node_delay_switch,
            pn,
            pnA,
            static_set,
            self._nbr,
            self._target_adjacency(request.sink),
            [_INF] * self._n_nodes,
            self._parent_node,
            self._parent_bit,
            stats=self.stats,
        )
        return self._backtrack(request.sink, starts) if found else None

    def _target_adjacency(
        self, target: int
    ) -> Dict[int, Tuple[Tuple[int, int], ...]]:
        """The heap kernels' per-target overlay on the wire-only
        neighbour tuples.  It maps each node with an edge into a pin
        that leads to *target* (the target block's IPINs and their
        in-wires) to its wire edges plus those pin edges, in
        ``adjacency`` order.  Every other pin is a dead end for this
        target and stays out of the search."""
        tadj = self._tadj.get(target)
        if tadj is None:
            rrg = self.rrg
            pin_src = rrg.pin_sources()
            # The target and the pins leading to it: a source with
            # in-edges of its own is a pin (wires and OPINs have none).
            live = [target]
            for pin in live:
                for src in pin_src[pin]:
                    if pin_src[src] and src not in live:
                        live.append(src)
            kinds = rrg.node_kind
            tadj = {
                src: tuple(
                    edge for edge in rrg.adjacency[src]
                    if kinds[edge[0]] == WIRE or edge[0] in live
                )
                for pin in live
                for src in pin_src[pin]
            }
            self._tadj[target] = tadj
        return tadj

    def _seed(self, request: RouteRequest) -> set:
        """Start set (source + the net's trunk) of one search."""
        starts = {request.source}
        starts.update(self._trunk_nodes(request))
        return starts

    def _backtrack(
        self, target: int, starts: set
    ) -> List[Tuple[int, int, int]]:
        parent_node = self._parent_node
        parent_bit = self._parent_bit
        edges: List[Tuple[int, int, int]] = []
        node = target
        while node not in starts:
            edges.append((parent_node[node], node, parent_bit[node]))
            node = parent_node[node]
        edges.reverse()
        return edges

    # -- main loop -----------------------------------------------------------

    def _order_nets(
        self, requests: Sequence[RouteRequest]
    ) -> Tuple[Dict[str, List[RouteRequest]], List[str]]:
        """Group *requests* by net and fix the negotiation order.

        Rip-up and reroute happens at net granularity: later
        connections of a net branch off the tree built by its earlier
        connections (trunk seeding), so removing a single connection
        could strand the ones that grew from it.  Within one net:
        shared (multi-mode) connections first, then long before
        short, so the trunk is laid by the connections with the
        widest reach; nets themselves go longest-reach first.

        ``_manhattan`` is memoized per request for the call — the
        sort keys would otherwise recompute it O(nets·conns·log)
        every routing.
        """
        man: Dict[int, int] = {
            request.conn_id: self._manhattan(request)
            for request in requests
        }
        by_net: Dict[str, List[RouteRequest]] = {}
        for request in requests:
            by_net.setdefault(request.net, []).append(request)
        for net in by_net:
            by_net[net].sort(
                key=lambda r: (
                    -len(r.modes),
                    -man[r.conn_id],
                    r.conn_id,
                ),
            )
        net_order = sorted(
            by_net,
            key=lambda net: -max(
                man[r.conn_id] for r in by_net[net]
            ),
        )
        return by_net, net_order

    def route(
        self, requests: Sequence[RouteRequest]
    ) -> RoutingResult:
        """Route all *requests*; raises :class:`RoutingError` on failure.

        The cyclic GC is paused for the duration: the searches
        allocate millions of short-lived, acyclic heap tuples, and
        every ~700 of them trigger a generation-0 collection that
        scans the young objects for cycles that cannot exist.  Pausing
        is worth ~5% wall clock and cannot leak — nothing allocated
        here is cyclic, and the previous GC state is restored even on
        RoutingError.
        """
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            return self._negotiate(requests)
        finally:
            if was_enabled:
                gc.enable()

    def _negotiate(
        self, requests: Sequence[RouteRequest]
    ) -> RoutingResult:
        for request in requests:
            if max(request.modes, default=0) >= self.n_modes:
                raise ValueError(
                    "request mode exceeds router's n_modes"
                )
        by_net, net_order = self._order_nets(requests)

        routes: Dict[int, ConnectionRoute] = {}
        pres_fac = self.pres_fac_first
        iteration = 0
        to_route: List[str] = list(net_order)
        while iteration < self.max_iterations:
            iteration += 1
            for net in to_route:
                net_requests = by_net[net]
                for request in net_requests:
                    old = routes.pop(request.conn_id, None)
                    if old is not None:
                        self._remove_route(old)
                for request in net_requests:
                    route = self._route_connection(request, pres_fac)
                    self._add_route(route)
                    routes[request.conn_id] = route
            congested = self._congested_nodes()
            if not congested:
                routes = self._improve_bit_sharing(
                    routes, by_net, net_order, pres_fac
                )
                return RoutingResult(
                    self.rrg, routes, self.n_modes, iteration
                )
            # Update history, raise present cost, reroute only the
            # nets crossing congested nodes.  Price vectors fold
            # history in, so every cached entry is stale now.
            for node, overuse in congested.items():
                self._hist[node] += self.acc_fac * overuse
            self._price_entries.clear()
            pres_fac *= self.pres_fac_mult
            congested_set = set(congested)
            dirty = set()
            for route in routes.values():
                if congested_set.intersection(route.nodes()):
                    dirty.add(route.request.net)
            to_route = [net for net in net_order if net in dirty]
            # Rotate the reroute order each iteration so two
            # contending nets do not replay the exact same sequence
            # of decisions forever.
            if len(to_route) > 1:
                shift = iteration % len(to_route)
                to_route = to_route[shift:] + to_route[:shift]
        raise RoutingError(
            f"unroutable after {self.max_iterations} iterations "
            f"({len(self._congested_nodes())} congested nodes)"
        )

    # -- bit-sharing improvement ---------------------------------------------

    def _parameterized_bit_count(
        self, routes: Dict[int, ConnectionRoute]
    ) -> int:
        """Bits on in some but not all modes (the Fig. 6 DCS metric)."""
        per_mode: List[Set[int]] = [set() for _ in range(self.n_modes)]
        for route in routes.values():
            bits = route.bits()
            for mode in route.request.modes:
                per_mode[mode] |= bits
        union: Set[int] = set()
        intersection: Optional[Set[int]] = None
        for bits in per_mode:
            union |= bits
            intersection = (
                set(bits) if intersection is None
                else intersection & bits
            )
        return len(union - (intersection or set()))

    def _rebuild_state(
        self, routes: Dict[int, ConnectionRoute]
    ) -> None:
        """Reset occupancy bookkeeping to exactly *routes*."""
        self._price_entries.clear()
        for occ in self._occ:
            occ[:] = 0
        self._net_mode_refs.clear()
        self._overused.clear()
        for refs in self._bit_refs:
            refs.clear()
        for route in routes.values():
            self._add_route(route)

    def _improve_bit_sharing(
        self,
        routes: Dict[int, ConnectionRoute],
        by_net: Dict[str, List[RouteRequest]],
        net_order: List[str],
        pres_fac: float,
    ) -> Dict[int, ConnectionRoute]:
        """Post-convergence sweeps that reroute every net with the
        bit-sharing discounts active.

        Congestion-free routing is a precondition; each sweep rips up
        and reroutes whole nets at the current present-cost level so
        legality pressure stays on.  The sweep result is kept only when
        it is still congestion-free and strictly reduces the number of
        parameterised bits, otherwise the previous best is restored.
        """
        if (
            self.sharing_passes <= 0
            or self.n_modes <= 1
            or self.bit_affinity >= 1.0
        ):
            return routes
        best = dict(routes)
        best_count = self._parameterized_bit_count(best)
        current = dict(routes)
        for _sweep in range(self.sharing_passes):
            for net in net_order:
                for request in by_net[net]:
                    old = current.pop(request.conn_id, None)
                    if old is not None:
                        self._remove_route(old)
                for request in by_net[net]:
                    route = self._route_connection(request, pres_fac)
                    self._add_route(route)
                    current[request.conn_id] = route
            if self._congested_nodes():
                break
            count = self._parameterized_bit_count(current)
            if count < best_count:
                best = dict(current)
                best_count = count
            else:
                break
        self._rebuild_state(best)
        return best

    def _manhattan(self, request: RouteRequest) -> int:
        rrg = self.rrg
        return abs(
            rrg.node_x[request.source] - rrg.node_x[request.sink]
        ) + abs(rrg.node_y[request.source] - rrg.node_y[request.sink])

    def congestion(self) -> Dict[int, int]:
        """Currently overused nodes -> total overuse (empty = legal)."""
        return self._congested_nodes()

    def _congested_nodes(self) -> Dict[int, int]:
        """node -> total overuse across modes.

        Derived from the incrementally maintained overuse set, so the
        check is proportional to the congestion, not the graph.
        """
        result: Dict[int, int] = {}
        cap = self.rrg.node_capacity
        for mode, node in self._overused:
            result[node] = result.get(node, 0) + (
                self._occ[mode][node] - cap[node]
            )
        return result


class ScalarPathFinderRouter(PathFinderRouter):
    """The scalar reference: pure-Python searches priced one node at
    a time.

    Only the two search methods and their scratch arrays differ from
    :class:`PathFinderRouter`; negotiation, bookkeeping and sweeps are
    the production core's.  The scratch is the RRG's CSR neighbour
    arrays, epoch-stamped distance/visited arrays and the per-search
    node-pricing cache: within one connection search a node's cost is
    bit-independent except for the bit-affinity multiplier, so the
    expensive part (occupancy, history, net affinity, noise) is
    computed once per node per search instead of once per incoming
    edge.  The equivalence tests route every workload through both
    cores and compare them decision for decision.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        n = self.rrg.n_nodes
        self._base = self.rrg.base_cost_array()
        self._row_ptr, self._edge_dst, self._edge_bit = (
            self.rrg.neighbor_arrays()
        )
        self._dist = [0.0] * n
        self._dist_epoch = [0] * n
        self._visited_epoch = [0] * n
        self._price = [0.0] * n
        self._price_over0 = [False] * n
        self._price_noise = [0.0] * n
        self._price_epoch = [0] * n
        self._epoch = 0

    def _search(
        self, request: RouteRequest, pres_fac: float
    ) -> Optional[List[Tuple[int, int, int]]]:
        return scalar_search(self, request, pres_fac)

    def _search_timed(
        self, request: RouteRequest, pres_fac: float, crit: float
    ) -> Optional[List[Tuple[int, int, int]]]:
        return scalar_search_timed(self, request, pres_fac, crit)
