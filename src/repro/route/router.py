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

The search is multi-source A* with the heuristic ``astar_fac *
M(n, target)``, ``M`` the integer Manhattan distance.  The weight is
capped at the affinity floor ``net_affinity * bit_affinity``, the
cheapest a hop can be, but that does not make the bound consistent:
the switch-box turn ``chanx(x+1, y) -> chany(x, y+1)`` closes 2
Manhattan units in one hop, so Manhattan is consistent only up to
weight floor/2.  What actually holds:

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
deterministic and part of what the cores agree on bit for bit.
``lookahead=`` swaps in the precomputed fabric lower bounds of
:mod:`repro.route.lookahead` (tighter; that module argues its bound),
and ``partial_ripup=True`` keeps a dirty net's congestion-free
subtrees across rip-up; both are opt-in because they change
equal-cost tie-breaks relative to the defaults.

Two interchangeable negotiation cores implement the search:

* the **scalar reference** in this module — pure Python, priced one
  node at a time (the implementation every result is defined
  against);
* the **vectorized core** (:mod:`repro.route.vectorized`) — numpy
  array math over whole-graph price vectors, bit-identical by
  construction and roughly twice as fast on real workloads.

``PathFinderRouter(...)`` constructs the vectorized core by default;
``REPRO_SCALAR_ROUTER=1`` in the environment (or numpy being
unavailable) swaps the scalar reference back in everywhere.  Tests
that need a specific core regardless of the environment instantiate
:class:`ScalarPathFinderRouter` or
:class:`~repro.route.vectorized.VectorizedPathFinderRouter` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.arch.rrg import OPIN, SINK, WIRE, RoutingResourceGraph
from repro.route.searchkernel import (
    RouterStats,
    scalar_search,
    scalar_search_timed,
)
from repro.utils.env import env_flag


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


def scalar_router_forced() -> bool:
    """True when ``REPRO_SCALAR_ROUTER`` selects the scalar core."""
    return env_flag("REPRO_SCALAR_ROUTER")


class PathFinderRouter:
    """Negotiated-congestion router over a routing-resource graph.

    Constructing this class picks the negotiation core: the
    numpy-vectorized one by default, the scalar reference in this
    module under ``REPRO_SCALAR_ROUTER=1`` (or when numpy is
    missing).  Both produce bit-identical results; subclasses are
    never re-dispatched.
    """

    def __new__(cls, *args, **kwargs):
        if cls is PathFinderRouter and not scalar_router_forced():
            try:
                from repro.route.vectorized import (
                    VectorizedPathFinderRouter,
                )
            except ImportError:
                # numpy unavailable: the scalar reference is the
                # fallback, not a failure.
                return super().__new__(cls)
            if kwargs.get("batched"):
                from repro.route.batched import (
                    BatchedPathFinderRouter,
                )
                return super().__new__(BatchedPathFinderRouter)
            return super().__new__(VectorizedPathFinderRouter)
        return super().__new__(cls)

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
        batched: bool = False,
        route_workers: int = 1,
        stats: Optional[RouterStats] = None,
        lookahead=None,
        partial_ripup: bool = False,
    ) -> None:
        # The batched-wavefront knobs are accepted (and recorded) by
        # every core so call sites can thread them unconditionally:
        # ``batched=True`` selects the batched core at dispatch time
        # (unless ``REPRO_SCALAR_ROUTER`` forces the reference, the
        # escape hatch trumping everything); the scalar/vectorized
        # cores ignore them otherwise.  ``stats`` collects
        # :class:`RouterStats` counters where the core supports them.
        self.batched = bool(batched)
        self.route_workers = max(1, int(route_workers))
        self.stats = stats
        # ``lookahead`` swaps the Manhattan heuristic for precomputed
        # fabric lower bounds (:mod:`repro.route.lookahead`); accepts
        # the raw tables (as stored in the stage cache) or a prebuilt
        # wrapper.  ``partial_ripup`` keeps a dirty net's
        # congestion-free, still-anchored subtrees across rip-up (see
        # :meth:`_partial_keep`).  Both change tie-breaks versus the
        # defaults, so like the batched core they are opt-in and
        # QoR-gated rather than bit-compared against the baseline —
        # but with either enabled the scalar and vectorized cores
        # remain bit-identical to each other.
        self.lookahead = None
        if lookahead is not None:
            from repro.route.lookahead import (
                LookaheadTables,
                RouterLookahead,
            )
            if isinstance(lookahead, LookaheadTables):
                lookahead = RouterLookahead(rrg, lookahead)
            self.lookahead = lookahead
        self.partial_ripup = bool(partial_ripup)
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

        n = rrg.n_nodes
        # occupancy[mode][node] = number of distinct nets on the node.
        self._occ = [[0] * n for _ in range(n_modes)]
        self._hist = [0.0] * n
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
        # Flat graph views (precomputed once per RRG) and reusable
        # search scratch: dist/parent/visited are epoch-stamped arrays,
        # so starting a new search is O(1) instead of allocating fresh
        # dicts for every one of the thousands of connection routes.
        self._base = rrg.base_cost_array()
        self._parent_node = [-1] * n
        self._parent_bit = [-1] * n
        self._epoch = 0
        self._init_scratch(n)
        # Timing-driven context: per-node intrinsic delays are
        # precomputed once so the timed relaxation loop reads a flat
        # array, exactly like the congestion arrays above.
        self.timing = timing
        self._node_delay: Optional[List[float]] = None
        if timing is not None:
            model = timing.model
            self._node_delay = [
                model.node_delay(rrg, node) for node in range(n)
            ]

    def _init_scratch(self, n: int) -> None:
        """Graph views and search scratch of the scalar relaxation
        loops.

        The RRG's CSR neighbour arrays, epoch-stamped distance/visited
        arrays and the per-search node-pricing cache: within one
        connection search a node's cost is bit-independent except for
        the bit-affinity multiplier, so the expensive part (occupancy,
        history, net affinity, noise) is computed once per node per
        search instead of once per incoming edge.  The vectorized core
        overrides this with its own (array-priced) scratch.
        """
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

    def _history_updated(self) -> None:
        """Hook: the negotiation loop just raised history costs.

        The scalar loops read ``self._hist`` directly, so nothing to
        do here; the vectorized core uses it to drop price vectors
        built against the old history (it must not rely on
        ``pres_fac`` changing alongside — ``pres_fac_mult`` may
        legitimately be 1.0).
        """

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

    def _net_uses(self, net: str, mode: int, node: int) -> bool:
        refs = self._net_mode_refs.get((net, mode))
        return bool(refs) and node in refs

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

    # -- cost model --------------------------------------------------------

    def _node_cost(
        self, node: int, request: RouteRequest, pres_fac: float,
        net_salt: int, bit: int = -1,
    ) -> float:
        rrg = self.rrg
        cap = rrg.node_capacity[node]
        kind = rrg.node_kind[node]
        base = 0.0 if kind == SINK else 1.0
        overuse = 0
        for mode in request.modes:
            already = self._net_uses(request.net, mode, node)
            occ_after = self._occ[mode][node] + (0 if already else 1)
            if occ_after > cap:
                overuse += occ_after - cap
        cost = (base + self._hist[node]) * (1.0 + pres_fac * overuse)
        if self.net_affinity < 1.0 and kind == WIRE and overuse == 0:
            # Cross-mode affinity: prefer wires the net already drives
            # in some other mode (their bits become static).
            for mode in range(self.n_modes):
                if mode not in request.modes and self._net_uses(
                    request.net, mode, node
                ):
                    cost *= self.net_affinity
                    break
        if (
            self.bit_affinity < 1.0
            and bit >= 0
            and overuse == 0
            and len(request.modes) < self.n_modes
            and self._bit_becomes_static(bit, request.modes)
        ):
            # Bit-sharing affinity: a switch already on in all the
            # other modes costs nothing extra to reconfigure.
            cost *= self.bit_affinity
        # Deterministic per-(net, node) jitter breaks the symmetric
        # ties that otherwise let two equal-cost nets swap the same
        # pair of resources forever (a PathFinder livelock).  The
        # jitter is non-negative, so no cost drops below the floor
        # the A* weight assumes.
        noise = ((net_salt ^ (node * 0x9E3779B9)) & 0xFFFF) / 0xFFFF
        return cost + 0.01 * noise

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

    # -- search --------------------------------------------------------------

    def _route_connection(
        self, request: RouteRequest, pres_fac: float
    ) -> ConnectionRoute:
        """Route one connection with the scalar reference kernel.

        The relaxation loops themselves live in
        :mod:`repro.route.searchkernel` (shared with the vectorized
        and batched cores); this method owns the timing dispatch and
        the error path.  Timing-driven connections (a criticality
        above 0 in ``self.timing``) route through the timed twin
        :meth:`_route_connection_timed`; keeping the two kernels
        separate leaves the untimed one byte-identical to the
        reference, so wirelength-driven results cannot drift.
        """
        timing = self.timing
        if timing is not None:
            crit = timing.criticality.get(request.conn_id, 0.0)
            if crit > 0.0:
                return self._route_connection_timed(
                    request, pres_fac, crit
                )
        edges = scalar_search(self, request, pres_fac)
        if edges is None:
            raise RoutingError(
                f"no path from {self.rrg.describe(request.source)} "
                f"to {self.rrg.describe(request.sink)}"
            )
        return ConnectionRoute(request, edges)

    def _route_connection_timed(
        self, request: RouteRequest, pres_fac: float, crit: float
    ) -> ConnectionRoute:
        """Timed twin of :meth:`_route_connection` (same kernel
        module, criticality-blended edge costs)."""
        edges = scalar_search_timed(self, request, pres_fac, crit)
        if edges is None:
            raise RoutingError(
                f"no path from {self.rrg.describe(request.source)} "
                f"to {self.rrg.describe(request.sink)}"
            )
        return ConnectionRoute(request, edges)

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

    def _partial_keep(
        self,
        net_requests: List[RouteRequest],
        routes: Dict[int, ConnectionRoute],
        congested_set: Set[int],
    ) -> Set[int]:
        """Connections of one dirty net that survive a partial rip-up.

        A route is kept when (a) it touches no congested node and
        (b) it stays *anchored*: starting from the net's source, the
        kept routes must chain into a connected tree in **every** mode
        — the same per-mode fixpoint :func:`validate_routing` checks.
        Routes whose first node hangs off a ripped branch are dropped
        until the fixpoint stabilises, so trunk seeding over the
        survivors can never produce a stranded connection.
        """
        keep: Dict[int, ConnectionRoute] = {}
        for request in net_requests:
            route = routes.get(request.conn_id)
            if route is None:
                continue
            if congested_set.intersection(route.nodes()):
                continue
            keep[request.conn_id] = route
        if not keep:
            return set()
        source = net_requests[0].source
        while True:
            dropped = False
            modes = sorted(
                {
                    mode
                    for route in keep.values()
                    for mode in route.request.modes
                }
            )
            for mode in modes:
                pending = [
                    route
                    for route in keep.values()
                    if mode in route.request.modes
                ]
                reachable = {source}
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
                    for route in pending:
                        keep.pop(route.request.conn_id, None)
                    dropped = True
            if not dropped:
                return set(keep)

    def route(
        self, requests: Sequence[RouteRequest]
    ) -> RoutingResult:
        """Route all *requests*; raises :class:`RoutingError` on failure."""
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
        partial = self.partial_ripup
        congested_set: Set[int] = set()
        while iteration < self.max_iterations:
            iteration += 1
            for net in to_route:
                net_requests = by_net[net]
                # Partial rip-up: keep the net's congestion-free,
                # still-anchored subtrees registered — their nodes
                # stay in the trunk, so rerouted branches get them as
                # free multi-source seeds.
                keep = (
                    self._partial_keep(
                        net_requests, routes, congested_set
                    )
                    if partial and congested_set
                    else ()
                )
                for request in net_requests:
                    if request.conn_id in keep:
                        continue
                    old = routes.pop(request.conn_id, None)
                    if old is not None:
                        self._remove_route(old)
                for request in net_requests:
                    if request.conn_id in keep:
                        continue
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
            # nets crossing congested nodes.
            for node, overuse in congested.items():
                self._hist[node] += self.acc_fac * overuse
            self._history_updated()
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
        for occ in self._occ:
            for node in range(len(occ)):
                occ[node] = 0
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
    """The scalar reference core, unconditionally.

    A/B harnesses (the equivalence tests, ``repro bench-exec``'s
    ``router_vectorized`` phase) need the reference implementation
    regardless of ``REPRO_SCALAR_ROUTER``; this subclass bypasses the
    construction-time dispatch and inherits the scalar loops
    unchanged.
    """
