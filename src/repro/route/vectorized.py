"""Vectorized PathFinder negotiation core (numpy over whole-graph vectors).

:class:`VectorizedPathFinderRouter` re-implements the two hot
relaxation loops of :class:`~repro.route.router.PathFinderRouter`
(`_route_connection` and `_route_connection_timed`) around a simple
observation: during one connection search the congestion state is
frozen — occupancy, history, the net's own reference counts and the
bit-sharing reference counts only change *between* searches.  A node's
price is therefore a pure function of the node for the whole search,
so instead of pricing nodes lazily one dict probe at a time, the
router prices the **entire graph at once** as numpy array math over
per-node vectors, and searches the RRG's wire-only neighbour tuples:

``price = (base + history) * (1 + pres_fac * overuse) [* affinities]``
``edge cost = crit * delay + (1 - crit) * (price + noise)``

The untimed A* heuristic is batched the same way (one
Manhattan-distance vector per target, cached across searches; the
timed loops keep the scalar per-push expression — their
criticality-scaled weight defeats caching), and the relaxation loop
then reads one precomputed Python list per scanned edge (``tolist()``
keeps scalar access cheap) — no per-mode loops, no dict membership
probes, no noise hashing in the inner loop.  The bit-sharing
discount's occupancy gate is folded into the discounted price vector
itself (``where(overused, plain, discounted)``), so even that path
costs one set probe per edge.

**Bit identity.**  Every float expression keeps the reference
implementation's exact operation order and grouping (float addition is
not associative; a one-ULP difference flips equal-cost tie-breaks), so
the vectorized search makes byte-identical decisions: identical
routes, wirelength, iteration counts and cached-result pickles.  The
search takes three structural liberties, none of which can change a
decision (only the ``RouterStats`` counters differ from the scalar
core's):

* **Dead-end pins.**  A pin leads only to its own block's SINK, so an
  IPIN of any block but the target's, and any SINK but the target,
  can never reach the target.  The kernels search the wire-only
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
  instead of the affinity floor; see ``_route_connection``.

The A/B property test (``tests/test_router_equivalence.py``) asserts
bit-identity across circuit families, pricing modes and connection
shapes, and ``REPRO_SCALAR_ROUTER=1`` swaps the scalar reference back
in at construction time (the nightly CI runs the whole tier-1 suite
that way so the reference path cannot rot).

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
history costs (the ``_history_updated`` hook — ``pres_fac`` alone
would not cover it, since ``pres_fac_mult`` may be 1.0) — one vector
build prices a whole net's fan-out.
"""

from __future__ import annotations

import gc
import zlib
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.rrg import WIRE
from repro.route.router import (
    ConnectionRoute,
    PathFinderRouter,
    RouteRequest,
    RoutingError,
)
from repro.route.searchkernel import (
    EMPTY_STATIC,
    heap_search_timed,
    heap_search_untimed,
)

#: Knuth's multiplicative-hash constant — must match the scalar
#: reference's per-(net, node) tie-break jitter exactly.
_NOISE_MUL = 0x9E3779B9

#: Heuristic-vector cache bound: evict least-recently-used entries
#: once the cached lists hold more than this many floats (~16 MB).
#: Untimed routing keys by target only and never comes close; timed
#: routing keys by (target, astar_fac) and would otherwise grow one
#: entry per connection.
_H_CACHE_MAX_FLOATS = 2_000_000

#: Distance sentinels of the relaxation loops: +inf marks a node not
#: yet seen in this search (any relaxation improves it — the scalar
#: reference's epoch check) and -inf marks a settled node (nothing
#: improves it — the scalar reference's visited check).
_INF = float("inf")
_NEG_INF = float("-inf")


class VectorizedPathFinderRouter(PathFinderRouter):
    """PathFinder with array-level pricing; bit-identical to scalar.

    Everything outside the two search methods (occupancy bookkeeping,
    the negotiation main loop, bit-sharing sweeps, trunk seeding) is
    inherited; only the containers the array math reads — occupancy
    and history — become numpy arrays.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        rrg = self.rrg
        n = rrg.n_nodes
        # numpy twins of the congestion state.  Scalar bookkeeping
        # (`occ[node] += 1`) works unchanged on them; the price build
        # reads them whole.
        self._occ = [
            np.zeros(n, dtype=np.int64) for _ in range(self.n_modes)
        ]
        self._hist = np.zeros(n, dtype=np.float64)
        # Immutable per-graph vectors.
        self._np_base = np.asarray(self._base, dtype=np.float64)
        self._np_cap = np.asarray(rrg.node_capacity, dtype=np.int64)
        self._np_x = np.asarray(rrg.node_x, dtype=np.int64)
        self._np_y = np.asarray(rrg.node_y, dtype=np.int64)
        self._wire_mask = (
            np.asarray(rrg.node_kind, dtype=np.int64) == WIRE
        )
        # The heap kernels' search graph: wire-bound edges for every
        # node, plus per target the edges toward its own pins (see
        # _target_adjacency and the module docstring).
        self._nbr = rrg.wire_neighbors()
        self._tadj: Dict[int, Dict[int, Tuple[Tuple[int, int], ...]]] = {}
        # A* weight of connections active in every mode: see
        # _route_connection.  The lookahead's bound has another shape
        # and keeps the plain weight.
        self._shared_fac = self.astar_fac
        if self.lookahead is None:
            self._shared_fac = max(
                self.astar_fac, 1.0 / max(rrg.max_edge_span(), 1)
            )
        # Per-node part of the tie-break jitter; XORing the net salt
        # in is the only per-search step.
        self._noise_mul = np.arange(n, dtype=np.int64) * _NOISE_MUL
        if self._node_delay is not None:
            # Same per-edge `delay + switch_delay` add as the scalar
            # loop, hoisted into one list read.
            switch_delay = self.timing.model.switch_delay
            self._node_delay_switch = [
                d + switch_delay for d in self._node_delay
            ]
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
        self._n_nodes = n

    # -- main loop -----------------------------------------------------------

    def route(self, requests: Sequence[RouteRequest]):
        """Negotiate all requests with the cyclic GC paused.

        The searches allocate millions of short-lived, acyclic heap
        tuples; every ~700 of them trigger a generation-0 collection
        that scans the young objects for cycles that cannot exist.
        Pausing collection for the duration is worth ~5% wall clock
        and cannot leak — nothing allocated here is cyclic, and the
        previous GC state is restored even on RoutingError.
        """
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            return super().route(requests)
        finally:
            if was_enabled:
                gc.enable()

    def _init_scratch(self, n: int) -> None:
        """The vectorized loops price via whole-graph vectors and a
        fresh sentinel dist list per search over the neighbour tuples,
        so the scalar core's CSR views and seven O(n) scratch arrays
        are never allocated here."""

    # -- cache invalidation --------------------------------------------------

    def _history_updated(self) -> None:
        # Price vectors fold history costs in; entries built against
        # the old history are stale the moment the negotiation loop
        # raises it.  (The (net, pres_fac) key alone does not cover
        # this: pres_fac_mult may be 1.0.)
        self._price_entries.clear()

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

    def _add_route(self, route: ConnectionRoute) -> None:
        super()._add_route(route)
        self._invalidate_prices(route)

    def _remove_route(self, route: ConnectionRoute) -> None:
        super()._remove_route(route)
        self._invalidate_prices(route)

    def _rebuild_state(
        self, routes: Dict[int, ConnectionRoute]
    ) -> None:
        self._price_entries.clear()
        for occ in self._occ:
            occ[:] = 0
        self._net_mode_refs.clear()
        self._overused.clear()
        for refs in self._bit_refs:
            refs.clear()
        for route in routes.values():
            self._add_route(route)

    # -- array-level pricing -------------------------------------------------

    def _heuristic(
        self, target: int, astar_fac: float
    ) -> List[float]:
        """``astar_fac * manhattan(node, target)`` for every node —
        exactly the scalar per-push expression, batched and cached
        (LRU) — or the lookahead's tighter per-target vector, which
        carries its own cache."""
        if self.lookahead is not None:
            return self.lookahead.cost_list_scaled(target, astar_fac)
        cache = self._h_cache
        key = (target, astar_fac)
        h = cache.get(key)
        if h is None:
            # Evict least-recently-used entries (dict order = use
            # order: hits below re-insert) instead of clearing the
            # lot — timed routing keys one entry per connection and
            # would thrash the whole cache at the bound.
            n = len(self._np_x)
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
        expression mirrors the scalar reference's grouping.  (The
        batched core's isolated per-net tasks price through their own
        round-shared twin of this method — see
        ``BatchedPathFinderRouter._price_entry_isolated``.)
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

    def _make_price_entry(
        self, request: RouteRequest, pres_fac: float
    ) -> Tuple:
        """Build one cached price entry: the heap kernels read plain
        Python lists (``tolist()`` keeps scalar access cheap).  The
        batched core overrides this to keep the numpy arrays."""
        pn_np, pnA_np, static_set = self._price_arrays(
            request, pres_fac
        )
        use_bit = pnA_np is not None
        return (
            pn_np.tolist(),
            pnA_np.tolist() if use_bit else None,
            static_set,
            use_bit,
        )

    def _price_vectors(
        self, request: RouteRequest, pres_fac: float
    ) -> Tuple:
        """Cached price state: ``(pn, pnA, static_set, use_bit)`` per
        activation set of the current (net, pres_fac) — see the
        module docstring for the reuse-safety argument behind
        ``_invalidate_prices``."""
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
            entry = self._make_price_entry(request, pres_fac)
            self._price_entries[modes] = entry
        return entry

    # -- search --------------------------------------------------------------
    #
    # The relaxation loops live in repro.route.searchkernel (shared
    # with the scalar reference and the batched core).  ``dist`` is a
    # fresh per-search list using value sentinels instead of epoch
    # stamps: +inf means "not seen this search" (any first relaxation
    # improves, exactly like the scalar's epoch check) and -inf,
    # written when a node is popped, means "settled" (no relaxation
    # can improve, exactly like the scalar's visited check — a node's
    # first pop always carries its best tentative distance, because
    # entries of one node share its heuristic and thus sort by
    # distance).  Without a live bit discount the kernels get
    # ``pnA=pn`` and an empty static set, which evaluates the exact
    # float expressions of the historical no-bit loops.

    def _route_connection(
        self, request: RouteRequest, pres_fac: float
    ) -> ConnectionRoute:
        """Vectorized twin of the scalar multi-source A* search."""
        timing = self.timing
        if timing is not None:
            crit = timing.criticality.get(request.conn_id, 0.0)
            if crit > 0.0:
                return self._route_connection_timed(
                    request, pres_fac, crit
                )
        pn, pnA, static_set, use_bit = self._price_vectors(
            request, pres_fac
        )
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
        h = self._heuristic(request.sink, astar_fac)
        starts = self._seed(request)
        dist = [_INF] * self._n_nodes
        found = heap_search_untimed(
            starts,
            request.sink,
            h,
            pn,
            pnA if use_bit else pn,
            static_set if use_bit else EMPTY_STATIC,
            self._nbr,
            self._target_adjacency(request.sink),
            dist,
            self._parent_node,
            self._parent_bit,
            stats=self.stats,
        )
        if not found:
            raise self._no_path(request)
        return self._backtrack(request, starts)

    def _route_connection_timed(
        self, request: RouteRequest, pres_fac: float, crit: float
    ) -> ConnectionRoute:
        """Vectorized timed search.

        Criticality differs per connection, so unlike the untimed
        loop nothing criticality-weighted is worth precomputing: the
        kernel blends the *cached* congestion vectors with the static
        per-node delay lists edge by edge —
        ``g + (inv_crit * congestion + crit * delay)`` — exactly the
        scalar grouping, with the pricing work amortized away.  With
        a lookahead the heuristic blends the unscaled cost/delay
        lower-bound vectors per push instead (cached per target, not
        per criticality)."""
        pn, pnA, static_set, use_bit = self._price_vectors(
            request, pres_fac
        )
        inv_crit = 1.0 - crit
        astar_fac = (
            inv_crit * self.astar_fac
            + crit * self.timing.model.wire_delay
        )
        lookahead = self.lookahead
        if lookahead is not None:
            lkc = lookahead.cost_list(request.sink)
            lkd = lookahead.delay_list(request.sink)
            lk_a = inv_crit * self.astar_fac
            lk_b = crit
        else:
            lkc = lkd = None
            lk_a = lk_b = 0.0
        rrg = self.rrg
        starts = self._seed(request)
        dist = [_INF] * self._n_nodes
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
            pnA if use_bit else pn,
            static_set if use_bit else EMPTY_STATIC,
            self._nbr,
            self._target_adjacency(request.sink),
            dist,
            self._parent_node,
            self._parent_bit,
            lkc=lkc,
            lkd=lkd,
            lk_a=lk_a,
            lk_b=lk_b,
            stats=self.stats,
        )
        if not found:
            raise self._no_path(request)
        return self._backtrack(request, starts)

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
        self, request: RouteRequest, starts: set
    ) -> ConnectionRoute:
        parent_node = self._parent_node
        parent_bit = self._parent_bit
        edges: List[Tuple[int, int, int]] = []
        node = request.sink
        while node not in starts:
            edges.append((parent_node[node], node, parent_bit[node]))
            node = parent_node[node]
        edges.reverse()
        return ConnectionRoute(request, edges)

    def _no_path(self, request: RouteRequest) -> RoutingError:
        rrg = self.rrg
        return RoutingError(
            f"no path from {rrg.describe(request.source)} to "
            f"{rrg.describe(request.sink)}"
        )
