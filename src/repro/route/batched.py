"""Batched-wavefront PathFinder core (opt-in, QoR-gated).

:class:`BatchedPathFinderRouter` replaces the binary heap at the
center of the search with the bucket (delta-stepping) kernels of
:mod:`repro.route.searchkernel` and the net-at-a-time negotiation
loop with a parallel-net pass.  It reuses the vectorized core's
whole-graph pricing (:meth:`_price_arrays`) but keeps the price
vectors as numpy arrays: each drained bucket prices **all** its
outgoing edges in one CSR expansion instead of one list read per
edge.

**What changes vs. the scalar/vectorized cores.**  Entries within a
bucket settle together without intra-bucket re-relaxation, so a
settled label may exceed the true optimum by up to one bucket width —
routes can differ from the reference cores.  The batched core is
therefore *not* bit-identical to them; it ships behind
``FlowOptions(batched_router=True)`` and is gated by the QoR campaign
tolerances (see ``tests/test_router_batched.py``).

**What does NOT change: determinism.**  Everything is a pure function
of the request stream:

* bucket drains are ordered (lowest bucket first) and the
  per-destination relaxation winner is canonical (lowest ``ng``, then
  source, then bit, via a stable lexsort);
* the parallel negotiation phase is a *Jacobi* step — every dirty net
  is ripped up first, then each net routes in **isolation** against
  the frozen background congestion (task-local occupancy overlays, a
  task-local price cache, task-local scratch; shared state is
  read-only), so per-net results cannot depend on scheduling;
* routes commit in canonical net order, and the conflict-resolution
  pass replays colliding nets sequentially in that same order.

Results are consequently bit-identical across ``route_workers``
counts (1 == N threads) and across warm/cold stage caches — asserted
by the equivalence suite.

The parallel fan-out goes through :class:`repro.exec.scheduler`'s
thread mode (the tasks close over live router state and are not
picklable).  On a single-core box threads buy no wall clock — the
speedup of this core comes from the bucket kernels — but the
negotiation pass is structured so multi-core machines can fan it out
without changing a single result.
"""

from __future__ import annotations

import gc
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.rrg import SINK
from repro.route.router import (
    ConnectionRoute,
    RouteRequest,
    RoutingError,
    RoutingResult,
)
from repro.route.searchkernel import (
    RouterStats,
    bucket_search_timed,
    bucket_search_untimed,
)
from repro.route.vectorized import (
    _H_CACHE_MAX_FLOATS,
    _INF,
    VectorizedPathFinderRouter,
)

#: Floor for the bucket width: the price vectors are strictly
#: positive on non-sink nodes (unit base cost times the affinity
#: floor), so this only guards degenerate graphs.
_MIN_DELTA = 1e-9


class BatchedPathFinderRouter(VectorizedPathFinderRouter):
    """Bucket-queue search + parallel-net negotiation.

    Selected by ``PathFinderRouter(..., batched=True)`` (unless
    ``REPRO_SCALAR_ROUTER`` forces the scalar reference — the escape
    hatch trumps the flag).  ``route_workers`` sizes the thread
    fan-out of the negotiation pass; results are identical at any
    value.  ``stats`` (a :class:`RouterStats`) accumulates profiling
    counters across ``route()`` calls; one is created if not given.
    """

    #: Bucket-width multiplier over the minimum node price.  1.0 is
    #: classic delta-stepping; widening the bucket drains bigger
    #: frontiers per numpy pass (fewer, fatter drains) at the price
    #: of a proportionally looser settled-label bound.  The default
    #: is tuned on the bench workload against the campaign QoR gate.
    delta_mult: float = 1.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.stats is None:
            self.stats = RouterStats()
        n = self._n_nodes
        # numpy twins of the RRG's CSR views.
        row_ptr, edge_dst, edge_bit = self.rrg.neighbor_arrays()
        self._np_row_ptr = np.asarray(row_ptr, dtype=np.int64)
        self._np_edge_dst = np.asarray(edge_dst, dtype=np.int64)
        self._np_edge_bit = np.asarray(edge_bit, dtype=np.int64)
        self._nonsink_mask = (
            np.asarray(self.rrg.node_kind, dtype=np.int64) != SINK
        )
        # Bit-id bound for the static-bit lookup vectors (+1 sentinel
        # slot kept False so ``lut[-1]`` — edges without a bit — never
        # discounts).
        self._n_bits = int(
            self._np_edge_bit.max() + 1
        ) if self._np_edge_bit.size else 0
        # Padded adjacency: ``_adj_e[node]`` is the node's outgoing
        # edge ids right-padded with the sentinel id ``n_edges``, so
        # frontier expansion is a single 2-D gather.  The padded
        # per-edge companions (``n_edges + 1`` long) give the pad
        # slot a harmless destination — its price is +inf, so it
        # never survives relaxation.
        n_edges = self._np_edge_dst.shape[0]
        deg = self._np_row_ptr[1:] - self._np_row_ptr[:-1]
        max_deg = int(deg.max()) if deg.size else 1
        adj_e = np.full((n, max(max_deg, 1)), n_edges, np.int64)
        rp0 = self._np_row_ptr[:-1]
        for j in range(max_deg):
            rows = deg > j
            adj_e[rows, j] = rp0[rows] + j
        self._adj_e = adj_e
        self._pdst = np.concatenate(
            [self._np_edge_dst, np.zeros(1, np.int64)]
        )
        self._pedge_src = np.concatenate(
            [
                np.repeat(np.arange(n, dtype=np.int64), deg),
                np.zeros(1, np.int64),
            ]
        )
        self._pedge_bit = np.concatenate(
            [self._np_edge_bit, np.full(1, -1, np.int64)]
        )
        self._edge_sink = ~self._nonsink_mask[self._np_edge_dst]
        # Shared per-round price state of the parallel negotiation:
        # during one Jacobi round the background congestion is frozen
        # and every ripped net prices against it, so the expensive
        # occupancy/overuse part of the price vector is identical for
        # all nets with the same activation set.  Keyed by activation
        # set, cleared at the start of every round.
        self._round_cost: Dict = {}
        if self._node_delay is not None:
            self._np_nd = np.asarray(
                self._node_delay, dtype=np.float64
            )
            self._np_nds = np.asarray(
                self._node_delay_switch, dtype=np.float64
            )
            nonsink_nd = self._np_nd[self._nonsink_mask]
            self._min_edge_delay = (
                float(nonsink_nd.min()) if nonsink_nd.size else 0.0
            )
            # Edge-indexed delay (switch-inclusive on bit-carrying
            # edges); delays never change, so one vector serves every
            # timed search of the router's lifetime.
            self._pde = np.concatenate(
                [
                    np.where(
                        self._np_edge_bit >= 0,
                        self._np_nds[self._np_edge_dst],
                        self._np_nd[self._np_edge_dst],
                    ),
                    np.full(1, _INF, np.float64),
                ]
            )
        # Per-search scratch of the live (non-parallel) searches
        # (``_bfq`` is the dense priority queue of the bucket kernel).
        self._bdist = np.empty(n, dtype=np.float64)
        self._bfq = np.empty(n, dtype=np.float64)
        self._bparent_node = np.empty(n, dtype=np.int64)
        self._bparent_bit = np.empty(n, dtype=np.int64)
        # Manhattan vectors per target: unscaled (timed searches
        # scale by the per-connection blended A* weight) and
        # astar_fac-scaled (untimed).  Concurrent negotiation tasks
        # share these dicts — benign under the GIL: values are
        # immutable once assigned and a lost race only recomputes.
        self._man_cache: Dict[int, np.ndarray] = {}
        self._bh_cache: Dict[int, np.ndarray] = {}

    # -- heuristics ----------------------------------------------------------
    #
    # Both per-target caches evict least-recently-used entries at the
    # float budget (dict order = use order; a hit re-inserts).  The
    # pop-based refresh keeps concurrent negotiation tasks safe under
    # the GIL: pop-with-default cannot raise on a lost race, and the
    # eviction guard tolerates a neighbour emptying the dict.

    def _lru_evict(self, cache: Dict) -> None:
        while (
            cache
            and (len(cache) + 1) * self._n_nodes > _H_CACHE_MAX_FLOATS
        ):
            try:
                cache.pop(next(iter(cache)), None)
            except (StopIteration, RuntimeError):
                break

    def _man_np(self, target: int) -> np.ndarray:
        # Deliberately lock-free pop-then-reinsert LRU: single-word
        # dict ops are atomic under the GIL, values are immutable
        # once built, and a lost race only recomputes one array.
        cache = self._man_cache
        # repro: allow[RPR201] GIL-benign LRU pop; lost race recomputes
        man = cache.pop(target, None)
        if man is None:
            self._lru_evict(cache)
            man = (
                np.abs(self._np_x - self.rrg.node_x[target])
                + np.abs(self._np_y - self.rrg.node_y[target])
            ).astype(np.float64)
        # repro: allow[RPR201] GIL-benign reinsert of immutable value
        cache[target] = man
        return man

    def _bh_np(self, target: int) -> np.ndarray:
        # Same lock-free LRU discipline as _man_np.
        cache = self._bh_cache
        # repro: allow[RPR201] GIL-benign LRU pop; lost race recomputes
        h = cache.pop(target, None)
        if h is None:
            self._lru_evict(cache)
            if self.lookahead is not None:
                # The lookahead's cost table replaces Manhattan under
                # the same astar_fac scaling (admissible either way;
                # the bucket width adapts in _delta_eff).
                h = self.astar_fac * self.lookahead.cost_array(target)
            else:
                h = self.astar_fac * self._man_np(target)
        # repro: allow[RPR201] GIL-benign reinsert of immutable value
        cache[target] = h
        return h

    def _delta_eff(self) -> float:
        """Bucket-width multiplier, adapted to the heuristic.

        The lookahead compresses the f-range of a search (h is close
        to the true remaining cost, so queued f values cluster near
        the final path cost); at a fixed delta the frontier then
        spans more of the remaining slack and the settled-label error
        grows relative to the search depth.  Halving the width keeps
        the quantization commensurate with the sharper heuristic.
        """
        if self.lookahead is not None:
            return self.delta_mult * 0.5
        return self.delta_mult

    # -- pricing -------------------------------------------------------------

    def _make_price_entry(
        self, request: RouteRequest, pres_fac: float
    ) -> Tuple:
        """Numpy-shaped price entry: the bucket kernels gather from
        arrays, and the bucket width rides along — the minimum
        additive price over non-sink nodes (the quantization
        contract: every hop advances ``f`` by at least one bucket)."""
        pn_np, pnA_np, static_set = self._price_arrays(
            request, pres_fac
        )
        return self._finish_price_entry(pn_np, pnA_np, static_set)

    def _finish_price_entry(
        self,
        pn_np: np.ndarray,
        pnA_np: Optional[np.ndarray],
        static_set: set,
    ) -> Tuple:
        """Lower node-level price vectors to the kernels' edge-level
        form: ``pe[edge]`` is the full additive cost of taking that
        edge, with the bit-affinity discount already resolved per
        edge and sink edges (plus the pad slot) priced +inf so they
        drop out of relaxation with no per-drain masking.  Built once
        per entry, amortized over every drain of every search that
        prices under it."""
        use_bit = pnA_np is not None
        static_lut = None
        n_edges = self._np_edge_dst.shape[0]
        pe = np.empty(n_edges + 1, np.float64)
        if use_bit:
            static_lut = np.zeros(self._n_bits + 1, np.bool_)
            static_lut[
                np.fromiter(static_set, np.int64, len(static_set))
            ] = True
            pe[:n_edges] = np.where(
                static_lut[self._np_edge_bit],
                pnA_np[self._np_edge_dst],
                pn_np[self._np_edge_dst],
            )
        else:
            pe[:n_edges] = pn_np[self._np_edge_dst]
        pe[:n_edges][self._edge_sink] = _INF
        pe[n_edges] = _INF
        floor = pnA_np if use_bit else pn_np
        nonsink = floor[self._nonsink_mask]
        min_price = (
            float(nonsink.min()) if nonsink.size else _MIN_DELTA
        )
        return (
            pn_np,
            pnA_np,
            static_lut,
            pe,
            max(min_price, _MIN_DELTA),
        )

    def _round_entry(self, modes, pres_fac: float) -> Tuple:
        """Shared ``(cost, overuse)`` vectors of one Jacobi round.

        During a round the background congestion is frozen and every
        routing net has been ripped up, so for a given activation set
        the occupancy term is the same for all of them:
        ``occ_after = occ + 1`` everywhere — the net being priced is
        absent from the background, so there is nothing to cancel —
        and the cost expression keeps the reference grouping
        ``(base + hist) * (1 + pres_fac * overuse)``.  Concurrent
        tasks share this cache; benign under the GIL (values are
        immutable once computed, a lost race only recomputes).
        """
        entry = self._round_cost.get(modes)
        if entry is None:
            cap = self._np_cap
            overuse = None
            for mode in modes:
                occ_after = self._occ[mode] + 1
                occ_after -= cap
                np.maximum(occ_after, 0, out=occ_after)
                overuse = (
                    occ_after if overuse is None
                    else overuse + occ_after
                )
            cost = (self._np_base + self._hist) * (
                1.0 + pres_fac * overuse
            )
            entry = (cost, overuse)
            # repro: allow[RPR201] benign race documented above
            self._round_cost[modes] = entry
        return entry

    def _price_entry_isolated(
        self,
        request: RouteRequest,
        pres_fac: float,
        local_refs: Dict[int, Dict[int, int]],
        local_bits: Dict[int, Dict[int, int]],
        noise01: np.ndarray,
    ) -> Tuple:
        """Price entry of one isolated per-net task.

        Starts from the round-shared cost vector and applies the two
        per-net parts — the cross-mode net-affinity discount (sourced
        from the task-local route tree: the shared state has no trace
        of this net) and the per-net noise — with exactly the
        reference expressions.  The shared vectors are never written;
        the affinity discount copies on write.
        """
        modes = request.modes
        cost, overuse = self._round_entry(modes, pres_fac)
        if self.net_affinity < 1.0:
            other: set = set()
            for mode in range(self.n_modes):
                if mode not in modes:
                    refs = local_refs.get(mode)
                    if refs:
                        other.update(refs.keys())
            if other:
                idx = np.fromiter(other, np.int64, len(other))
                sel = idx[
                    self._wire_mask[idx] & (overuse[idx] == 0)
                ]
                if sel.size:
                    cost = cost.copy()
                    cost[sel] *= self.net_affinity
        pn_np = cost + noise01
        pnA_np = None
        static_set: set = set()
        if self.bit_affinity < 1.0 and len(modes) < self.n_modes:
            static = None
            for mode in range(self.n_modes):
                if mode in modes:
                    continue
                bits = set(self._bit_refs[mode])
                local = local_bits.get(mode)
                if local:
                    bits.update(local)
                static = bits if static is None else static & bits
                if not static:
                    break
            static_set = static or set()
            if static_set:
                pnA_np = np.where(
                    overuse == 0,
                    cost * self.bit_affinity + noise01,
                    pn_np,
                )
        return self._finish_price_entry(pn_np, pnA_np, static_set)

    # -- live searches (commit-phase replays, bit-sharing sweeps) ------------

    def _route_connection(
        self, request: RouteRequest, pres_fac: float
    ) -> ConnectionRoute:
        timing = self.timing
        if timing is not None:
            crit = timing.criticality.get(request.conn_id, 0.0)
            if crit > 0.0:
                return self._route_connection_timed(
                    request, pres_fac, crit
                )
        entry = self._price_vectors(request, pres_fac)
        starts = self._seed(request)
        dist = self._bdist
        dist.fill(_INF)
        fq = self._bfq
        fq.fill(_INF)
        found = self._bucket_untimed(
            starts, request, entry, dist, fq,
            self._bparent_node, self._bparent_bit,
        )
        if not found:
            raise self._no_path(request)
        return self._backtrack_np(
            request, starts, self._bparent_node, self._bparent_bit
        )

    def _route_connection_timed(
        self, request: RouteRequest, pres_fac: float, crit: float
    ) -> ConnectionRoute:
        entry = self._price_vectors(request, pres_fac)
        starts = self._seed(request)
        dist = self._bdist
        dist.fill(_INF)
        fq = self._bfq
        fq.fill(_INF)
        found = self._bucket_timed(
            starts, request, entry, crit, dist, fq,
            self._bparent_node, self._bparent_bit,
        )
        if not found:
            raise self._no_path(request)
        return self._backtrack_np(
            request, starts, self._bparent_node, self._bparent_bit
        )

    def _bucket_untimed(
        self, starts, request, entry, dist, fq, parent_node,
        parent_bit, stats: Optional[RouterStats] = None,
    ) -> bool:
        pn, pnA, static_lut, pe, min_price = entry
        return bucket_search_untimed(
            starts,
            request.sink,
            self._bh_np(request.sink),
            pn,
            pnA,
            static_lut,
            pe,
            self._adj_e,
            self._pdst,
            self._pedge_src,
            self._pedge_bit,
            dist,
            fq,
            parent_node,
            parent_bit,
            min_price * self._delta_eff(),
            stats if stats is not None else self.stats,
        )

    def _bucket_timed(
        self, starts, request, entry, crit, dist, fq, parent_node,
        parent_bit, stats: Optional[RouterStats] = None,
    ) -> bool:
        pn, pnA, static_lut, pe, min_price = entry
        # Clamp keeps ``inv_crit * inf`` (sink/pad edge prices) a
        # well-defined +inf even at criticality 1.0; the price shift
        # is far below the bucket quantization.
        inv_crit = max(1.0 - crit, 1e-12)
        astar_fac = (
            inv_crit * self.astar_fac
            + crit * self.timing.model.wire_delay
        )
        # Blend of the two per-hop floors, mirroring the blended A*
        # weight: congestion advances by >= min_price per hop and
        # delay by >= the minimum node delay.
        delta = max(
            inv_crit * min_price + crit * self._min_edge_delay,
            _MIN_DELTA,
        )
        lookahead = self.lookahead
        if lookahead is not None:
            # Criticality blend of the unscaled lookahead vectors —
            # the numpy twin of the heap kernels' per-push blend.
            h = (inv_crit * self.astar_fac) * lookahead.cost_array(
                request.sink
            ) + crit * lookahead.delay_array(request.sink)
        else:
            h = astar_fac * self._man_np(request.sink)
        return bucket_search_timed(
            starts,
            request.sink,
            h,
            inv_crit,
            crit,
            self._np_nd,
            self._np_nds,
            pn,
            pnA,
            static_lut,
            pe,
            self._pde,
            self._adj_e,
            self._pdst,
            self._pedge_src,
            self._pedge_bit,
            dist,
            fq,
            parent_node,
            parent_bit,
            delta * self.delta_mult,
            stats if stats is not None else self.stats,
        )

    def _backtrack_np(
        self, request, starts, parent_node, parent_bit
    ) -> ConnectionRoute:
        """Backtrack over the numpy parent arrays, materializing
        plain ints (downstream code pickles, hashes and serializes
        the edge tuples)."""
        edges: List[Tuple[int, int, int]] = []
        node = request.sink
        while node not in starts:
            prev = int(parent_node[node])
            edges.append((prev, int(node), int(parent_bit[node])))
            node = prev
        edges.reverse()
        return ConnectionRoute(request, edges)

    # -- parallel-net negotiation --------------------------------------------

    def route(
        self, requests: Sequence[RouteRequest]
    ) -> RoutingResult:
        """Negotiate all requests with a parallel-net (Jacobi)
        iteration structure.

        Per iteration: rip up every dirty net first, route each in
        isolation against the frozen background (fanned over
        ``route_workers`` threads; pure tasks, so any worker count
        produces the same routes), commit in canonical net order,
        then replay nets that still collide — sequentially, in the
        same canonical order.  History/present-cost updates and the
        dirty-net selection mirror the sequential cores.

        ``partial_ripup`` is a no-op here: the Jacobi round prices
        every routing net against a background it is entirely absent
        from (``_round_entry``'s ``occ_after = occ + 1`` has nothing
        to cancel), so kept subtrees would be double-counted.  The
        batched core always rips whole nets.
        """
        for request in requests:
            if max(request.modes, default=0) >= self.n_modes:
                raise ValueError(
                    "request mode exceeds router's n_modes"
                )
        by_net, net_order = self._order_nets(requests)

        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            return self._negotiate(by_net, net_order)
        finally:
            if was_enabled:
                gc.enable()

    def _negotiate(
        self,
        by_net: Dict[str, List[RouteRequest]],
        net_order: List[str],
    ) -> RoutingResult:
        routes: Dict[int, ConnectionRoute] = {}
        pres_fac = self.pres_fac_first
        iteration = 0
        to_route: List[str] = list(net_order)
        stats = self.stats
        while iteration < self.max_iterations:
            iteration += 1
            stats.parallel_rounds += 1
            # Jacobi rip-up: every net of this round leaves the
            # congestion state *before* any of them reroutes, so the
            # background each isolated task prices against is frozen
            # and identical regardless of scheduling.
            for net in to_route:
                for request in by_net[net]:
                    old = routes.pop(request.conn_id, None)
                    if old is not None:
                        self._remove_route(old)
            # The frozen background also means the overuse/cost part
            # of the price vector is shared by every net of the round
            # (see _round_entry); drop the previous round's vectors.
            self._round_cost.clear()
            if iteration == 1:
                # Gauss-Seidel warm start: the first round every net
                # routes from scratch, so a Jacobi pass would have
                # them all pile onto the same cheap wires and collide
                # almost everywhere — each collider would then need a
                # sequential replay anyway, doubling the round.
                # Routing the first round live, in canonical order,
                # is the same work the sequential cores do and leaves
                # only real congestion for the parallel rounds.
                for net in to_route:
                    for request in by_net[net]:
                        route = self._route_connection(
                            request, pres_fac
                        )
                        self._add_route(route)
                        routes[request.conn_id] = route
            else:
                for net, net_routes, task_stats in self._route_nets(
                    to_route, by_net, pres_fac
                ):
                    stats.merge(task_stats)
                    for route in net_routes:
                        self._add_route(route)
                        routes[route.request.conn_id] = route
                # Deterministic conflict resolution: replay nets that
                # still cross overused nodes one by one, in canonical
                # order, against the *live* state (each replay sees
                # the previous replays' routes).  This Gauss-Seidel
                # repair is what lets the Jacobi rounds converge: two
                # nets that priced the same frozen background pick
                # the same cheap wires forever (history raises both
                # alternatives equally), and only a pass in which one
                # net sees the other's route breaks the tie.  Dirty
                # sets shrink fast after the warm start, so the
                # replay list stays short.
                congested_set = set(self._congested_nodes())
                if congested_set:
                    colliders = [
                        net
                        for net in to_route
                        if any(
                            congested_set.intersection(
                                routes[request.conn_id].nodes()
                            )
                            for request in by_net[net]
                        )
                    ]
                    for net in colliders:
                        congested_set = set(self._congested_nodes())
                        if not congested_set:
                            break
                        if not any(
                            congested_set.intersection(
                                routes[request.conn_id].nodes()
                            )
                            for request in by_net[net]
                        ):
                            continue
                        stats.conflict_replays += 1
                        for request in by_net[net]:
                            self._remove_route(
                                routes.pop(request.conn_id)
                            )
                        for request in by_net[net]:
                            route = self._route_connection(
                                request, pres_fac
                            )
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
            if len(to_route) > 1:
                shift = iteration % len(to_route)
                to_route = to_route[shift:] + to_route[:shift]
        raise RoutingError(
            f"unroutable after {self.max_iterations} iterations "
            f"({len(self._congested_nodes())} congested nodes)"
        )

    def _route_nets(
        self,
        to_route: List[str],
        by_net: Dict[str, List[RouteRequest]],
        pres_fac: float,
    ) -> List[Tuple[str, List[ConnectionRoute], RouterStats]]:
        """Route each net of the round in isolation; fan over the
        scheduler's thread mode when more than one worker (and net)
        is available.  Results come back in submission order either
        way."""
        if self.route_workers <= 1 or len(to_route) <= 1:
            return [
                (net, *self._route_net_isolated(by_net[net], pres_fac))
                for net in to_route
            ]
        from repro.exec.scheduler import Scheduler, Task

        scheduler = Scheduler(
            workers=self.route_workers, use_threads=True
        )
        results = scheduler.run(
            [
                Task(
                    fn=self._route_net_isolated,
                    args=(by_net[net], pres_fac),
                    name=net,
                )
                for net in to_route
            ]
        )
        return [
            (net, net_routes, task_stats)
            for net, (net_routes, task_stats) in zip(
                to_route, results
            )
        ]

    def _route_net_isolated(
        self,
        net_requests: List[RouteRequest],
        pres_fac: float,
    ) -> Tuple[List[ConnectionRoute], RouterStats]:
        """Route one net against the frozen background — pure.

        All shared state (occupancy arrays, history, other nets'
        references, bit references) is read-only here; the net's own
        growing route tree lives in task-local overlays threaded into
        :meth:`_price_arrays`, the price cache is task-local (same
        subset-invalidation rule as the live cache), and search
        scratch is task-local.  Purity is what makes the Jacobi round
        independent of worker count.
        """
        net = net_requests[0].net
        n = self._n_nodes
        dist = np.empty(n, dtype=np.float64)
        fq = np.empty(n, dtype=np.float64)
        parent_node = np.empty(n, dtype=np.int64)
        parent_bit = np.empty(n, dtype=np.int64)
        local_refs: Dict[int, Dict[int, int]] = {}
        local_bits: Dict[int, Dict[int, int]] = {}
        entries: Dict = {}
        stats = RouterStats()
        noise01 = 0.01 * (
            (
                (self._noise_mul ^ zlib.crc32(net.encode()))
                & 0xFFFF
            )
            / 0xFFFF
        )
        timing = self.timing

        def trunk(request) -> set:
            modes = sorted(request.modes)
            refs0 = local_refs.get(modes[0])
            if not refs0:
                return set()
            nodes = set(refs0)
            for mode in modes[1:]:
                refs = local_refs.get(mode)
                if not refs:
                    return set()
                nodes &= refs.keys()
            return nodes

        out: List[ConnectionRoute] = []
        for request in net_requests:
            modes = request.modes
            entry = entries.get(modes)
            if entry is None:
                entry = self._price_entry_isolated(
                    request, pres_fac, local_refs, local_bits,
                    noise01,
                )
                entries[modes] = entry
            starts = {request.source} | trunk(request)
            dist.fill(_INF)
            fq.fill(_INF)
            crit = 0.0
            if timing is not None:
                crit = timing.criticality.get(request.conn_id, 0.0)
            if crit > 0.0:
                found = self._bucket_timed(
                    starts, request, entry, crit, dist, fq,
                    parent_node, parent_bit, stats,
                )
            else:
                found = self._bucket_untimed(
                    starts, request, entry, dist, fq,
                    parent_node, parent_bit, stats,
                )
            if not found:
                raise self._no_path(request)
            route = self._backtrack_np(
                request, starts, parent_node, parent_bit
            )
            out.append(route)
            # Task-local bookkeeping + the same subset-safe price
            # invalidation as the live cache.
            for mode in modes:
                refs = local_refs.setdefault(mode, {})
                for node in route.nodes():
                    refs[node] = refs.get(node, 0) + 1
                bits = local_bits.setdefault(mode, {})
                for bit in route.bits():
                    bits[bit] = bits.get(bit, 0) + 1
            for key in [k for k in entries if not modes <= k]:
                del entries[key]
        return out, stats
