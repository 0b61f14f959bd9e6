"""The one search-kernel module behind every PathFinder core.

Before this module the repo carried three near-identical copies of the
connection-search loop: the scalar reference pair in
``route/router.py`` (untimed + timed, with the per-search price cache
inlined) and the four vectorized loops in ``route/vectorized.py``
(untimed/timed x with/without the bit-sharing discount).  TRoute
dispatches through :class:`~repro.route.router.PathFinderRouter`, so
unifying the loops here puts **every** router entry point — MDR
routing, TRoute, the bit-sharing sweeps — behind one kernel module,
and a new queue discipline lands in exactly one place.

Three kernel families live here:

``scalar_search`` / ``scalar_search_timed``
    The reference loops, moved verbatim from ``router.py`` (the
    router object is duck-typed in; the bodies are unchanged).  These
    define bit-exactness.

``heap_search_untimed`` / ``heap_search_timed``
    The vectorized core's binary-heap loops.  The with/without-bit
    variants collapsed into one kernel each: with an **empty**
    ``static_set`` the per-edge test ``bit >= 0 and bit in
    static_set`` is always false and the kernel evaluates the exact
    same float expression as the old no-bit loop — merging is
    decision-for-decision identical, which the equivalence suite
    (``tests/test_router_equivalence.py``) continues to assert.  They
    search only wire edges plus the target block's pin edges and seed
    only live nodes, which skips heap entries that could never relax
    anything.

``bucket_search_untimed`` / ``bucket_search_timed``
    The batched-wavefront engine: a bucket (delta-stepping) priority
    queue over the quantized ``f = g + h`` grid.  Each "pop" drains
    the entire lowest bucket and numpy prices the whole frontier in
    one shot — CSR edge expansion, cost blend, per-destination
    canonical minimum — instead of relaxing one edge at a time.

**Bucket quantization contract.**  The bucket width ``delta`` is the
minimum additive node price over non-sink nodes (timed: the
criticality blend of the minimum congestion price and the minimum
edge delay), so along any path every hop advances ``f`` by at least
one bucket.  Entries within one bucket settle together without
intra-bucket re-relaxation, so a settled label may exceed the true
optimum by up to ``delta`` per bucket boundary crossed — the batched
core therefore does **not** promise bit-identity with the scalar
reference; it is gated by the QoR campaign tolerances instead.  What
it does promise is determinism: bucket membership, drain order
(lowest bucket first) and the per-destination winner (lowest ``ng``,
then lowest source node, then lowest bit, via a stable lexsort) are
pure functions of the price state, independent of worker count,
scheduling or memory layout.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arch.rrg import SINK as _SINK, WIRE as _WIRE

try:  # numpy is optional at import time: the scalar reference path
    import numpy as np  # must stay importable without it.
except ImportError:  # pragma: no cover - exercised implicitly
    np = None  # type: ignore[assignment]

_INF = float("inf")
_NEG_INF = float("-inf")

#: Shared empty static-bit set: passed to the heap kernels when no
#: bit-sharing discount is live, making the merged kernels evaluate
#: the exact expressions of the old no-bit loops.
EMPTY_STATIC: frozenset = frozenset()


@dataclass
class RouterStats:
    """Profiling counters of every search kernel family.

    Filled by the scalar, heap and bucket kernels (pass a
    ``RouterStats`` to the router's ``stats=`` keyword; the batched
    core creates one unconditionally) and surfaced through the
    ``router_*`` phases of ``repro bench-exec`` (BENCH_exec.json
    schema 5), where the per-core pop counts attribute exactly what a
    tighter heuristic saves.  Plain ints so the object is trivially
    picklable and mergeable.
    """

    #: queue extractions: heap pops including stale entries; for the
    #: bucket kernels, nodes drained (one frontier counts its width).
    pops: int = 0
    #: queue insertions (heap pushes / bucket queue improvements),
    #: including the start seeds.
    pushes: int = 0
    #: nodes settled: pops that survive the staleness check and
    #: expand their fanout (bucket kernels settle whole frontiers).
    settled: int = 0
    #: bucket drains (the batched analogue of a heap pop).
    drains: int = 0
    #: connection searches run.
    searches: int = 0
    #: widest single drained frontier.
    max_frontier: int = 0
    #: sum of drained frontier widths (mean = frontier_nodes/drains).
    frontier_nodes: int = 0
    #: nets replayed by the deterministic conflict-resolution pass.
    conflict_replays: int = 0
    #: parallel negotiation rounds executed.
    parallel_rounds: int = 0

    def merge(self, other: "RouterStats") -> None:
        self.pops += other.pops
        self.pushes += other.pushes
        self.settled += other.settled
        self.drains += other.drains
        self.searches += other.searches
        self.max_frontier = max(self.max_frontier, other.max_frontier)
        self.frontier_nodes += other.frontier_nodes
        self.conflict_replays += other.conflict_replays
        self.parallel_rounds += other.parallel_rounds

    def as_dict(self) -> Dict[str, float]:
        return {
            "pops": self.pops,
            "pushes": self.pushes,
            "settled": self.settled,
            "drains": self.drains,
            "searches": self.searches,
            "max_frontier": self.max_frontier,
            "mean_frontier": (
                self.frontier_nodes / self.drains if self.drains else 0.0
            ),
            "conflict_replays": self.conflict_replays,
            "parallel_rounds": self.parallel_rounds,
        }


# -- scalar reference kernels ---------------------------------------------
#
# Moved verbatim from PathFinderRouter._route_connection /
# _route_connection_timed; the router object is duck-typed in.  The
# kernels return the edge list of the found path, or None when the
# sink is unreachable (the caller owns the RoutingError message).


def scalar_search(
    router, request, pres_fac: float
) -> Optional[List[Tuple[int, int, int]]]:
    """Reference multi-source A* (untimed): ``_node_cost`` inlined
    into the relaxation loop with the per-connection-constant parts
    hoisted out, so decisions are bit-identical to the pure cost
    model while avoiding a method call per scanned edge."""
    rrg = router.rrg
    target = request.sink
    node_x = rrg.node_x
    node_y = rrg.node_y
    tx, ty = node_x[target], node_y[target]
    net_salt = zlib.crc32(request.net.encode())
    astar_fac = router.astar_fac
    net = request.net
    # Lookahead heuristic: the same scaled per-target list the
    # vectorized kernel reads, so enabling it keeps the two cores
    # bit-identical to each other.
    lookahead = router.lookahead
    lk = (
        lookahead.cost_list_scaled(target, astar_fac)
        if lookahead is not None
        else None
    )
    stats = router.stats
    n_pops = n_pushes = n_settled = 0

    # Per-connection-constant context of the cost model.
    kinds = rrg.node_kind
    caps = rrg.node_capacity
    bases = router._base
    hist = router._hist
    refs_by_mode = [
        (router._occ[mode], router._net_mode_refs.get((net, mode)))
        for mode in request.modes
    ]
    net_affinity = router.net_affinity
    use_net_affinity = net_affinity < 1.0
    other_refs = (
        [
            refs
            for mode in range(router.n_modes)
            if mode not in request.modes
            and (refs := router._net_mode_refs.get((net, mode)))
        ]
        if use_net_affinity
        else []
    )
    bit_affinity = router.bit_affinity
    other_bit_refs = (
        [
            router._bit_refs[mode]
            for mode in range(router.n_modes)
            if mode not in request.modes
        ]
        if bit_affinity < 1.0
        else []
    )
    use_bit_affinity = bool(other_bit_refs)

    row_ptr = router._row_ptr
    edge_dst = router._edge_dst
    edge_bit = router._edge_bit
    dist = router._dist
    dist_epoch = router._dist_epoch
    visited = router._visited_epoch
    parent_node = router._parent_node
    parent_bit = router._parent_bit
    price = router._price
    price_over0 = router._price_over0
    price_noise = router._price_noise
    price_epoch = router._price_epoch
    router._epoch += 1
    epoch = router._epoch
    heappush = heapq.heappush
    heappop = heapq.heappop

    # Multi-source A*: the net's existing route tree (nodes it
    # occupies in every requested mode) is free to start from, so
    # connections naturally branch off their net's trunk.  The
    # weighted Manhattan bound is consistent only up to weight
    # floor/2 (a switch-box turn closes 2 units in one hop); see the
    # router module docstring for which searches that covers.
    starts = {request.source}
    starts.update(router._trunk_nodes(request))
    heap: List[Tuple[float, float, int]] = []
    for start in starts:
        dist[start] = 0.0
        dist_epoch[start] = epoch
        if lk is not None:
            heappush(heap, (lk[start], 0.0, start))
        else:
            dx = node_x[start] - tx
            if dx < 0:
                dx = -dx
            dy = node_y[start] - ty
            if dy < 0:
                dy = -dy
            heappush(heap, (astar_fac * (dx + dy), 0.0, start))
    n_pushes += len(heap)
    found = target in starts
    while heap:
        _f, g, node = heappop(heap)
        n_pops += 1
        if visited[node] == epoch:
            continue
        visited[node] = epoch
        n_settled += 1
        if node == target:
            found = True
            break
        for e in range(row_ptr[node], row_ptr[node + 1]):
            nxt = edge_dst[e]
            if visited[nxt] == epoch:
                continue
            # -- _node_cost, inlined --------------------------------
            # The bit-independent part of a node's price is fixed
            # for the whole search; compute it on first touch and
            # reuse it for every further incoming edge.
            if price_epoch[nxt] == epoch:
                cost = price[nxt]
                overuse_zero = price_over0[nxt]
                noise = price_noise[nxt]
            else:
                kind = kinds[nxt]
                if kind == _SINK and nxt != target:
                    visited[nxt] = epoch  # never enter this sink
                    continue
                cap = caps[nxt]
                overuse = 0
                for occ, refs in refs_by_mode:
                    occ_after = occ[nxt] + (
                        0 if refs is not None and nxt in refs
                        else 1
                    )
                    if occ_after > cap:
                        overuse += occ_after - cap
                cost = (bases[nxt] + hist[nxt]) * (
                    1.0 + pres_fac * overuse
                )
                if (
                    use_net_affinity
                    and kind == _WIRE
                    and overuse == 0
                ):
                    for refs in other_refs:
                        if nxt in refs:
                            cost *= net_affinity
                            break
                noise = (
                    (net_salt ^ (nxt * 0x9E3779B9)) & 0xFFFF
                ) / 0xFFFF
                overuse_zero = overuse == 0
                price[nxt] = cost
                price_over0[nxt] = overuse_zero
                price_noise[nxt] = noise
                price_epoch[nxt] = epoch
            bit = edge_bit[e]
            if use_bit_affinity and bit >= 0 and overuse_zero:
                bit_cost = cost
                for bit_refs in other_bit_refs:
                    if not bit_refs.get(bit):
                        break
                else:
                    bit_cost = cost * bit_affinity
                # Grouped exactly as the reference _node_cost
                # (g + (cost + noise)): float addition is not
                # associative and a one-ULP difference flips
                # equal-cost tie-breaks.
                ng = g + (bit_cost + 0.01 * noise)
            else:
                ng = g + (cost + 0.01 * noise)
            # -------------------------------------------------------
            if dist_epoch[nxt] != epoch or ng < dist[nxt]:
                dist[nxt] = ng
                dist_epoch[nxt] = epoch
                parent_node[nxt] = node
                parent_bit[nxt] = bit
                n_pushes += 1
                if lk is not None:
                    heappush(heap, (ng + lk[nxt], ng, nxt))
                else:
                    dx = node_x[nxt] - tx
                    if dx < 0:
                        dx = -dx
                    dy = node_y[nxt] - ty
                    if dy < 0:
                        dy = -dy
                    heappush(
                        heap, (ng + astar_fac * (dx + dy), ng, nxt)
                    )
    if stats is not None:
        stats.searches += 1
        stats.pops += n_pops
        stats.pushes += n_pushes
        stats.settled += n_settled
    if not found:
        return None
    edges: List[Tuple[int, int, int]] = []
    node = target
    while node not in starts:
        edges.append((parent_node[node], node, parent_bit[node]))
        node = parent_node[node]
    edges.reverse()
    return edges


def scalar_search_timed(
    router, request, pres_fac: float, crit: float
) -> Optional[List[Tuple[int, int, int]]]:
    """Timed twin of :func:`scalar_search`.

    Identical search structure (same scratch arrays, same congestion
    pricing and per-node cache, same trunk seeding), but every edge
    is priced VPR-style as ``crit * delay + (1 - crit) * congestion``
    with ``delay`` the DelayModel edge delay (destination-node
    intrinsic delay plus a switch delay when the edge carries a
    configuration bit).  The A* weight blends to ``inv_crit *
    astar_fac + crit * wire_delay``, which is not consistent for
    critical connections: a wire->IPIN hop adds less delay per
    Manhattan unit (``pin_delay + switch_delay``) than
    ``wire_delay``."""
    rrg = router.rrg
    target = request.sink
    node_x = rrg.node_x
    node_y = rrg.node_y
    tx, ty = node_x[target], node_y[target]
    net_salt = zlib.crc32(request.net.encode())
    net = request.net
    inv_crit = 1.0 - crit
    model = router.timing.model
    switch_delay = model.switch_delay
    node_delay = router._node_delay
    astar_fac = (
        inv_crit * router.astar_fac + crit * model.wire_delay
    )
    # Lookahead: blend the unscaled cost/delay lower-bound vectors per
    # push — identical expression (and grouping) to the heap kernel's,
    # so both cores stay bit-identical with the lookahead on.
    lookahead = router.lookahead
    if lookahead is not None:
        lkc = lookahead.cost_list(target)
        lkd = lookahead.delay_list(target)
        lk_a = inv_crit * router.astar_fac
        lk_b = crit
    else:
        lkc = lkd = None
        lk_a = lk_b = 0.0
    stats = router.stats
    n_pops = n_pushes = n_settled = 0

    kinds = rrg.node_kind
    caps = rrg.node_capacity
    bases = router._base
    hist = router._hist
    refs_by_mode = [
        (router._occ[mode], router._net_mode_refs.get((net, mode)))
        for mode in request.modes
    ]
    net_affinity = router.net_affinity
    use_net_affinity = net_affinity < 1.0
    other_refs = (
        [
            refs
            for mode in range(router.n_modes)
            if mode not in request.modes
            and (refs := router._net_mode_refs.get((net, mode)))
        ]
        if use_net_affinity
        else []
    )
    bit_affinity = router.bit_affinity
    other_bit_refs = (
        [
            router._bit_refs[mode]
            for mode in range(router.n_modes)
            if mode not in request.modes
        ]
        if bit_affinity < 1.0
        else []
    )
    use_bit_affinity = bool(other_bit_refs)

    row_ptr = router._row_ptr
    edge_dst = router._edge_dst
    edge_bit = router._edge_bit
    dist = router._dist
    dist_epoch = router._dist_epoch
    visited = router._visited_epoch
    parent_node = router._parent_node
    parent_bit = router._parent_bit
    price = router._price
    price_over0 = router._price_over0
    price_noise = router._price_noise
    price_epoch = router._price_epoch
    router._epoch += 1
    epoch = router._epoch
    heappush = heapq.heappush
    heappop = heapq.heappop

    starts = {request.source}
    starts.update(router._trunk_nodes(request))
    heap: List[Tuple[float, float, int]] = []
    for start in starts:
        dist[start] = 0.0
        dist_epoch[start] = epoch
        if lkc is not None:
            heappush(
                heap,
                (lk_a * lkc[start] + lk_b * lkd[start], 0.0, start),
            )
        else:
            dx = node_x[start] - tx
            if dx < 0:
                dx = -dx
            dy = node_y[start] - ty
            if dy < 0:
                dy = -dy
            heappush(heap, (astar_fac * (dx + dy), 0.0, start))
    n_pushes += len(heap)
    found = target in starts
    while heap:
        _f, g, node = heappop(heap)
        n_pops += 1
        if visited[node] == epoch:
            continue
        visited[node] = epoch
        n_settled += 1
        if node == target:
            found = True
            break
        for e in range(row_ptr[node], row_ptr[node + 1]):
            nxt = edge_dst[e]
            if visited[nxt] == epoch:
                continue
            # Congestion price: same per-node cache and the same
            # arithmetic as the untimed loop.
            if price_epoch[nxt] == epoch:
                cost = price[nxt]
                overuse_zero = price_over0[nxt]
                noise = price_noise[nxt]
            else:
                kind = kinds[nxt]
                if kind == _SINK and nxt != target:
                    visited[nxt] = epoch
                    continue
                cap = caps[nxt]
                overuse = 0
                for occ, refs in refs_by_mode:
                    occ_after = occ[nxt] + (
                        0 if refs is not None and nxt in refs
                        else 1
                    )
                    if occ_after > cap:
                        overuse += occ_after - cap
                cost = (bases[nxt] + hist[nxt]) * (
                    1.0 + pres_fac * overuse
                )
                if (
                    use_net_affinity
                    and kind == _WIRE
                    and overuse == 0
                ):
                    for refs in other_refs:
                        if nxt in refs:
                            cost *= net_affinity
                            break
                noise = (
                    (net_salt ^ (nxt * 0x9E3779B9)) & 0xFFFF
                ) / 0xFFFF
                overuse_zero = overuse == 0
                price[nxt] = cost
                price_over0[nxt] = overuse_zero
                price_noise[nxt] = noise
                price_epoch[nxt] = epoch
            bit = edge_bit[e]
            if use_bit_affinity and bit >= 0 and overuse_zero:
                congestion = cost
                for bit_refs in other_bit_refs:
                    if not bit_refs.get(bit):
                        break
                else:
                    congestion = cost * bit_affinity
                congestion += 0.01 * noise
            else:
                congestion = cost + 0.01 * noise
            delay = node_delay[nxt]
            if bit >= 0:
                delay += switch_delay
            ng = g + (inv_crit * congestion + crit * delay)
            if dist_epoch[nxt] != epoch or ng < dist[nxt]:
                dist[nxt] = ng
                dist_epoch[nxt] = epoch
                parent_node[nxt] = node
                parent_bit[nxt] = bit
                n_pushes += 1
                if lkc is not None:
                    heappush(
                        heap,
                        (
                            ng
                            + (lk_a * lkc[nxt] + lk_b * lkd[nxt]),
                            ng,
                            nxt,
                        ),
                    )
                else:
                    dx = node_x[nxt] - tx
                    if dx < 0:
                        dx = -dx
                    dy = node_y[nxt] - ty
                    if dy < 0:
                        dy = -dy
                    heappush(
                        heap, (ng + astar_fac * (dx + dy), ng, nxt)
                    )
    if stats is not None:
        stats.searches += 1
        stats.pops += n_pops
        stats.pushes += n_pushes
        stats.settled += n_settled
    if not found:
        return None
    edges: List[Tuple[int, int, int]] = []
    node = target
    while node not in starts:
        edges.append((parent_node[node], node, parent_bit[node]))
        node = parent_node[node]
    edges.reverse()
    return edges


# -- binary-heap kernels (vectorized core) --------------------------------


def heap_search_untimed(
    starts,
    target: int,
    h: List[float],
    pn: List[float],
    pnA: List[float],
    static_set,
    nbr,
    tadj,
    dist: List[float],
    parent_node: List[int],
    parent_bit: List[int],
    stats: Optional[RouterStats] = None,
) -> bool:
    """Untimed heap search over precomputed price lists.

    The search graph is *target*'s: ``nbr`` holds every node's
    wire-bound edges and ``tadj`` replaces them, for the few nodes
    with an edge toward the target's own pins, by the same edges plus
    those pin edges (see ``VectorizedPathFinderRouter``).  Every other
    pin is a dead end, so it is never pushed, and a seed with no edge
    in this graph is never seeded.  ``dist`` is the caller's fresh
    ``[+inf] * n`` sentinel list (+inf = unseen, -inf = settled).
    With ``static_set`` empty the per-edge discount test is dead and
    the kernel is decision-identical to the historical no-bit loop;
    callers without a live discount pass ``pnA=pn`` and
    :data:`EMPTY_STATIC`.  ``h`` is whatever per-target heuristic list
    the caller precomputed (Manhattan or lookahead) — the kernel is
    agnostic.  Returns whether *target* was reached (parents are
    valid then)."""
    heappush = heapq.heappush
    heappop = heapq.heappop
    neg_inf = _NEG_INF
    n_pops = n_pushes = n_settled = 0

    heap: List[Tuple[float, float, int]] = []
    for start in starts:
        if not (nbr[start] or start in tadj or start == target):
            continue
        dist[start] = 0.0
        heappush(heap, (h[start], 0.0, start))
    n_pushes += len(heap)
    found = target in starts
    while heap:
        _f, g, node = heappop(heap)
        n_pops += 1
        if dist[node] == neg_inf:
            continue
        dist[node] = neg_inf
        n_settled += 1
        if node == target:
            found = True
            break
        for nxt, bit in tadj.get(node) or nbr[node]:
            if bit >= 0 and bit in static_set:
                ng = g + pnA[nxt]
            else:
                ng = g + pn[nxt]
            if ng < dist[nxt]:
                dist[nxt] = ng
                parent_node[nxt] = node
                parent_bit[nxt] = bit
                n_pushes += 1
                heappush(heap, (ng + h[nxt], ng, nxt))
    if stats is not None:
        stats.searches += 1
        stats.pops += n_pops
        stats.pushes += n_pushes
        stats.settled += n_settled
    return found


def heap_search_timed(
    starts,
    target: int,
    node_x,
    node_y,
    astar_fac: float,
    inv_crit: float,
    crit: float,
    nd: List[float],
    nds: List[float],
    pn: List[float],
    pnA: List[float],
    static_set,
    nbr,
    tadj,
    dist: List[float],
    parent_node: List[int],
    parent_bit: List[int],
    lkc: Optional[List[float]] = None,
    lkd: Optional[List[float]] = None,
    lk_a: float = 0.0,
    lk_b: float = 0.0,
    stats: Optional[RouterStats] = None,
) -> bool:
    """Timed heap search: ``g + (inv_crit * price + crit * delay)``
    per edge with the per-push Manhattan heuristic (the
    criticality-scaled weight defeats caching).  With a lookahead
    (``lkc``/``lkd`` unscaled cost/delay vectors) the heuristic is
    the blend ``lk_a * lkc + lk_b * lkd`` instead — the exact
    expression :func:`scalar_search_timed` evaluates, preserving
    scalar/vectorized bit-identity.  Same search graph, seeding and
    merged-variant contract as :func:`heap_search_untimed`."""
    tx, ty = node_x[target], node_y[target]
    heappush = heapq.heappush
    heappop = heapq.heappop
    neg_inf = _NEG_INF
    n_pops = n_pushes = n_settled = 0

    heap: List[Tuple[float, float, int]] = []
    for start in starts:
        if not (nbr[start] or start in tadj or start == target):
            continue
        dist[start] = 0.0
        if lkc is not None:
            heappush(
                heap,
                (lk_a * lkc[start] + lk_b * lkd[start], 0.0, start),
            )
        else:
            dx = node_x[start] - tx
            if dx < 0:
                dx = -dx
            dy = node_y[start] - ty
            if dy < 0:
                dy = -dy
            heappush(heap, (astar_fac * (dx + dy), 0.0, start))
    n_pushes += len(heap)
    found = target in starts
    while heap:
        _f, g, node = heappop(heap)
        n_pops += 1
        if dist[node] == neg_inf:
            continue
        dist[node] = neg_inf
        n_settled += 1
        if node == target:
            found = True
            break
        for nxt, bit in tadj.get(node) or nbr[node]:
            if bit < 0:
                ng = g + (inv_crit * pn[nxt] + crit * nd[nxt])
            elif bit in static_set:
                ng = g + (inv_crit * pnA[nxt] + crit * nds[nxt])
            else:
                ng = g + (inv_crit * pn[nxt] + crit * nds[nxt])
            if ng < dist[nxt]:
                dist[nxt] = ng
                parent_node[nxt] = node
                parent_bit[nxt] = bit
                n_pushes += 1
                if lkc is not None:
                    heappush(
                        heap,
                        (
                            ng
                            + (lk_a * lkc[nxt] + lk_b * lkd[nxt]),
                            ng,
                            nxt,
                        ),
                    )
                else:
                    dx = node_x[nxt] - tx
                    if dx < 0:
                        dx = -dx
                    dy = node_y[nxt] - ty
                    if dy < 0:
                        dy = -dy
                    heappush(
                        heap, (ng + astar_fac * (dx + dy), ng, nxt)
                    )
    if stats is not None:
        stats.searches += 1
        stats.pops += n_pops
        stats.pushes += n_pushes
        stats.settled += n_settled
    return found

# -- bucket (delta-stepping) kernels --------------------------------------
#
# State per search: ``dist`` and ``fq`` are float64 arrays pre-filled
# +inf by the caller, ``parent_node``/``parent_bit`` int64 arrays.
# ``dist`` holds the tentative label (+inf unseen, -inf settled);
# ``fq`` is the *dense priority queue*: ``fq[node]`` is the queued
# node's f-value (``g + h``), +inf when the node is not queued.  A
# drain is three whole-array operations — ``fq.min()``, a threshold
# compare ``fq <= min + delta``, ``flatnonzero`` — and an improvement
# simply overwrites ``fq[dst]`` in place, so there is no pending
# pool, no concatenation and no stale entries at all.  This is
# delta-stepping with the bucket boundary re-anchored at the live
# minimum: every settled label is within ``delta`` of the true
# optimum per bucket crossing (the quantization contract), and the
# dense queue makes a drain O(n_nodes) flat work, which for routing
# graphs of a few thousand nodes is cheaper than any sparse pool
# bookkeeping.
#
# The expansion side works on a *padded adjacency matrix*: ``adj_e``
# is ``(n_nodes, max_fanout)`` of edge ids, padded with the sentinel
# id ``n_edges``, so expanding a frontier is a single 2-D gather with
# no ragged CSR arithmetic.  Prices are *edge-indexed*: ``pe[edge]``
# is the full additive cost of taking that edge (bit-affinity
# discount already resolved per edge, sink edges and the pad slot
# priced +inf), built once per price entry and reused by every drain
# of every search under that entry.  Pad and sink edges therefore
# relax to +inf and drop out in the ordinary ``ng < dist`` filter —
# no per-drain masking at all.  Edges into the search target are the
# one exception (the only sink that must stay reachable): those rows
# are repriced from the node-level vectors in a tiny fix-up.
#
# Termination prunes by the target bound: once the target's
# tentative label is within ``delta`` of the queue minimum it can
# only improve by less than the quantization the contract already
# allows, so the search stops, and pushes with ``f`` beyond the
# current target label are dropped (they could never contribute a
# better target path with an admissible heuristic).


def bucket_search_untimed(
    starts,
    target: int,
    h,
    pn,
    pnA,
    static_lut,
    pe,
    adj_e,
    pdst,
    pedge_src,
    pedge_bit,
    dist,
    fq,
    parent_node,
    parent_bit,
    delta: float,
    stats: RouterStats,
) -> bool:
    """Batched-wavefront untimed search.

    All graph and price inputs are numpy arrays (``h`` already scaled
    by the A* weight).  ``pe`` is the edge-indexed price vector of
    the live price entry; ``pn``/``pnA``/``static_lut`` are its
    node-level sources, used only to reprice edges into the target.
    Each iteration drains one frontier whole: one settle write, one
    padded-adjacency gather and one price/relaxation pass over every
    outgoing edge.  Ties between edges improving the same destination
    go to the lowest ``ng`` then the lowest edge id — a pure function
    of the inputs, so results are independent of worker count and
    identical warm or cold."""
    stats.searches += 1
    if target in starts:
        return True
    s = np.fromiter(starts, np.int64, len(starts))
    dist[s] = 0.0
    fq[s] = h[s]
    stats.pushes += s.shape[0]
    inf = _INF
    neg_inf = _NEG_INF
    while True:
        fmin = fq.min()
        if fmin == inf:
            break
        if dist[target] <= fmin + delta:
            return True
        nodes = np.flatnonzero(fq <= fmin + delta)
        gs = dist[nodes]
        fq[nodes] = inf
        dist[nodes] = neg_inf
        width = nodes.shape[0]
        stats.pops += width
        stats.settled += width
        stats.drains += 1
        stats.frontier_nodes += width
        if width > stats.max_frontier:
            stats.max_frontier = width
        # Padded-adjacency expansion: one 2-D gather, one broadcast
        # add; pad and sink edges price +inf and fall out of the
        # ``better`` filter on their own.
        e2 = adj_e[nodes]
        ng = (gs[:, None] + pe[e2].reshape(e2.shape)).ravel()
        e = e2.ravel()
        dst = pdst[e]
        tm = dst == target
        if tm.any():
            ti = np.flatnonzero(tm)
            if pnA is not None:
                add_t = np.where(
                    static_lut[pedge_bit[e[ti]]],
                    pnA[target],
                    pn[target],
                )
            else:
                add_t = pn[target]
            ng[ti] = gs[ti // e2.shape[1]] + add_t
        better = ng < dist[dst]
        if not better.any():
            continue
        e = e[better]
        ng = ng[better]
        dst = dst[better]
        # Canonical per-destination winner: lowest ng, then lowest
        # edge id (edge ids order by source node then adjacency
        # position, so the rule is a pure function of the graph).
        order = np.lexsort((e, ng, dst))
        dst = dst[order]
        first = np.empty(dst.shape[0], np.bool_)
        first[0] = True
        np.not_equal(dst[1:], dst[:-1], out=first[1:])
        sel = order[first]
        dst = dst[first]
        ng = ng[sel]
        e = e[sel]
        dist[dst] = ng
        parent_node[dst] = pedge_src[e]
        parent_bit[dst] = pedge_bit[e]
        fnew = ng + h[dst]
        dt = dist[target]
        if dt < inf:
            qm = fnew < dt
            dst = dst[qm]
            fq[dst] = fnew[qm]
        else:
            fq[dst] = fnew
        stats.pushes += dst.shape[0]
    return dist[target] != _INF


def bucket_search_timed(
    starts,
    target: int,
    h,
    inv_crit: float,
    crit: float,
    nd,
    nds,
    pn,
    pnA,
    static_lut,
    pe,
    pde,
    adj_e,
    pdst,
    pedge_src,
    pedge_bit,
    dist,
    fq,
    parent_node,
    parent_bit,
    delta: float,
    stats: RouterStats,
) -> bool:
    """Timed twin of :func:`bucket_search_untimed`: the edge cost is
    the criticality blend ``inv_crit * price + crit * delay`` with
    ``pde`` the edge-indexed delay vector (switch-inclusive on
    bit-carrying edges, +inf on the pad slot); ``h`` is the Manhattan
    vector already scaled by the blended A* weight."""
    stats.searches += 1
    if target in starts:
        return True
    s = np.fromiter(starts, np.int64, len(starts))
    dist[s] = 0.0
    fq[s] = h[s]
    stats.pushes += s.shape[0]
    inf = _INF
    neg_inf = _NEG_INF
    while True:
        fmin = fq.min()
        if fmin == inf:
            break
        if dist[target] <= fmin + delta:
            return True
        nodes = np.flatnonzero(fq <= fmin + delta)
        gs = dist[nodes]
        fq[nodes] = inf
        dist[nodes] = neg_inf
        width = nodes.shape[0]
        stats.pops += width
        stats.settled += width
        stats.drains += 1
        stats.frontier_nodes += width
        if width > stats.max_frontier:
            stats.max_frontier = width
        e2 = adj_e[nodes]
        e = e2.ravel()
        cost = inv_crit * pe[e] + crit * pde[e]
        ng = (gs[:, None] + cost.reshape(e2.shape)).ravel()
        dst = pdst[e]
        tm = dst == target
        if tm.any():
            ti = np.flatnonzero(tm)
            bits_t = pedge_bit[e[ti]]
            if pnA is not None:
                cong_t = np.where(
                    static_lut[bits_t], pnA[target], pn[target]
                )
            else:
                cong_t = pn[target]
            delay_t = np.where(
                bits_t >= 0, nds[target], nd[target]
            )
            ng[ti] = gs[ti // e2.shape[1]] + (
                inv_crit * cong_t + crit * delay_t
            )
        better = ng < dist[dst]
        if not better.any():
            continue
        e = e[better]
        ng = ng[better]
        dst = dst[better]
        order = np.lexsort((e, ng, dst))
        dst = dst[order]
        first = np.empty(dst.shape[0], np.bool_)
        first[0] = True
        np.not_equal(dst[1:], dst[:-1], out=first[1:])
        sel = order[first]
        dst = dst[first]
        ng = ng[sel]
        e = e[sel]
        dist[dst] = ng
        parent_node[dst] = pedge_src[e]
        parent_bit[dst] = pedge_bit[e]
        fnew = ng + h[dst]
        dt = dist[target]
        if dt < inf:
            qm = fnew < dt
            dst = dst[qm]
            fq[dst] = fnew[qm]
        else:
            fq[dst] = fnew
        stats.pushes += dst.shape[0]
    return dist[target] != _INF
