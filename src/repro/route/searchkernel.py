"""The search kernels behind the PathFinder router.

Every router entry point — MDR routing, TRoute, the bit-sharing
sweeps — searches through one of two kernel families:

``heap_search_untimed`` / ``heap_search_timed``
    The production core's binary-heap loops over precomputed price
    lists.  With an **empty** ``static_set`` the per-edge test ``bit
    >= 0 and bit in static_set`` is always false and the kernel
    evaluates the exact float expression of a loop without the
    bit-sharing discount.  They search only wire edges plus the
    target block's pin edges and seed only live nodes, which skips
    heap entries that could never relax anything.

``scalar_search``
    The scalar reference loop of
    :class:`~repro.route.router.ScalarPathFinderRouter` (the router
    object is duck-typed in), untimed at criticality 0 and timed
    above: every node is priced on first touch, one dict probe at a
    time.  It defines bit-exactness, and the equivalence tests hold
    both heap kernels to it decision for decision.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.arch.rrg import SINK as _SINK, WIRE as _WIRE

_NEG_INF = float("-inf")

#: Shared empty static-bit set: the price entry of a search with no
#: live bit-sharing discount, making the heap kernels evaluate the
#: exact expressions of a loop without the discount.
EMPTY_STATIC: frozenset = frozenset()


@dataclass
class RouterStats:
    """Profiling counters of the search kernels.

    Pass a ``RouterStats`` to the router's ``stats=`` keyword (or to
    :func:`~repro.route.troute.route_lut_circuit` /
    :func:`~repro.route.troute.route_tunable_circuit`); every search
    adds to it.  Pops differ between the production core and the
    scalar reference (the heap kernels skip dead-end pins and search
    shared connections with a larger, still consistent A* weight);
    searches and routes do not.
    """

    #: heap pops, including stale entries.
    pops: int = 0
    #: heap pushes, including the start seeds.
    pushes: int = 0
    #: nodes settled: pops that survive the staleness check and
    #: expand their fanout.
    settled: int = 0
    #: connection searches run.
    searches: int = 0


# -- scalar reference kernels ---------------------------------------------
#
# The router object is duck-typed in.  The kernels return the edge
# list of the found path, or None when the sink is unreachable (the
# caller owns the RoutingError message).


def scalar_search(
    router, request, pres_fac: float, crit: float = 0.0
) -> Optional[List[Tuple[int, int, int]]]:
    """Reference multi-source A*: the cost model of the router module
    docstring inlined into the relaxation loop, with the
    per-connection-constant parts hoisted out.

    At ``crit == 0`` (untimed) an edge costs ``cost + 0.01 * noise``
    and the A* weight is the router's affinity floor; ``router.timing``
    is never read.  Above 0 every edge is priced VPR-style as
    ``crit * delay + (1 - crit) * congestion`` with ``delay`` the
    DelayModel edge delay (destination-node intrinsic delay plus a
    switch delay when the edge carries a configuration bit), and the
    A* weight blends to ``inv_crit * astar_fac + crit * wire_delay``,
    which is not consistent for critical connections: a wire->IPIN
    hop adds less delay per Manhattan unit (``pin_delay +
    switch_delay``) than ``wire_delay``."""
    rrg = router.rrg
    target = request.sink
    node_x = rrg.node_x
    node_y = rrg.node_y
    tx, ty = node_x[target], node_y[target]
    net_salt = zlib.crc32(request.net.encode())
    net = request.net
    timed = crit > 0.0
    if timed:
        inv_crit = 1.0 - crit
        model = router.timing.model
        switch_delay = model.switch_delay
        node_delay = router._node_delay
        astar_fac = (
            inv_crit * router.astar_fac + crit * model.wire_delay
        )
    else:
        astar_fac = router.astar_fac
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
            # -- the cost model, inlined ----------------------------
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
            # Grouped as (cost + noise) before the add to g, exactly
            # like the production core's price lists: float addition
            # is not associative and a one-ULP difference flips
            # equal-cost tie-breaks.
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
            if timed:
                delay = node_delay[nxt]
                if bit >= 0:
                    delay += switch_delay
                ng = g + (inv_crit * congestion + crit * delay)
            else:
                ng = g + congestion
            # -------------------------------------------------------
            if dist_epoch[nxt] != epoch or ng < dist[nxt]:
                dist[nxt] = ng
                dist_epoch[nxt] = epoch
                parent_node[nxt] = node
                parent_bit[nxt] = bit
                n_pushes += 1
                dx = node_x[nxt] - tx
                if dx < 0:
                    dx = -dx
                dy = node_y[nxt] - ty
                if dy < 0:
                    dy = -dy
                heappush(heap, (ng + astar_fac * (dx + dy), ng, nxt))
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


# -- binary-heap kernels (production core) --------------------------------


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
    those pin edges (see ``PathFinderRouter._target_adjacency``).  Every other
    pin is a dead end, so it is never pushed, and a seed with no edge
    in this graph is never seeded.  ``dist`` is the caller's fresh
    ``[+inf] * n`` sentinel list (+inf = unseen, -inf = settled).
    With ``static_set`` empty the per-edge discount test is dead and
    the kernel is decision-identical to a loop without the discount;
    callers without a live discount pass ``pnA=pn`` and
    :data:`EMPTY_STATIC`.  ``h`` is the caller's per-target heuristic
    list, already scaled by the A* weight.  Returns whether *target*
    was reached (parents are valid then)."""
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
    stats: Optional[RouterStats] = None,
) -> bool:
    """Timed heap search: ``g + (inv_crit * price + crit * delay)``
    per edge with the per-push Manhattan heuristic (the
    criticality-scaled weight defeats caching), evaluated exactly as
    :func:`scalar_search` does above criticality 0.  Same search
    graph, seeding and ``pnA``/``static_set`` contract as
    :func:`heap_search_untimed`."""
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
                dx = node_x[nxt] - tx
                if dx < 0:
                    dx = -dx
                dy = node_y[nxt] - ty
                if dy < 0:
                    dy = -dy
                heappush(heap, (ng + astar_fac * (dx + dy), ng, nxt))
    if stats is not None:
        stats.searches += 1
        stats.pops += n_pops
        stats.pushes += n_pushes
        stats.settled += n_settled
    return found
