"""Router lookahead: precomputed admissible search lower bounds.

The PathFinder cores guide their A* searches with ``astar_fac *
manhattan`` — sound (every node beyond the frontier costs at least its
unit base cost) but loose: it prices a straight wire run and nothing
else, so the search pays nothing for the OPIN hop out of a block, the
IPIN/SINK hops into the target, the perimeter detours around pads, or
the fact that CLB output pins only reach the north/east channels.  VPR
ships a *router lookahead* for exactly this reason: a precomputed
cost-to-sink map that reflects the fabric's real connectivity cuts the
explored node count several-fold over plain Manhattan.

This module builds that map for the repo's RRG as a **quotient-graph
backward sweep**:

* Collapse the RRG onto meta-nodes ``(kind, x, y)`` — every real node
  maps to the meta-node of its kind at its coordinates, and a meta-edge
  exists wherever any real edge does.  Entering a real node costs at
  least its base cost (0 for SINKs, 1 otherwise) before congestion,
  history, noise and affinity scaling, so giving each meta-node the
  *minimum* base cost of its class makes any quotient path cost a lower
  bound on every real path it abstracts (a graph homomorphism only ever
  merges states and drops cost terms — it cannot raise the optimum).
* Run one backward Dijkstra per SINK meta-node over the reversed
  quotient, yielding the exact quotient cost-to-sink from every
  meta-node.
* Fold the per-pair distances into one table per node kind indexed by
  the **signed offset** ``(sink_x - x, sink_y - y)``, taking the
  minimum over all pairs at that offset.  Minimising over pairs keeps
  the table admissible for *every* real ``(node, target)`` pair while
  shrinking it to O(kinds * (2 nx + 3) * (2 ny + 3)) floats; boundary
  asymmetries (pads, the channel ring) simply make off-boundary entries
  a little conservative.

A second table with per-kind minimum *node delays* as weights bounds
the timed search's delay term the same way (built only when a
``DelayModel`` is supplied).  Both tables are **consistent**, not just
admissible: they are exact shortest-path distances of a graph whose
edge weights never exceed the real ones after the router's own
``astar_fac``/criticality scaling (see ``RouterLookahead``), so the
cores' settle-on-first-pop discipline stays sound.

``+inf`` entries mark (kind, offset) pairs with no quotient path — and
therefore no real path — which safely prunes provably dead nodes.

The raw :class:`LookaheadTables` are a pure function of the
architecture (plus the delay model), independent of circuits, seeds and
every congestion knob, so the flow memoizes them under a dedicated
``"lookahead"`` exec-cache stage keyed on the architecture fingerprint:
campaigns and warm reruns pay zero build cost.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arch.rrg import SINK, RoutingResourceGraph

try:  # numpy optional: the scalar reference must import without it.
    import numpy as np
except ImportError:  # pragma: no cover - exercised implicitly
    np = None  # type: ignore[assignment]

_INF = float("inf")

#: Per-target vector cache bound (floats across all cached lists);
#: evicted least-recently-used, mirroring the vectorized core's
#: heuristic cache budget.
_LK_CACHE_MAX_FLOATS = 2_000_000


@dataclass
class LookaheadTables:
    """Raw lookahead data — picklable for the exec stage cache.

    ``cost[kind]`` (and ``delay[kind]`` when built with a delay model)
    is a dense 2-D float64 array indexed ``[dx + offx, dy + offy]``
    with ``dx = sink_x - node_x`` (signed); entries are the minimum
    quotient cost/delay to reach *some* sink at that offset from
    *some* node of that kind, ``+inf`` when no pair at the offset has
    a path.
    """

    offx: int
    offy: int
    cost: Dict[int, "np.ndarray"]
    delay: Optional[Dict[int, "np.ndarray"]]


def _backward_dijkstra(
    t: int,
    rev: List[List[int]],
    weight: List[float],
    n_meta: int,
) -> List[float]:
    """Quotient cost-to-*t* from every meta-node.

    ``rev[w]`` lists the meta-nodes with an edge *into* ``w``;
    ``weight[w]`` is the cost of entering ``w``.  ``dist[u]`` is the
    minimum over quotient paths ``u -> ... -> t`` of the sum of
    entering costs of every node after ``u`` — exactly what an A*
    heuristic must bound (``g`` already covers entering ``u``).
    """
    dist = [_INF] * n_meta
    dist[t] = 0.0
    heap = [(0.0, t)]
    heappush = heapq.heappush
    heappop = heapq.heappop
    while heap:
        d, w = heappop(heap)
        if d > dist[w]:
            continue
        nd = d + weight[w]
        for u in rev[w]:
            if nd < dist[u]:
                dist[u] = nd
                heappush(heap, (nd, u))
    return dist


def build_lookahead(
    rrg: RoutingResourceGraph, model=None
) -> LookaheadTables:
    """One-shot backward sweep over the fabric (see module docstring).

    *model* is an optional :class:`~repro.timing.delay.DelayModel`;
    when given, the delay tables needed by timing-driven searches are
    built alongside the cost tables.
    """
    if np is None:  # pragma: no cover - numpy is a hard dep here
        raise RuntimeError("router lookahead requires numpy")
    kinds = rrg.node_kind
    xs = rrg.node_x
    ys = rrg.node_y
    n = rrg.n_nodes
    base = rrg.base_cost_array()

    # -- collapse to (kind, x, y) meta-nodes -----------------------------
    meta_of: Dict[Tuple[int, int, int], int] = {}
    mkind: List[int] = []
    mx: List[int] = []
    my: List[int] = []
    node_meta = [0] * n
    for i in range(n):
        key = (kinds[i], xs[i], ys[i])
        m = meta_of.get(key)
        if m is None:
            m = len(mkind)
            meta_of[key] = m
            mkind.append(kinds[i])
            mx.append(xs[i])
            my.append(ys[i])
        node_meta[i] = m
    n_meta = len(mkind)

    # Reversed quotient adjacency (deduplicated) and per-meta entering
    # weights: the minimum over the class keeps every quotient path a
    # lower bound on the real paths it abstracts.
    rev_sets: List[set] = [set() for _ in range(n_meta)]
    for u in range(n):
        mu = node_meta[u]
        for v, _bit in rrg.adjacency[u]:
            rev_sets[node_meta[v]].add(mu)
    rev = [sorted(s) for s in rev_sets]
    wcost = [_INF] * n_meta
    for i in range(n):
        m = node_meta[i]
        if base[i] < wcost[m]:
            wcost[m] = base[i]
    wdelay: Optional[List[float]] = None
    if model is not None:
        wdelay = [_INF] * n_meta
        for i in range(n):
            m = node_meta[i]
            d = model.node_delay(rrg, i)
            if d < wdelay[m]:
                wdelay[m] = d

    # -- sweep: one backward Dijkstra per sink meta-node ------------------
    offx = max(xs) if n else 0
    offy = max(ys) if n else 0
    dims = (2 * offx + 1, 2 * offy + 1)
    kinds_present = sorted(set(mkind))
    cost_tables = {
        k: np.full(dims, _INF, np.float64) for k in kinds_present
    }
    delay_tables = (
        {k: np.full(dims, _INF, np.float64) for k in kinds_present}
        if wdelay is not None
        else None
    )
    mkind_np = np.asarray(mkind, np.int64)
    mx_np = np.asarray(mx, np.int64)
    my_np = np.asarray(my, np.int64)
    kind_meta = {
        k: np.flatnonzero(mkind_np == k) for k in kinds_present
    }
    sink_metas = [m for m in range(n_meta) if mkind[m] == SINK]
    for t in sink_metas:
        tx, ty = mx[t], my[t]
        sweeps = [(_backward_dijkstra(t, rev, wcost, n_meta),
                   cost_tables)]
        if delay_tables is not None:
            sweeps.append(
                (_backward_dijkstra(t, rev, wdelay, n_meta),
                 delay_tables)
            )
        for dist, tables in sweeps:
            d = np.asarray(dist, np.float64)
            for kind, idx in kind_meta.items():
                sel = idx[np.isfinite(d[idx])]
                if not sel.size:
                    continue
                np.minimum.at(
                    tables[kind],
                    (tx - mx_np[sel] + offx, ty - my_np[sel] + offy),
                    d[sel],
                )
    return LookaheadTables(offx, offy, cost_tables, delay_tables)


class RouterLookahead:
    """Per-target heuristic vectors over :class:`LookaheadTables`.

    One instance serves every core: the scalar reference and the
    vectorized core read the *same* per-target Python list (one numpy
    gather + one scale multiply, cached LRU), so their searches stay
    bit-identical to each other with the lookahead enabled; the
    batched core reads the numpy arrays directly.

    Untimed searches use :meth:`cost_list_scaled` (pre-scaled by the
    router's ``astar_fac``, which already carries the affinity floor —
    the same scaling the Manhattan heuristic uses).
    Timed searches blend the *unscaled* cost and delay vectors per
    relaxation as ``inv_crit * astar_fac * cost + crit * delay``:
    caching unscaled vectors per target keeps one entry per target
    instead of one per (target, criticality).
    """

    def __init__(
        self, rrg: RoutingResourceGraph, tables: LookaheadTables
    ) -> None:
        if np is None:  # pragma: no cover - numpy is a hard dep here
            raise RuntimeError("router lookahead requires numpy")
        self.tables = tables
        self.rrg = rrg
        self._n = rrg.n_nodes
        self._np_x = np.asarray(rrg.node_x, np.int64)
        self._np_y = np.asarray(rrg.node_y, np.int64)
        kinds_np = np.asarray(rrg.node_kind, np.int64)
        self._kind_idx = {
            k: np.flatnonzero(kinds_np == k) for k in tables.cost
        }
        # One LRU over every cached per-target vector (lists and
        # arrays); hits re-append, inserts evict the front.
        self._cache: Dict[Tuple, object] = {}

    # -- cache ------------------------------------------------------------

    def _cached(self, key: Tuple, build):
        # Pop-based LRU refresh: the batched core's negotiation tasks
        # call this from worker threads, and pop-with-default plus
        # reinsert is race-safe under the GIL (plain del would raise
        # when two tasks refresh the same key).
        cache = self._cache
        value = cache.pop(key, None)
        if value is not None:
            cache[key] = value
            return value
        while (
            cache
            and (len(cache) + 1) * self._n > _LK_CACHE_MAX_FLOATS
        ):
            try:
                cache.pop(next(iter(cache)), None)
            except (StopIteration, RuntimeError):
                break
        value = build()
        cache[key] = value
        return value

    # -- gathers ----------------------------------------------------------

    def _gather(self, target: int, tables) -> "np.ndarray":
        tx = self.rrg.node_x[target]
        ty = self.rrg.node_y[target]
        offx = self.tables.offx
        offy = self.tables.offy
        out = np.empty(self._n, np.float64)
        for kind, idx in self._kind_idx.items():
            out[idx] = tables[kind][
                tx - self._np_x[idx] + offx,
                ty - self._np_y[idx] + offy,
            ]
        return out

    def _delay_tables(self):
        tables = self.tables.delay
        if tables is None:
            raise ValueError(
                "lookahead tables were built without a delay model; "
                "rebuild with build_lookahead(rrg, model) for "
                "timing-driven routing"
            )
        return tables

    def cost_array(self, target: int) -> "np.ndarray":
        """Unscaled per-node cost lower bound (numpy, cached)."""
        return self._cached(
            ("ca", target), lambda: self._gather(target, self.tables.cost)
        )

    def delay_array(self, target: int) -> "np.ndarray":
        """Unscaled per-node delay lower bound (numpy, cached)."""
        return self._cached(
            ("da", target),
            lambda: self._gather(target, self._delay_tables()),
        )

    def cost_list_scaled(
        self, target: int, fac: float
    ) -> List[float]:
        """``fac * cost_array(target)`` as a plain list — the untimed
        heuristic read by both the scalar and vectorized kernels."""

        def build():
            arr = self.cost_array(target)
            if fac == 0.0:
                # 0 * inf is NaN; an unscaled heuristic is just 0 on
                # every reachable node (and +inf keeps pruning).
                return np.where(np.isinf(arr), _INF, 0.0).tolist()
            return (fac * arr).tolist()

        return self._cached(("cs", target, fac), build)

    def cost_list(self, target: int) -> List[float]:
        """Unscaled cost vector as a plain list (timed searches)."""
        return self._cached(
            ("cl", target), lambda: self.cost_array(target).tolist()
        )

    def delay_list(self, target: int) -> List[float]:
        """Unscaled delay vector as a plain list (timed searches)."""
        return self._cached(
            ("dl", target), lambda: self.delay_array(target).tolist()
        )
