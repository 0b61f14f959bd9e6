"""Bounding-box wire-length cost (VPR's linear congestion cost).

The placement cost of a net is ``q(n) * (bb_width + bb_height)`` where
``q(n)`` compensates for the underestimation of the half-perimeter
metric on multi-terminal nets (Cheng's correction factors, as tabulated
in VPR).  The same estimator is used by the conventional placer, by
TPlace, and — per the paper's Section III-B — by the wire-length
optimisation variant of the combined placement, which is exactly what
lets combined placement "assess the wire usage of the Tunable circuit".

All of them compute it through one fold, :func:`bounding_box_cost`,
over the integer site ids of :mod:`repro.place.state`;
:func:`net_bounding_box_cost` is the same fold over position tuples.
There is no second copy of the arithmetic to keep in step, so the
placers' incremental net-cost caches always equal a from-scratch
recount.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

# VPR's cross_count table: expected wiring overhead vs half-perimeter
# for nets with 1..50 terminals.
_CROSS_COUNT = [
    1.0, 1.0, 1.0, 1.0828, 1.1536, 1.2206, 1.2823, 1.3385, 1.3991,
    1.4493, 1.4974, 1.5455, 1.5937, 1.6418, 1.6899, 1.7304, 1.7709,
    1.8114, 1.8519, 1.8924, 1.9288, 1.9652, 2.0015, 2.0379, 2.0743,
    2.1061, 2.1379, 2.1698, 2.2016, 2.2334, 2.2646, 2.2958, 2.3271,
    2.3583, 2.3895, 2.4187, 2.4479, 2.4772, 2.5064, 2.5356, 2.5610,
    2.5864, 2.6117, 2.6371, 2.6625, 2.6887, 2.7148, 2.7410, 2.7671,
    2.7933,
]


def q_factor(n_terminals: int) -> float:
    """Fanout correction factor for a net with *n_terminals* pins."""
    if n_terminals <= 0:
        return 0.0
    if n_terminals <= 50:
        return _CROSS_COUNT[n_terminals - 1]
    return 2.7933 + 0.02616 * (n_terminals - 50)


def bounding_box(
    positions: Sequence[Tuple[int, int]]
) -> Tuple[int, int, int, int]:
    """(xmin, ymin, xmax, ymax) of terminal positions."""
    xs = [p[0] for p in positions]
    ys = [p[1] for p in positions]
    return (min(xs), min(ys), max(xs), max(ys))


def bounding_box_cost(
    cells: Sequence[int],
    q: float,
    site_of: Sequence[int],
    site_x: Sequence[int],
    site_y: Sequence[int],
) -> float:
    """``q * (bb_width + bb_height)`` of *cells* at their sites.

    ``site_of[cell]`` is the cell's site id and ``site_x``/``site_y``
    the sites' coordinates.  This is the one bounding-box fold of the
    package: the three annealing problems (:mod:`repro.place.state`)
    run it once per affected net per move — millions of times per
    placement — so it is a single pass with no intermediate lists,
    and :func:`net_bounding_box_cost` reuses it.  *cells* must be
    non-empty.
    """
    site = site_of[cells[0]]
    xmin = xmax = site_x[site]
    ymin = ymax = site_y[site]
    for cell in cells:
        site = site_of[cell]
        x = site_x[site]
        y = site_y[site]
        if x < xmin:
            xmin = x
        elif x > xmax:
            xmax = x
        if y < ymin:
            ymin = y
        elif y > ymax:
            ymax = y
    return q * ((xmax - xmin) + (ymax - ymin))


def net_bounding_box_cost(
    positions: Sequence[Tuple[int, int]]
) -> float:
    """VPR linear-congestion cost of one net at the given terminals."""
    n = len(positions)
    if n < 2:
        return 0.0
    # Terminal i sits on "site" i, whose coordinates are positions[i].
    terminals = range(n)
    return bounding_box_cost(
        terminals, q_factor(n), terminals,
        [p[0] for p in positions], [p[1] for p in positions],
    )


def total_cost(nets: Iterable[Sequence[Tuple[int, int]]]) -> float:
    """Sum of net costs (each net given as its terminal positions)."""
    return sum(net_bounding_box_cost(net) for net in nets)
