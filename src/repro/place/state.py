"""Integer annealing state shared by the three placement problems.

The MDR placer (:mod:`repro.place.placer`), the combined placement of
all modes and TPlace (:mod:`repro.core.combined_placement`) anneal the
same kind of state: cells on sites, nets over cells, a bounding-box
cost per net and an optional timing term.  :class:`PlacementState`
holds it once, on integer ids:

* sites are numbered per architecture, ``clb_sites()`` then
  ``pad_sites()``, with flat ``site_x``/``site_y`` coordinate lists;
* ``site_of`` (cell id -> site id) and ``cell_at`` (occupancy slot ->
  cell id, ``-1`` when free) are lists;
* nets are lists of cell ids with their ``q_factor`` precomputed, and
  every net cost comes from :func:`repro.place.cost.bounding_box_cost`;
* the timing term (:class:`~repro.timing.criticality
  .PlacementTimingCost`) reads positions from the same arrays.

Occupancy is layered so the combined placement's per-mode blocks share
the shape: a cell owns slot ``layer_base[cell] + site``.  A block of
mode *m* has ``layer_base = m * n_sites``; every other cell (the cells
of a single circuit, the IO pads that all modes share) has 0.  A move
is ``(cell, src, dst)`` and swaps *cell* with the occupant of its
layer at *dst*, if there is one.  ``Site`` objects appear only at the
boundary: initial sites read from a Tunable circuit, and the results.

``tests/test_placement_golden.py`` pins the placements bit for bit
with committed digests.  Three things decide them beyond the cost
arithmetic, so a change to any of them changes every placement:

* RNG calls: the sequence of ``shuffle``/``random``/``getrandbits``
  calls and their arguments.  Cell and site draws go through
  :func:`randbelow`, which makes ``randrange(n)``'s ``getrandbits``
  calls itself: the stream is the one ``randrange`` draws, but it no
  longer depends on how ``randrange`` is implemented (a site draw is
  ``first + randbelow(getrandbits, n)`` over one site kind's
  contiguous id range);
* float grouping: a move's before-cost is one ``sum()`` and its
  after-cost a running ``+=``, in the net order below;
* set order: TPlace and the combined placement iterate the
  affected-net set as built (a set of ints built by the same
  insertion sequence always iterates the same way), while the MDR
  placer sorts it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set, Tuple

from repro.arch.architecture import FpgaArchitecture, Site
from repro.place.cost import bounding_box_cost, q_factor

#: ``(cell, src site, dst site)``.
Move = Tuple[int, int, int]


def randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform draw from ``range(n)`` by CPython's own rule for
    ``randrange(n)`` (``Random._randbelow_with_getrandbits``): draw
    ``n.bit_length()`` bits until the value is below *n*.

    *getrandbits* is the RNG's bound ``getrandbits`` method, so the
    RNG stream is exactly the one ``rng.randrange(n)`` consumes.  Like
    ``randrange``, it raises ``ValueError`` for ``n < 1``
    (``getrandbits(0)`` is 0, which would never fall below *n*).
    """
    if n < 1:
        raise ValueError(f"empty range for randbelow(): {n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class PlacementState:
    """Cells, sites, nets and the per-move cost bookkeeping.

    Subclasses fill the state through :meth:`_init_sites`,
    :meth:`_init_state` and :meth:`_bind_timing`, in that order, and
    provide ``logic_pool``/``pad_pool``: the cell ids a move picks
    from (a cell may be listed twice; the pools' sizes weight the
    pick).  With a timing term bound, the annealed cost is

    ``(1 - tradeoff) * wirelength + tradeoff * tau * timing``

    where ``timing`` is the criticality-weighted connection-delay sum
    and ``tau = wirelength / timing`` rescales it into wire-length
    units, refreshed with the criticalities at every temperature via
    the engine's ``on_temperature`` hook.  Without one every method
    is the plain wire-length cost.
    """

    logic_pool: List[int]
    pad_pool: List[int]
    _timing = None
    _lam = 0.0
    _tau = 0.0
    _pending = None

    def _init_sites(self, arch: FpgaArchitecture) -> None:
        clb = arch.clb_sites()
        self.arch = arch
        self.sites: List[Site] = clb + arch.pad_sites()
        self.n_clb = len(clb)
        self.n_sites = len(self.sites)
        self.site_x = [site.x for site in self.sites]
        self.site_y = [site.y for site in self.sites]

    def _shuffled(self, rng, pads: bool) -> List[int]:
        """The CLB (or pad) site ids in a random order."""
        ids = list(
            range(self.n_clb, self.n_sites) if pads
            else range(self.n_clb)
        )
        rng.shuffle(ids)
        return ids

    def _init_state(
        self,
        site_of: List[int],
        nets: List[List[int]],
        n_layers: int = 1,
        layer_base: Optional[List[int]] = None,
    ) -> None:
        self.site_of = site_of
        self.layer_base = layer_base or [0] * len(site_of)
        self.cell_at = [-1] * (n_layers * self.n_sites)
        for cell, site in enumerate(site_of):
            self.cell_at[self.layer_base[cell] + site] = cell
        self.nets = nets
        self.net_q = [q_factor(len(cells)) for cells in nets]
        self.nets_of_cell: List[List[int]] = [[] for _ in site_of]
        for i, cells in enumerate(nets):
            for cell in cells:
                self.nets_of_cell[cell].append(i)
        self.net_cost = [self._net_cost(i) for i in range(len(nets))]

    def _bind_timing(self, config, circuits) -> None:
        """Attach a timing term over *circuits*, ``(circuit, key_of)``
        pairs mapping each circuit's cell names to cell ids; a no-op
        when *config* (a ``CriticalityConfig``) is ``None``."""
        if config is None:
            return
        # Imported lazily: repro.timing.criticality imports
        # repro.place.placer, which imports this module.
        from repro.timing.criticality import PlacementTimingCost

        timing = PlacementTimingCost(config)
        for circuit, key_of in circuits:
            timing.add_circuit(circuit, key_of=key_of)
        timing.bind(self.site_of, self.site_x, self.site_y)
        self._timing = timing
        self._lam = config.tradeoff
        self._refresh_tau()

    # -- costs --------------------------------------------------------------

    def _net_cost(self, index: int) -> float:
        return bounding_box_cost(
            self.nets[index], self.net_q[index], self.site_of,
            self.site_x, self.site_y,
        )

    def wirelength(self) -> float:
        """Summed net costs, recounted at the current sites."""
        return sum(self._net_cost(i) for i in range(len(self.nets)))

    def _refresh_tau(self) -> None:
        timing_cost = self._timing.cost
        self._tau = (
            sum(self.net_cost) / timing_cost
            if timing_cost > 0.0 else 0.0
        )

    def _combined_cost(self) -> float:
        base = sum(self.net_cost)
        if self._timing is None:
            return base
        return (
            (1.0 - self._lam) * base
            + self._lam * self._tau * self._timing.cost
        )

    # -- annealing interface (repro.place.annealing) --------------------------

    def initial_cost(self) -> float:
        return self._combined_cost()

    def size(self) -> int:
        return len(self.logic_pool) + len(self.pad_pool)

    def n_nets(self) -> int:
        return len(self.nets)

    def max_rlim(self) -> int:
        return max(self.arch.nx, self.arch.ny) + 2

    def on_temperature(self):
        """Annealing hook: refresh criticalities, re-balance terms."""
        if self._timing is None:
            return None
        self._timing.refresh_criticalities()
        self._refresh_tau()
        return self._combined_cost()

    def propose(self, rlim: float, rng) -> Optional[Move]:
        """Pick a logic cell or a pad, then a site within *rlim*."""
        logic = self.logic_pool
        pads = self.pad_pool
        getrandbits = rng.getrandbits
        if randbelow(getrandbits, len(logic) + len(pads)) < len(logic):
            cell = logic[randbelow(getrandbits, len(logic))]
        else:
            cell = pads[randbelow(getrandbits, len(pads))]
        return self._propose_site(cell, rlim, getrandbits)

    def _propose_site(self, cell: int, rlim: float, getrandbits
                      ) -> Optional[Move]:
        """Up to eight draws of a same-kind site within *rlim*."""
        src = self.site_of[cell]
        if src < self.n_clb:
            first, count = 0, self.n_clb
        else:
            first, count = self.n_clb, self.n_sites - self.n_clb
        site_x = self.site_x
        site_y = self.site_y
        x = site_x[src]
        y = site_y[src]
        for _ in range(8):
            dst = first + randbelow(getrandbits, count)
            if dst == src:
                continue
            if abs(site_x[dst] - x) > rlim or abs(site_y[dst] - y) > rlim:
                continue
            return (cell, src, dst)
        return None

    def _affected_nets(self, cell: int, other: int):
        """Nets of the moved cells, in the order their costs are
        summed (see the module docstring)."""
        nets: Set[int] = set(self.nets_of_cell[cell])
        if other >= 0:
            nets.update(self.nets_of_cell[other])
        return nets

    @staticmethod
    def _moved(cell: int, other: int) -> Tuple[int, ...]:
        return (cell,) if other < 0 else (cell, other)

    def delta_cost(self, move: Move) -> float:
        cell, src, dst = move
        other = self.cell_at[self.layer_base[cell] + dst]
        affected = self._affected_nets(cell, other)
        net_cost = self.net_cost
        before = sum([net_cost[i] for i in affected])
        timing = self._timing
        t_affected = t_evaluated = None
        if timing is not None:
            t_affected = timing.conns_of(self._moved(cell, other))
            t_before = timing.weighted(t_affected)
        # Tentatively move, evaluate, revert — remembering the
        # after-costs, aligned with *affected*'s iteration, so commit()
        # of this same move reuses them.
        site_of = self.site_of
        site_of[cell] = dst
        if other >= 0:
            site_of[other] = src
        nets = self.nets
        net_q = self.net_q
        site_x = self.site_x
        site_y = self.site_y
        evaluated: List[float] = []
        append = evaluated.append
        after = 0.0
        for i in affected:
            cost = bounding_box_cost(
                nets[i], net_q[i], site_of, site_x, site_y
            )
            append(cost)
            after += cost
        if timing is not None:
            t_evaluated = timing.eval_conns(t_affected)
            t_after = timing.weighted_eval(t_affected, t_evaluated)
        site_of[cell] = src
        if other >= 0:
            site_of[other] = dst
        self._pending = (
            move, affected, evaluated, t_affected, t_evaluated
        )
        if timing is None:
            return after - before
        return (
            (1.0 - self._lam) * (after - before)
            + self._lam * self._tau * (t_after - t_before)
        )

    def _apply(self, move: Move) -> int:
        """Commit *move*'s sites and occupancy; returns the displaced
        cell (``-1`` for none)."""
        cell, src, dst = move
        base = self.layer_base[cell]
        cell_at = self.cell_at
        other = cell_at[base + dst]
        self.site_of[cell] = dst
        cell_at[base + dst] = cell
        if other >= 0:
            self.site_of[other] = src
        cell_at[base + src] = other
        return other

    def commit(self, move: Move) -> None:
        other = self._apply(move)
        pending = self._pending
        self._pending = None
        timing = self._timing
        if pending is not None and pending[0] is move:
            _, affected, evaluated, t_affected, t_evaluated = pending
        else:
            # Not the move delta_cost() last evaluated: re-evaluate
            # at the committed sites.
            cell = move[0]
            affected = self._affected_nets(cell, other)
            evaluated = [self._net_cost(i) for i in affected]
            if timing is not None:
                t_affected = timing.conns_of(self._moved(cell, other))
                t_evaluated = timing.eval_conns(t_affected)
        net_cost = self.net_cost
        for i, cost in zip(affected, evaluated):
            net_cost[i] = cost
        if timing is not None:
            timing.commit(t_affected, t_evaluated)
