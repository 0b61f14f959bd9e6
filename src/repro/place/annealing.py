"""Adaptive simulated-annealing engine (VPR schedule).

The engine is generic over a *problem* object so the conventional
placer and the paper's combined placer share one schedule.  A problem
must provide:

``initial_cost() -> float``
    Cost of the starting state.
``propose(rlim, rng) -> move | None``
    Generate a candidate move under the current range limit.  ``None``
    means "no legal move found this attempt" (counted, not accepted).
``delta_cost(move) -> float``
    Cost change the move would cause.
``commit(move) -> None`` / nothing on reject.
``size() -> int``
    Number of movable cells (drives moves-per-temperature).
``n_nets() -> int``
    Number of nets (drives the exit criterion).
``on_temperature() -> float | None`` (optional)
    Called at the start of every temperature.  A problem may use it to
    refresh slowly-varying state (the timing-driven placers recompute
    connection criticalities here) and return the recomputed total
    cost, which replaces the engine's running sum; returning ``None``
    leaves the running cost untouched.  Problems without the hook (or
    returning ``None``) anneal exactly as before.

Schedule (Betz & Rose, "VPR: A New Packing, Placement and Routing Tool
for FPGA Research"):

* initial temperature = 20 × the standard deviation of the cost change
  over ``size()`` random moves, which are committed: the anneal starts
  hot from a scrambled state and re-places from scratch;
* a *refining* run (``anneal(..., refine=True)``) draws the same probe
  moves but commits none and starts at :data:`REFINE_TEMP_FACTOR` ×
  the deviation, so it improves the state it was given instead
  (VPR offers the same cold start as ``--init_t``);
* moves per temperature = ``inner_num * size() ** 4/3``;
* temperature update factor chosen from the acceptance rate
  (0.5 / 0.9 / 0.95 / 0.8 bands);
* range limit follows the acceptance rate towards 44%;
* exit when the temperature falls below a small fraction of the cost
  per net.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

#: Start temperature of a refining run, in units of the probe's
#: cost-change deviation.  Rule: of {0.1, 0.2, 0.5, 1.0}, the factor
#: whose TPlace refinement of the wire-length combined placement left
#: the fewest parameterised routing bits, summed over perfbench's
#: ``fir`` and ``klut`` pools at seeds 101-102.  0.1 beat 0.2 by 1.0%
#: there (and on each of six further pools: fir and klut at 103-104,
#: fir-timed at 101-102); 0.5 and 1.0 left 4-5% more bits than 0.2.
REFINE_TEMP_FACTOR = 0.1


@dataclass
class AnnealingSchedule:
    """Tunable knobs of the annealing schedule.

    ``inner_num`` scales effort: VPR's default is 10; pure-Python runs
    use smaller values (the campaign presets behind ``repro
    experiments --effort`` map effort levels onto this knob).
    """

    inner_num: float = 1.0
    init_temp_factor: float = 20.0
    exit_ratio: float = 0.005
    max_temperatures: int = 500
    min_moves: int = 16


@dataclass
class AnnealingStats:
    """Outcome statistics of one annealing run."""

    initial_cost: float
    final_cost: float
    n_temperatures: int = 0
    n_moves: int = 0
    n_accepted: int = 0


def _alpha(r_accept: float) -> float:
    """VPR temperature-update factor from the acceptance rate."""
    if r_accept > 0.96:
        return 0.5
    if r_accept > 0.8:
        return 0.9
    if r_accept > 0.15:
        return 0.95
    return 0.8


def anneal(problem, rng, schedule: Optional[AnnealingSchedule] = None,
           refine: bool = False) -> AnnealingStats:
    """Run adaptive simulated annealing on *problem*; returns stats.

    *refine* keeps the problem's starting state: the temperature probe
    commits no move and the anneal starts cold (see the module
    docstring).
    """
    schedule = schedule or AnnealingSchedule()
    size = max(1, problem.size())
    cost = problem.initial_cost()
    stats = AnnealingStats(initial_cost=cost, final_cost=cost)

    moves_per_temp = max(
        schedule.min_moves, int(schedule.inner_num * size ** (4 / 3))
    )

    # Initial temperature: measure the cost-change deviation of
    # `size` random moves.  A hot start commits them all (scrambling
    # the placement); a refining run only measures them.
    deltas = []
    for _ in range(size):
        move = problem.propose(float("inf"), rng)
        if move is None:
            continue
        delta = problem.delta_cost(move)
        if not refine:
            problem.commit(move)
            cost += delta
        deltas.append(delta)
    if deltas:
        mean = sum(deltas) / len(deltas)
        variance = sum((d - mean) ** 2 for d in deltas) / len(deltas)
        factor = (
            REFINE_TEMP_FACTOR if refine else schedule.init_temp_factor
        )
        temperature = factor * math.sqrt(variance)
    else:
        temperature = 1.0
    if temperature <= 0.0:
        temperature = 1.0

    rlim = float(problem.max_rlim())

    # The move loop runs inner_num * size^(4/3) times per temperature
    # and dominates placement wall-clock; bind every per-move callable
    # once per temperature (the RNG call sequence — and therefore the
    # result — is exactly that of the naive loop).
    propose = problem.propose
    delta_cost = problem.delta_cost
    commit = problem.commit
    random = rng.random
    exp = math.exp
    on_temperature = getattr(problem, "on_temperature", None)

    for _ in range(schedule.max_temperatures):
        if on_temperature is not None:
            refreshed = on_temperature()
            if refreshed is not None:
                cost = refreshed
        n_nets = max(1, problem.n_nets())
        if temperature < schedule.exit_ratio * cost / n_nets:
            break
        accepted = 0
        attempted = 0
        for _ in range(moves_per_temp):
            move = propose(rlim, rng)
            if move is None:
                continue
            attempted += 1
            delta = delta_cost(move)
            if delta <= 0 or random() < exp(-delta / temperature):
                commit(move)
                cost += delta
                accepted += 1
        stats.n_temperatures += 1
        stats.n_moves += attempted
        stats.n_accepted += accepted

        r_accept = accepted / attempted if attempted else 0.0
        temperature *= _alpha(r_accept)
        rlim = min(
            float(problem.max_rlim()),
            max(1.0, rlim * (1.0 - 0.44 + r_accept)),
        )
        if cost <= 0:
            break

    stats.final_cost = cost
    return stats
