"""The annealers' per-move bookkeeping (:mod:`repro.place.state`).

* :func:`randbelow` draws exactly what ``randrange`` draws, so the
  placements keep their RNG stream;
* ``commit()`` reuses the evaluation ``delta_cost()`` made for the
  same move and re-evaluates any other move, so the maintained net
  costs, edge-matching counter and timing delays always equal a
  from-scratch recount;
* the incidence lists the move evaluation reads as they are stored
  (a lone cell's nets, connections and timing arcs) are ascending and
  duplicate-free, which is what lets it skip sorting or deduplicating
  them.
"""

import random
from collections import Counter

import pytest

from repro.arch.architecture import size_for_circuits
from repro.core.combined_placement import (
    CombinedPlacementProblem,
    TunablePlacementProblem,
)
from repro.core.flow import FlowOptions
from repro.core.merge import MergeStrategy, merge_by_index
from repro.gen.suites import suite_pairs
from repro.place.placer import _SinglePlacementProblem
from repro.place.state import randbelow
from repro.utils.rng import make_rng

TIMING = FlowOptions(timing_driven=True).criticality()


def _pair():
    _name, modes = suite_pairs("fsm", seed=0, scale="tiny", limit=1)[0]
    ios = set()
    for circuit in modes:
        ios.update(circuit.inputs)
        ios.update(circuit.outputs)
    arch = size_for_circuits(
        max(c.n_luts() for c in modes), len(ios), channel_width=8
    )
    return modes, arch


def _mdr(timing):
    modes, arch = _pair()
    return _SinglePlacementProblem(
        modes[0], arch, make_rng(1), timing=timing
    )


def _combined(strategy, timing):
    modes, arch = _pair()
    return CombinedPlacementProblem(
        arch, modes, make_rng(2), strategy, timing=timing
    )


def _tplace(timing):
    modes, arch = _pair()
    tunable = merge_by_index("pair", modes)
    return TunablePlacementProblem(
        tunable, arch, make_rng(3), randomize=True, timing=timing
    )


PROBLEMS = {
    "mdr": lambda: _mdr(None),
    "mdr-timed": lambda: _mdr(TIMING),
    "combined-em": lambda: _combined(
        MergeStrategy.EDGE_MATCHING, None
    ),
    "combined-wl": lambda: _combined(MergeStrategy.WIRE_LENGTH, None),
    "combined-wl-timed": lambda: _combined(
        MergeStrategy.WIRE_LENGTH, TIMING
    ),
    "tplace": lambda: _tplace(None),
    "tplace-timed": lambda: _tplace(TIMING),
}


class TestRandbelow:
    def test_matches_randrange_stream(self):
        sizes = (1, 2, 3, 7, 8, 9, 60, 64, 65, 1000)
        pick = random.Random(5)
        ours = random.Random(9)
        reference = random.Random(9)
        for _ in range(10_000):
            n = pick.choice(sizes)
            assert randbelow(ours.getrandbits, n) == reference.randrange(n)
        assert ours.getstate() == reference.getstate()

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_range_raises(self, n):
        with pytest.raises(ValueError):
            randbelow(random.Random(0).getrandbits, n)


@pytest.mark.parametrize("case", sorted(PROBLEMS))
def test_committed_evaluations_match_recount(case):
    """300 evaluated proposals, about half of them committed; when
    possible every fourth commit is of a move evaluated before the
    last evaluation, so commit() must re-evaluate it instead of
    reusing the pending evaluation."""
    problem = PROBLEMS[case]()
    edge_matching = (
        getattr(problem, "strategy", None) == MergeStrategy.EDGE_MATCHING
    )
    rng = make_rng(11, case)
    pick = make_rng(12, case)
    cost = problem.initial_cost()
    earlier = None
    commits = stale_commits = 0
    for _ in range(300):
        move = problem.propose(3.0, rng)
        if move is None:
            continue
        delta = problem.delta_cost(move)
        if earlier is not None and commits % 4 == 3:
            # Nothing was committed since *earlier* was evaluated, so
            # its delta still holds; the pending evaluation is *move*'s.
            move, delta = earlier
            stale_commits += 1
        elif pick.random() < 0.5:
            earlier = (move, delta)
            continue
        problem.commit(move)
        cost += delta
        commits += 1
        earlier = None
    assert commits >= 100 and stale_commits >= 10

    if edge_matching:
        keys = problem._site_keys(range(len(problem.conn_src)))
        assert problem._conn_keys == keys
        assert problem._conn_count == dict(Counter(keys))
        assert cost == problem.edge_matching_cost()
    else:
        assert problem.net_cost == [
            problem._net_cost(i) for i in range(len(problem.nets))
        ]
        assert cost == pytest.approx(problem.initial_cost(), rel=1e-9)
    timing = problem._timing
    if timing is not None:
        assert timing.delay == timing.eval_conns(
            range(len(timing.delay))
        )
        assert timing.cost == pytest.approx(
            sum(w * d for w, d in zip(timing.weight, timing.delay)),
            rel=1e-9,
        )


def _ascending_unique(lists):
    return all(list(items) == sorted(set(items)) for items in lists)


@pytest.mark.parametrize("case", sorted(PROBLEMS))
def test_incidence_lists_ascending_and_unique(case):
    problem = PROBLEMS[case]()
    assert _ascending_unique(problem.nets_of_cell)
    if hasattr(problem, "conns_of_cell"):
        assert _ascending_unique(problem.conns_of_cell)
    if problem._timing is not None:
        assert _ascending_unique(problem._timing.conns_of_key.values())
