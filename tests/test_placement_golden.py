"""Golden digests of the three annealing placers.

Each case places seeded tiny circuits and hashes the outcome: every
cell's site, sorted, plus the annealer's move count, accept count and
``repr`` of its final cost.  The literals below were recorded before
the placers moved from ``Site``-keyed dicts to integer site and cell
ids; the integer state must reproduce them bit for bit (same RNG call
sequence, same float grouping, same set insertion order), so any
drift in a placer's trajectory fails here, not only in the benchmark
digest.  The ``tplace-refine`` cases (TPlace starting cold from the
wire-length combined placement) were recorded when that start was
added.
"""

import hashlib

import pytest

from repro.arch.architecture import size_for_circuits
from repro.core.combined_placement import (
    merge_with_combined_placement,
    tplace,
)
from repro.core.flow import FlowOptions
from repro.core.merge import MergeStrategy, merge_by_index
from repro.gen.suites import suite_pairs
from repro.place.annealing import AnnealingSchedule
from repro.place.placer import place_circuit

PAIRS = (("fsm", 0), ("xbar", 0))
SCHEDULE = AnnealingSchedule(inner_num=0.3)
TIMING = FlowOptions(timing_driven=True).criticality()


def _pair(family, seed):
    _name, modes = suite_pairs(
        family, seed=seed, scale="tiny", limit=1
    )[0]
    ios = set()
    for circuit in modes:
        ios.update(circuit.inputs)
        ios.update(circuit.outputs)
    arch = size_for_circuits(
        max(c.n_luts() for c in modes), len(ios), channel_width=8
    )
    return modes, arch


def digest(runs):
    """One SHA-256 over every run: its sorted (cell, kind, x, y,
    slot) rows plus its anneal stats."""
    h = hashlib.sha256()
    for cell_sites, stats in runs:
        rows = sorted(
            (cell, site.kind, site.x, site.y, site.slot)
            for cell, site in cell_sites
        )
        h.update(repr(rows).encode())
        h.update(
            repr((stats.n_moves, stats.n_accepted,
                  repr(stats.final_cost))).encode()
        )
    return h.hexdigest()


def _tunable_sites(tunable):
    cells = [(name, t.site) for name, t in tunable.tluts.items()]
    cells += [(name, p.site) for name, p in tunable.pads.items()]
    return cells


def mdr_case(timing):
    out = []
    for family, seed in PAIRS:
        modes, arch = _pair(family, seed)
        for mode, circuit in enumerate(modes):
            placement = place_circuit(
                circuit, arch, seed=seed + mode, schedule=SCHEDULE,
                timing=timing,
            )
            out.append((placement.sites.items(), placement.stats))
    return digest(out)


def combined_case(strategy, timing):
    out = []
    for family, seed in PAIRS:
        modes, arch = _pair(family, seed)
        _tunable, result = merge_with_combined_placement(
            family, modes, arch, strategy=strategy, seed=seed,
            schedule=SCHEDULE, timing=timing,
        )
        cells = [
            (f"b{mode}:{name}", site)
            for (mode, name), site in result.block_sites.items()
        ]
        cells += [
            (f"p:{name}", site)
            for name, site in result.pad_sites.items()
        ]
        out.append((cells, result.stats))
    return digest(out)


def tplace_case(randomize, timing, refine=False):
    out = []
    for family, seed in PAIRS:
        modes, arch = _pair(family, seed)
        if randomize:
            tunable = merge_by_index(family, modes)
        else:
            tunable, _ = merge_with_combined_placement(
                family, modes, arch, seed=seed, schedule=SCHEDULE,
            )
        stats = tplace(
            tunable, arch, seed=seed, schedule=SCHEDULE,
            randomize=randomize, timing=timing, refine=refine,
        )
        out.append((_tunable_sites(tunable), stats))
    return digest(out)


CASES = {
    "mdr": lambda: mdr_case(None),
    "mdr-timed": lambda: mdr_case(TIMING),
    "combined-edge-matching": lambda: combined_case(
        MergeStrategy.EDGE_MATCHING, None),
    "combined-wire-length": lambda: combined_case(
        MergeStrategy.WIRE_LENGTH, None),
    "combined-wire-length-timed": lambda: combined_case(
        MergeStrategy.WIRE_LENGTH, TIMING),
    "tplace": lambda: tplace_case(False, None),
    "tplace-timed": lambda: tplace_case(False, TIMING),
    "tplace-randomized": lambda: tplace_case(True, None),
    "tplace-randomized-timed": lambda: tplace_case(True, TIMING),
    "tplace-refine": lambda: tplace_case(False, None, refine=True),
    "tplace-refine-timed": lambda: tplace_case(
        False, TIMING, refine=True),
}

GOLDEN = {
    "combined-edge-matching": (
        "9717119dc3387cf5c73d1995834db94cba927ba0cbee290e3625247929165de4"
    ),
    "combined-wire-length": (
        "14590f9ab74ccbc2932169b895e83f38807f100840018644604162728b9c1ad8"
    ),
    "combined-wire-length-timed": (
        "17d9b7160a56b7701f49a5fdd1cb0ba76b9c63c75314e6c71008bc9c3b8670c7"
    ),
    "mdr": (
        "c6049e2379e4256c115b2f7b1aa63082aa78dc601bfa81898009088e6579bb45"
    ),
    "mdr-timed": (
        "8209356032d867d1d8b60becd759e3fae4d95bc480ced79803c4cce691945238"
    ),
    "tplace": (
        "5f0d9a0ed6d9de381f33c939e7f078f20d1ffc6e6434ea378173aace2359b902"
    ),
    "tplace-randomized": (
        "636bf02404417bb2765bf9e778be9770cc8c80b72673babd53fc707973cc1ea8"
    ),
    "tplace-randomized-timed": (
        "52be180f71cf150e6f6e2ddec04ad0677e10f92fea4e1e51485ca1c69bf226ea"
    ),
    "tplace-refine": (
        "a4a7ca1b0eda9e53433c15c91f6e1010b42b3fef01ba7291bf0de561c2350755"
    ),
    "tplace-refine-timed": (
        "471a83d965a6c39f1f70c067fb40c50c9e18a0467ec7b8ab48385d09353487d2"
    ),
    "tplace-timed": (
        "a7f4ef32777745e9b0d55d51d24d93967f5e00ab3271d65deb53607a1723ad5a"
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_placement_matches_golden_digest(case):
    assert CASES[case]() == GOLDEN[case]


def test_edge_matching_rejects_timing():
    """Edge matching is topology-only, so it has no timed case."""
    modes, arch = _pair(*PAIRS[0])
    with pytest.raises(ValueError):
        merge_with_combined_placement(
            "fsm", modes, arch, strategy=MergeStrategy.EDGE_MATCHING,
            timing=TIMING,
        )
