"""Ablation: merge-strategy comparison on one RegExp pair.

The paper compares two merge strategies (edge matching vs wire
length).  This ablation adds the naive Fig. 3 baseline — merging LUTs
*by index* with no placement awareness — and measures the three side
by side on parameterised routing bits, matched connections and wire
usage, isolating how much of the win comes from the combined
placement itself.

Also benches the two combined-placement cost functions in isolation
(same circuits, same annealing effort), which is the direct cost of
the paper's novel step.
"""

import pytest

from repro.core.combined_placement import combined_place
from repro.core.flow import DcsFlow, FlowOptions
from repro.core.merge import MergeStrategy
from repro.core.reconfig import varying_bits


@pytest.fixture(scope="module")
def regexp_pair(experiment):
    return experiment["RegExp"][0].modes


@pytest.fixture(scope="module")
def shared_arch(experiment):
    return experiment["RegExp"][0].result.arch


@pytest.fixture(scope="module")
def ablation(regexp_pair, shared_arch):
    """Run all three strategies on the same pair & architecture."""
    from repro.arch.rrg import build_rrg

    options = FlowOptions(inner_num=0.1)
    rrg = build_rrg(shared_arch)
    results = {}
    for strategy in (
        MergeStrategy.BY_INDEX,
        MergeStrategy.EDGE_MATCHING,
        MergeStrategy.WIRE_LENGTH,
    ):
        results[strategy] = DcsFlow(options).run(
            "ablation", regexp_pair, shared_arch, strategy, rrg
        )
    return results


def test_ablation_rows(ablation):
    print()
    print("Merge-strategy ablation (one RegExp pair):")
    print(f"{'strategy':15s} {'param bits':>11s} "
          f"{'merged conns':>13s} {'mean wires':>11s}")
    for strategy, dcs in ablation.items():
        merged = dcs.tunable.n_shared_connections()
        print(
            f"{strategy.value:15s} {dcs.cost.routing_bits:11d} "
            f"{merged:13d} {dcs.mean_wirelength():11.0f}"
        )


def test_placement_aware_strategies_beat_by_index(ablation):
    """The paper's whole point: grouping must exploit similarity."""
    naive = ablation[MergeStrategy.BY_INDEX]
    for strategy in (
        MergeStrategy.EDGE_MATCHING, MergeStrategy.WIRE_LENGTH,
    ):
        smart = ablation[strategy]
        assert (
            smart.cost.routing_bits <= naive.cost.routing_bits
        ), strategy

    # Edge matching merges at least as many connections as the naive
    # grouping (it optimises exactly that).
    assert (
        ablation[MergeStrategy.EDGE_MATCHING]
        .tunable.n_shared_connections()
        >= naive.tunable.n_shared_connections()
    )


def test_param_bits_equal_varying_bits(ablation):
    """DCS cost must equal the per-mode on-set variation."""
    for dcs in ablation.values():
        bit_sets = [
            dcs.routing.bits_on(m) for m in range(2)
        ]
        assert dcs.cost.routing_bits == len(varying_bits(bit_sets))


def test_bench_combined_placement_wirelength(
    benchmark, regexp_pair, shared_arch
):
    from repro.place.annealing import AnnealingSchedule

    result = benchmark.pedantic(
        combined_place,
        args=(regexp_pair, shared_arch, MergeStrategy.WIRE_LENGTH),
        kwargs={"seed": 1, "schedule": AnnealingSchedule(
            inner_num=0.1)},
        rounds=1, iterations=1,
    )
    assert result.stats.final_cost <= result.stats.initial_cost


def test_bench_combined_placement_edge_matching(
    benchmark, regexp_pair, shared_arch
):
    from repro.place.annealing import AnnealingSchedule

    result = benchmark.pedantic(
        combined_place,
        args=(regexp_pair, shared_arch, MergeStrategy.EDGE_MATCHING),
        kwargs={"seed": 1, "schedule": AnnealingSchedule(
            inner_num=0.1)},
        rounds=1, iterations=1,
    )
    assert result.n_tunable_connections > 0
