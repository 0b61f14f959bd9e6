"""Extension benchmark: the abstract's "no significant performance
penalty" claim.

The paper argues via wire length (Fig. 7) that the combined
implementation costs little performance.  With the placement-level
timing model (`repro.place.timing`) the claim is checked directly: the
per-mode critical-path delay of the merged circuit is compared to the
separate MDR implementation of the same mode.
"""

import pytest

from repro.core.merge import MergeStrategy
from repro.place.timing import dcs_timing, mdr_timing, timing_penalty


@pytest.fixture(scope="module")
def timing_data(experiment):
    rows = []
    for suite, outcomes in experiment.items():
        for outcome in outcomes:
            result = outcome.result
            pair = outcome.modes
            mdr_reports = [
                mdr_timing(circuit, impl.placement)
                for circuit, impl in zip(
                    pair, result.mdr.implementations
                )
            ]
            for strategy, dcs in result.dcs.items():
                dcs_reports = [
                    dcs_timing(dcs.tunable, mode)
                    for mode in range(len(pair))
                ]
                rows.append({
                    "suite": suite,
                    "name": outcome.name,
                    "strategy": strategy,
                    "penalty": timing_penalty(
                        mdr_reports, dcs_reports
                    ),
                })
    return rows


def test_performance_penalty_rows(timing_data):
    print()
    print("Critical-path delay penalty of DCS vs MDR (1.0 = none):")
    for row in timing_data:
        print(
            f"  {row['suite']:8s} {row['name']:12s} "
            f"{row['strategy'].value:15s} "
            f"{row['penalty']:.3f}x"
        )
    for row in timing_data:
        # "Without significant performance penalties": the per-mode
        # critical path should stay within ~1.6x of the separate
        # implementation even at benchmark annealing effort.
        assert row["penalty"] <= 1.6, row
        # And it can never beat MDR by a large margin either (both
        # use the same estimator; a collapse indicates a model bug).
        assert row["penalty"] >= 0.5, row


def test_wirelength_strategy_at_most_modest_penalty(timing_data):
    wl_rows = [
        r for r in timing_data
        if r["strategy"] is MergeStrategy.WIRE_LENGTH
    ]
    mean_penalty = sum(r["penalty"] for r in wl_rows) / len(wl_rows)
    print(f"\nmean wire-length-strategy penalty: {mean_penalty:.3f}x")
    assert mean_penalty <= 1.5


def test_bench_timing_model(benchmark, experiment):
    outcome = experiment["RegExp"][0]
    result = outcome.result
    dcs = result.dcs[MergeStrategy.WIRE_LENGTH]
    report = benchmark(dcs_timing, dcs.tunable, 0)
    assert report.critical_delay > 0
