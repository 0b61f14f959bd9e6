"""Extension benchmark: routed STA check of the performance claim.

The placement-level companion (`test_performance_penalty.py`) bounds
the penalty with Manhattan estimates; here the *actual routed paths*
are analysed, so the router's congestion detours and cross-mode wire
sharing are priced in.  This is the strongest form of the abstract's
"without significant performance penalties" claim this reproduction
can check.
"""

import pytest

from repro.core.merge import MergeStrategy
from repro.timing import (
    dcs_arc_delays,
    mdr_arc_delays,
    routed_critical_path,
    timing_comparison,
)


@pytest.fixture(scope="module")
def sta_rows(experiment):
    rows = []
    for suite, outcomes in experiment.items():
        for outcome in outcomes:
            result = outcome.result
            pair = outcome.modes
            mdr_reports = []
            for circuit, impl in zip(
                pair, result.mdr.implementations
            ):
                arcs = mdr_arc_delays(
                    circuit, impl.placement, impl.routing
                )
                mdr_reports.append(
                    routed_critical_path(circuit, arcs)
                )
            for strategy, dcs in result.dcs.items():
                dcs_reports = []
                for mode in range(len(pair)):
                    arcs = dcs_arc_delays(
                        dcs.tunable, dcs.routing, mode
                    )
                    dcs_reports.append(
                        routed_critical_path(
                            dcs.tunable.specialize(mode), arcs
                        )
                    )
                comp = timing_comparison(mdr_reports, dcs_reports)
                rows.append({
                    "suite": suite,
                    "name": outcome.name,
                    "strategy": strategy,
                    "mean": comp.mean_ratio,
                    "worst": comp.worst_ratio,
                })
    return rows


def test_routed_sta_penalty_rows(sta_rows):
    print()
    print("Routed critical-path penalty of DCS vs MDR (1.0 = none):")
    for row in sta_rows:
        print(
            f"  {row['suite']:8s} {row['name']:12s} "
            f"{row['strategy'].value:15s} "
            f"mean {row['mean']:.3f}x worst {row['worst']:.3f}x"
        )
    for row in sta_rows:
        # Routed paths include congestion detours, so the bound is a
        # little looser than the placement-level 1.6x.
        assert row["mean"] <= 1.8, row
        assert row["mean"] >= 0.5, row


def test_routed_wirelength_strategy_modest(sta_rows):
    wl = [
        r for r in sta_rows
        if r["strategy"] is MergeStrategy.WIRE_LENGTH
    ]
    mean = sum(r["mean"] for r in wl) / len(wl)
    print(f"\nmean routed wire-length-strategy penalty: {mean:.3f}x")
    assert mean <= 1.7


def test_bench_routed_sta(benchmark, experiment):
    outcome = experiment["RegExp"][0]
    dcs = outcome.result.dcs[MergeStrategy.WIRE_LENGTH]

    def run():
        arcs = dcs_arc_delays(dcs.tunable, dcs.routing, 0)
        return routed_critical_path(
            dcs.tunable.specialize(0), arcs
        )

    report = benchmark(run)
    assert report.critical_delay > 0
    assert report.critical_path
