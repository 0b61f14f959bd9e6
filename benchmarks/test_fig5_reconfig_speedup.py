"""Benchmark for Fig. 5: reconfiguration speed-up of DCS over MDR.

The paper reports 4.6x-5.1x fewer configuration bits rewritten on a
mode switch for typical multi-mode applications (RegExp, FIR), with
the two merge strategies (edge matching / wire length) achieving
approximately the same speed-up.

Shape assertions (absolute factors depend on the channel-width sizing;
EXPERIMENTS.md records measured values per effort profile):

* every DCS variant beats MDR (speed-up > 1) on every suite;
* the typical multi-mode suites reach a substantial speed-up (>= 2x);
* the two strategies land within a small factor of each other.

The timed section is the bit accounting + aggregation over the cached
flow results; one full DCS flow run is timed separately on the
smallest pair.
"""

from repro.bench.harness import figure5, print_figure5


def test_fig5_rows(records):
    rows = figure5(records)
    print()
    print(print_figure5(rows))
    for row in rows:
        assert row["min"] > 1.0, row
        assert row["min"] <= row["mean"] <= row["max"]
    typical = [
        r for r in rows if r["suite"] in ("RegExp", "FIR")
    ]
    for row in typical:
        assert row["mean"] >= 2.0, row
    # Paper: both strategies achieve approximately the same speed-up.
    by_key = {(r["suite"], r["variant"]): r["mean"] for r in rows}
    for suite in ("RegExp", "FIR", "MCNC"):
        em = by_key[(suite, "DCS-Edge matching")]
        wl = by_key[(suite, "DCS-Wire length")]
        assert 0.3 <= em / wl <= 3.0, (suite, em, wl)


def test_bench_fig5_aggregation(benchmark, records):
    rows = benchmark(figure5, records)
    assert len(rows) == 6


def test_speedup_arithmetic(experiment):
    """Speed-up must equal MDR bits / DCS bits exactly."""
    for outcomes in experiment.values():
        for outcome in outcomes:
            result = outcome.result
            for strategy in result.dcs:
                expected = (
                    result.mdr.cost.total
                    / result.dcs[strategy].cost.total
                )
                assert abs(
                    result.speedup(strategy) - expected
                ) < 1e-12


def test_dcs_lut_bits_match_mdr(experiment):
    """Fig. 6 premise: both flows rewrite every LUT bit."""
    for outcomes in experiment.values():
        for outcome in outcomes:
            result = outcome.result
            for dcs in result.dcs.values():
                assert (
                    dcs.cost.lut_bits == result.mdr.cost.lut_bits
                )
