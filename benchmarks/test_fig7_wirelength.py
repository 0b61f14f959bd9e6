"""Benchmark for Fig. 7: per-mode wire usage relative to MDR.

The paper compares the set of wires each mode uses when active under
DCS against its separate MDR implementation: wire-length optimisation
keeps the average increase around +24% (11-35% for RegExp/FIR), while
the prior-art circuit edge matching sometimes blows past +100%; the
dissimilar MCNC circuits spread wider.

Shape assertions: DCS uses at least as many wires as MDR on average
(the combined implementation constrains both modes at once); the
wire-length strategy never does *worse* than edge matching by a large
factor; the penalty of the wire-length strategy stays moderate.
"""

from repro.bench.harness import figure7, print_figure7


def test_fig7_rows(records):
    rows = figure7(records)
    print()
    print(print_figure7(rows))
    by_key = {(r["suite"], r["variant"]): r for r in rows}
    for suite in ("RegExp", "FIR", "MCNC"):
        em = by_key[(suite, "DCS-Edge matching")]
        wl = by_key[(suite, "DCS-Wire length")]
        # Some penalty vs MDR is expected; a collapse below 60% would
        # indicate the metric is broken.
        assert wl["mean"] >= 60.0, wl
        # The novel strategy must not lose badly to the prior art.
        assert wl["mean"] <= em["mean"] * 1.35, (suite, em, wl)
        # Wire-length optimisation keeps the penalty moderate.
        assert wl["mean"] <= 220.0, wl


def test_bench_fig7_aggregation(benchmark, records):
    rows = benchmark(figure7, records)
    assert len(rows) == 6


def test_wirelength_ratio_definition(experiment):
    """Ratio must equal mean per-mode DCS wires / mean MDR wires."""
    for outcomes in experiment.values():
        for outcome in outcomes:
            result = outcome.result
            for strategy, dcs in result.dcs.items():
                expected = (
                    dcs.mean_wirelength()
                    / result.mdr.mean_wirelength()
                )
                assert abs(
                    result.wirelength_ratio(strategy) - expected
                ) < 1e-12
                # Per-mode wire sets are non-empty.
                assert all(
                    w > 0 for w in dcs.per_mode_wirelength()
                )
