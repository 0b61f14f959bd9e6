"""Benchmark for Fig. 6: LUT vs routing contribution to reconfig time.

The paper decomposes the RegExp reconfiguration cost into LUT bits and
routing bits for three accountings:

* RegExp-MDR   — whole region (routing dominates);
* RegExp-Diff  — only routing bits that differ between the separately
  implemented modes (region-based writing overhead, factor ~5);
* RegExp-DCS   — only parameterised routing bits of the combined
  implementation (a further factor ~4; ~20x total).

Shape assertions: routing dominates the MDR bar; the routing component
shrinks strictly MDR > Diff > ... and DCS achieves a large total
routing reduction; LUT bits are identical across all three bars.
"""

from repro.bench.harness import figure6, print_figure6


def test_fig6_rows(records):
    rows = figure6(records)
    print()
    print(print_figure6(rows))
    mdr, diff, dcs = rows
    # LUT contribution identical across the three accountings.
    assert mdr["lut_bits"] == diff["lut_bits"] == dcs["lut_bits"]
    # Routing dominates the full-region rewrite.
    assert mdr["routing_bits"] > mdr["lut_bits"]
    # Region effect: counting only differing bits is a big win.
    assert diff["routing_bits"] < 0.5 * mdr["routing_bits"]
    # The combined implementation wins again on top of that.
    assert dcs["routing_bits"] <= diff["routing_bits"]
    # Overall routing reduction is substantial (paper: ~20x).
    assert mdr["routing_bits"] / dcs["routing_bits"] >= 4.0


def test_bench_fig6_aggregation(benchmark, records):
    rows = benchmark(figure6, records)
    assert len(rows) == 3


def test_percentages_normalised_to_mdr(records):
    rows = figure6(records)
    mdr = rows[0]
    assert abs(
        mdr["lut_pct_of_mdr"] + mdr["routing_pct_of_mdr"] - 100.0
    ) < 1e-9
    for row in rows[1:]:
        assert row["lut_pct_of_mdr"] == mdr["lut_pct_of_mdr"]
        assert (
            row["routing_pct_of_mdr"] <= mdr["routing_pct_of_mdr"]
        )
