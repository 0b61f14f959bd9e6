"""Benchmark for Table I: size of the LUT circuits per suite.

Regenerates the min/average/maximum 4-LUT counts of the three
application suites and checks they land in the paper's windows:

    RegExp  224 / 243 / 261
    FIR     235 / 302 / 371
    MCNC    264 / 310 / 404

The benchmark times the full front-end (generator -> synthesis ->
technology mapping) for one representative circuit of each suite.
"""

from repro.bench.fir import generate_fir_circuit
from repro.bench.harness import print_table1, table1
from repro.bench.mcnc import DEFAULT_PROFILES, generate_mcnc_circuit
from repro.bench.regex import DEFAULT_PATTERNS, compile_regex_circuit

PAPER_WINDOWS = {
    # suite: (paper min, paper max), widened 15% for generator noise
    "RegExp": (190, 300),
    "FIR": (200, 430),
    "MCNC": (225, 465),
}


def test_table1_rows(spec):
    rows = table1(spec.seeds[0], spec.k, spec.scale)
    print()
    print(print_table1(rows))
    by_suite = {r["suite"]: r for r in rows}
    for suite, (low, high) in PAPER_WINDOWS.items():
        row = by_suite[suite]
        assert low <= row["minimum"] <= row["maximum"] <= high, row
        assert row["minimum"] <= row["average"] <= row["maximum"]


def test_bench_regexp_frontend(benchmark):
    circuit = benchmark(
        compile_regex_circuit, DEFAULT_PATTERNS[0], "t1_regexp"
    )
    assert circuit.n_luts() > 0


def test_bench_fir_frontend(benchmark):
    circuit = benchmark(
        generate_fir_circuit, "lowpass", 0
    )
    assert circuit.n_luts() > 0


def test_bench_mcnc_frontend(benchmark):
    circuit = benchmark(
        generate_mcnc_circuit, DEFAULT_PROFILES[0]
    )
    assert circuit.n_luts() > 0
