"""Ablation: decomposing TRoute's cross-mode sharing mechanisms.

The Fig. 6 merge effect (Diff routing bits / DCS parameterised bits)
comes from three router mechanisms layered on plain per-mode
PathFinder:

1. **net affinity** — a net's connections prefer wires the same net
   already drives in other modes;
2. **bit affinity** — connections prefer switches whose bit is already
   on in all other modes (different nets may share a switch across
   modes: the bit goes static);
3. **sharing passes** — post-convergence sweeps that reroute every net
   with the discounts active, keeping the best legal result.

This bench routes one merged RegExp pair with the mechanisms toggled
and checks each layer pays its way.
"""

import pytest

from repro.arch.rrg import build_rrg
from repro.bench.regex import compile_regex_circuit
from repro.core.combined_placement import (
    merge_with_combined_placement,
)
from repro.core.flow import estimate_channel_width
from repro.core.merge import MergeStrategy
from repro.arch.architecture import FpgaArchitecture, size_for_circuits
from repro.route.troute import (
    route_tunable_circuit,
)

CONFIGS = {
    "plain": dict(net_affinity=1.0, bit_affinity=1.0,
                  sharing_passes=0),
    "net": dict(net_affinity=0.5, bit_affinity=1.0,
                sharing_passes=0),
    "net+bit": dict(net_affinity=0.5, bit_affinity=0.3,
                    sharing_passes=0),
    "net+bit+sweeps": dict(net_affinity=0.5, bit_affinity=0.3,
                           sharing_passes=3),
}


@pytest.fixture(scope="module")
def merged():
    modes = [
        compile_regex_circuit("ab+c(de)*", name="rx0", k=4),
        compile_regex_circuit("a(bc|de)+f", name="rx1", k=4),
    ]
    n_blocks = max(c.n_luts() for c in modes)
    ios = set()
    for c in modes:
        ios.update(c.inputs)
        ios.update(c.outputs)
    arch = size_for_circuits(n_blocks, len(ios), k=4)
    arch = FpgaArchitecture(
        nx=arch.nx, ny=arch.ny, k=4,
        channel_width=estimate_channel_width(modes, arch),
        io_rat=arch.io_rat,
    )
    tunable, _ = merge_with_combined_placement(
        "ablate", modes, arch,
        strategy=MergeStrategy.WIRE_LENGTH, seed=0,
    )
    return arch, tunable


@pytest.fixture(scope="module")
def ablation(merged):
    arch, tunable = merged
    rrg = build_rrg(arch)
    results = {}
    for label, knobs in CONFIGS.items():
        routing = route_tunable_circuit(
            rrg, tunable.site_connections(), 2, **knobs
        )
        results[label] = len(routing.parameterized_bits())
    return results


def test_ablation_rows(ablation):
    print()
    print("Parameterised routing bits by sharing mechanism:")
    for label, bits in ablation.items():
        print(f"  {label:16s} {bits:5d}")


def test_each_layer_helps(ablation):
    """Every mechanism must reduce (or at worst not increase much)
    the parameterised-bit count; the full stack must clearly beat
    plain PathFinder."""
    assert ablation["net"] <= ablation["plain"] * 1.05
    assert ablation["net+bit"] <= ablation["net"] * 1.05
    assert ablation["net+bit+sweeps"] <= ablation["net+bit"]
    assert ablation["net+bit+sweeps"] < ablation["plain"] * 0.85


def test_bench_full_sharing_route(benchmark, merged):
    arch, tunable = merged
    rrg = build_rrg(arch)

    def run():
        return route_tunable_circuit(
            rrg, tunable.site_connections(), 2,
            **CONFIGS["net+bit+sweeps"],
        )

    routing = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not routing.rrg is None
