"""The benchmark's workloads: seeded pools of multi-mode pairs.

A workload is a pool of mode pairs generated from the run's seed, the
``FlowOptions`` every flow of the pool runs under, and whether the
flows start from an empty stage cache (cold) or replay a cache that
set-up populated (warm).  ``FlowOptions.seed`` never changes: the
seed only decides which circuits the flow receives.

Two circuit families are used:

* ``fir`` — the paper's FIR experiment, scaled down: a low-pass and a
  high-pass constant-coefficient filter per pair, built through the
  repository's own synthesis front end.  Every coefficient has exactly
  two nonzero canonical-signed digits, so every filter holds the same
  number of shift-add adders.
* ``klut`` — random k-LUT networks from :mod:`repro.gen.klut`, two
  unrelated modes per pair (little for the merge to share).

Pools hold many small pairs rather than a few large ones: the
spread of a pool's compile time and QoR across seeds falls with the
number of pairs it averages.  ``scale="tiny"`` shrinks both families
to seconds-scale inputs for the self-test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bench.fir import FirSpec, fir_network
from repro.core.flow import FlowOptions
from repro.gen.spec import WorkloadSpec, build_circuit
from repro.netlist.lutcircuit import LutCircuit
from repro.synth.optimize import optimize_network
from repro.synth.techmap import tech_map

Pair = Tuple[str, Tuple[LutCircuit, ...]]

#: Per scale: taps, nonzero taps, data width, candidate pairs drawn per
#: pool slot, and the LUTs per pair the kept candidate is closest to.
FIR_SHAPES = {"full": (2, 2, 3, 3, 70), "tiny": (2, 1, 3, 1, 0)}
#: Per scale: LUTs per mode, inputs, outputs.
KLUT_SHAPES = {"full": (20, 8, 6), "tiny": (12, 5, 3)}
#: Rent exponent and register density of pair i (cycled), the same
#: schedule as the ``klut`` suite of :mod:`repro.gen.suites`.
KLUT_RENTS = (0.55, 0.7, 0.85)
KLUT_DENSITIES = (0.0, 0.1, 0.2)
COEFF_WIDTH = 6


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    inner_num: float
    timing_driven: bool
    warm: bool
    #: Pairs in the pool at full scale (the tiny scale uses one).
    n_pairs: int

    def options(self) -> FlowOptions:
        return FlowOptions(
            inner_num=self.inner_num, timing_driven=self.timing_driven
        )

    def pairs(self, seed: int, scale: str = "full") -> List[Pair]:
        n_pairs = self.n_pairs if scale == "full" else 1
        if self.family == "fir":
            return fir_pairs(seed, n_pairs, scale)
        return klut_pairs(seed, n_pairs, scale)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fir", "fir", 0.1, False, False, 10),
        Workload("klut", "klut", 1.0, False, False, 7),
        Workload("fir-timed", "fir", 0.1, True, False, 10),
        # The klut pool's circuits at a tenth of the effort: set-up
        # populates the cache three times, and a replay's cost does
        # not depend on the effort that compiled it.
        Workload("warm", "klut", 0.1, False, True, 7),
    )
}


def naf_weight(value: int) -> int:
    """Nonzero digits of *value*'s canonical signed-digit form."""
    weight = 0
    while value:
        if value & 1:
            weight += 1
            # value % 4 == 1 takes digit +1, value % 4 == 3 takes -1.
            value -= 2 - (value & 3)
        value >>= 1
    return weight


#: Coefficient magnitudes with exactly two signed digits.
MAGNITUDES = tuple(
    m for m in range(1, 1 << (COEFF_WIDTH - 1)) if naf_weight(m) == 2
)


def _fir_mode(rng: random.Random, kind: str, n_taps: int,
              n_nonzero: int, data_width: int, name: str) -> LutCircuit:
    positions = sorted(rng.sample(range(n_taps), n_nonzero))
    coefficients = [0] * n_taps
    for j, pos in enumerate(positions):
        magnitude = rng.choice(MAGNITUDES)
        negative = kind == "highpass" and j % 2 == 1
        coefficients[pos] = -magnitude if negative else magnitude
    spec = FirSpec(kind, tuple(coefficients), data_width=data_width,
                   coeff_width=COEFF_WIDTH)
    return tech_map(optimize_network(fir_network(spec, name)), k=4)


def fir_pairs(seed: int, n_pairs: int, scale: str = "full"
              ) -> List[Pair]:
    """Low-pass/high-pass pairs of close to the target size.

    Each pool slot draws the same number of candidate pairs from the
    slot's own seeded stream and keeps the one nearest the target LUT
    count, so every seed does the same set-up work, pools hold about
    the same amount of logic, and the seed varies their structure.
    """
    n_taps, n_nonzero, data_width, n_candidates, target = (
        FIR_SHAPES[scale])
    pairs: List[Pair] = []
    for i in range(n_pairs):
        rng = random.Random(f"perfbench:fir:{seed}:{i}")
        candidates = [
            tuple(
                _fir_mode(rng, kind, n_taps, n_nonzero, data_width,
                          f"fir{i}_{kind}")
                for kind in ("lowpass", "highpass")
            )
            for _ in range(n_candidates)
        ]
        modes = min(candidates, key=lambda c: abs(
            sum(m.n_luts() for m in c) - target))
        pairs.append((f"fir_{i}", modes))
    return pairs


def klut_pairs(seed: int, n_pairs: int, scale: str = "full"
               ) -> List[Pair]:
    n_luts, n_inputs, n_outputs = KLUT_SHAPES[scale]
    pairs = []
    for i in range(n_pairs):
        modes = tuple(
            build_circuit(WorkloadSpec.create(
                "klut", f"klut{i}{tag}",
                seed=1000 * seed + 2 * i + j, k=4,
                n_luts=n_luts, n_inputs=n_inputs, n_outputs=n_outputs,
                rent=KLUT_RENTS[i % len(KLUT_RENTS)],
                reg_density=KLUT_DENSITIES[i % len(KLUT_DENSITIES)],
            ))
            for j, tag in enumerate("ab")
        )
        pairs.append((f"klut_{i}", modes))
    return pairs
