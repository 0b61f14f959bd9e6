"""Reconfiguration-cost accounting (paper Section IV-C.1).

The paper assumes reconfiguration time is proportional to the number of
configuration-memory bits rewritten on a mode switch and compares three
accountings:

* **MDR** — the whole reconfigurable region is rewritten: every LUT bit
  and every routing bit of the region.
* **Diff** (``RegExp-Diff`` in Fig. 6) — all LUT bits are rewritten but
  only the routing bits whose values actually differ between the
  separately implemented modes are counted.  This isolates the
  "region-based writing" overhead of MDR (factor ~5 in the paper).
* **DCS** — all LUT bits plus only the *parameterised* routing bits of
  the combined implementation (factor ~4 on top of Diff).

All quantities are derived from per-mode on-bit sets produced by the
router, against the region budget of the architecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Set

from repro.arch.architecture import FpgaArchitecture
from repro.arch.rrg import RoutingResourceGraph


@dataclass(frozen=True)
class ReconfigCost:
    """Bits rewritten on one mode switch, split by resource type."""

    lut_bits: int
    routing_bits: int

    @property
    def total(self) -> int:
        return self.lut_bits + self.routing_bits


def varying_bits(bit_sets: Sequence[Set[int]]) -> Set[int]:
    """Bits that are not constant across the given per-mode on-sets."""
    if not bit_sets:
        return set()
    union: Set[int] = set()
    intersection: Set[int] = set(bit_sets[0])
    for bits in bit_sets:
        union |= bits
        intersection &= bits
    return union - intersection


def mdr_cost(
    arch: FpgaArchitecture, rrg: RoutingResourceGraph
) -> ReconfigCost:
    """MDR rewrites the full region regardless of content."""
    return ReconfigCost(
        lut_bits=arch.total_lut_bits(),
        routing_bits=rrg.n_bits,
    )


def diff_cost(
    arch: FpgaArchitecture,
    per_mode_bits: Sequence[Set[int]],
) -> ReconfigCost:
    """All LUT bits + routing bits differing between the separate
    (MDR-style) implementations."""
    return ReconfigCost(
        lut_bits=arch.total_lut_bits(),
        routing_bits=len(varying_bits(per_mode_bits)),
    )


def dcs_cost(
    arch: FpgaArchitecture,
    per_mode_bits: Sequence[Set[int]],
) -> ReconfigCost:
    """All LUT bits + parameterised routing bits of the combined
    implementation.

    Identical arithmetic to :func:`diff_cost` — the difference is the
    input: these bit sets come from TRoute on the merged circuit, where
    the combined placement has aligned the modes.
    """
    return ReconfigCost(
        lut_bits=arch.total_lut_bits(),
        routing_bits=len(varying_bits(per_mode_bits)),
    )


def dcs_cost_lut_diff(
    tunable,
    per_mode_bits: Sequence[Set[int]],
) -> ReconfigCost:
    """DCS cost counting only mode-dependent LUT bits.

    Paper Section IV-C.1: "our results would even improve if we would
    count only the LUT bits that have a different value for the
    different modes, since this would increase the routing to LUT
    ratio."  The parameterised LUT bits come straight from the Tunable
    LUTs' Fig. 4 bit expressions (bits whose expression is neither
    constant 0 nor constant 1).
    """
    return ReconfigCost(
        lut_bits=tunable.n_parameterized_lut_bits(),
        routing_bits=len(varying_bits(per_mode_bits)),
    )


def speedup(baseline: ReconfigCost, improved: ReconfigCost) -> float:
    """Reconfiguration speed-up of *improved* over *baseline* (Fig. 5)."""
    if improved.total == 0:
        raise ValueError("improved cost is zero")
    return baseline.total / improved.total

