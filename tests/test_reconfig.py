"""Tests for the reconfiguration-cost accounting."""

import pytest

from repro.arch.architecture import FpgaArchitecture
from repro.arch.rrg import build_rrg
from repro.core.reconfig import (
    ReconfigCost,
    dcs_cost,
    diff_cost,
    mdr_cost,
    speedup,
    varying_bits,
)


class TestVaryingBits:
    def test_empty(self):
        assert varying_bits([]) == set()

    def test_identical_sets_do_not_vary(self):
        assert varying_bits([{1, 2}, {1, 2}]) == set()

    def test_symmetric_difference_two_modes(self):
        assert varying_bits([{1, 2, 3}, {2, 3, 4}]) == {1, 4}

    def test_three_modes(self):
        # Bit 1 on everywhere -> static one; bit 9 on nowhere; others
        # vary.
        sets = [{1, 2}, {1, 3}, {1}]
        assert varying_bits(sets) == {2, 3}


class TestCosts:
    def setup_method(self):
        self.arch = FpgaArchitecture(nx=3, ny=3, channel_width=4)
        self.rrg = build_rrg(self.arch)

    def test_mdr_counts_whole_region(self):
        cost = mdr_cost(self.arch, self.rrg)
        assert cost.lut_bits == self.arch.total_lut_bits()
        assert cost.routing_bits == self.rrg.n_bits
        assert cost.total == cost.lut_bits + cost.routing_bits

    def test_diff_counts_differing_routing_only(self):
        cost = diff_cost(self.arch, [{1, 2, 3}, {3, 4}])
        assert cost.lut_bits == self.arch.total_lut_bits()
        assert cost.routing_bits == 3  # {1, 2, 4}

    def test_dcs_same_arithmetic_as_diff(self):
        bits = [{1, 2}, {2, 5}]
        assert dcs_cost(self.arch, bits) == diff_cost(self.arch, bits)

    def test_ordering_invariant(self):
        """MDR >= Diff always (Diff counts a subset of region bits)."""
        mdr = mdr_cost(self.arch, self.rrg)
        diff = diff_cost(self.arch, [{1, 2, 3}, {3, 4}])
        assert mdr.total >= diff.total

    def test_speedup(self):
        a = ReconfigCost(lut_bits=100, routing_bits=900)
        b = ReconfigCost(lut_bits=100, routing_bits=100)
        assert speedup(a, b) == pytest.approx(5.0)

    def test_speedup_zero_rejected(self):
        a = ReconfigCost(10, 10)
        with pytest.raises(ValueError):
            speedup(a, ReconfigCost(0, 0))

