"""Tests for Tunable LUTs and Tunable circuits (paper Figs. 3-4)."""

import pytest

from repro.core.modes import ModeEncoding
from repro.core.tunable import TunableCircuit, TunableLut
from repro.netlist.lutcircuit import LutBlock, LutCircuit
from repro.netlist.truthtable import TruthTable


def lut_and():
    return LutBlock("A", ("p", "q"),
                    TruthTable.var(0, 2) & TruthTable.var(1, 2))


def lut_or():
    return LutBlock("B", ("r", "s"),
                    TruthTable.var(0, 2) | TruthTable.var(1, 2))


class TestTunableLut:
    def test_fig4_bit_generation(self):
        """Paper Fig. 4: merging an AND LUT (mode 0) and an OR LUT
        (mode 1) yields rows whose expressions follow m0."""
        t = TunableLut("t", k=2, n_modes=2)
        t.add_member(0, lut_and())
        t.add_member(1, lut_or())
        rows = t.bit_modes()
        # Row 00: AND=0, OR=0 -> never on -> expression 0.
        assert rows[0] == frozenset()
        # Rows 01 and 10: AND=0, OR=1 -> on only in mode 1 -> m0.
        assert rows[1] == frozenset((1,))
        assert rows[2] == frozenset((1,))
        # Row 11: both 1 -> always on -> 1.
        assert rows[3] == frozenset((0, 1))
        exprs = t.bit_expressions(ModeEncoding(2))
        assert exprs[0] == "0"
        assert exprs[1] == "m0"
        assert exprs[3] == "1"

    def test_specialize_recovers_members(self):
        t = TunableLut("t", k=2, n_modes=2)
        t.add_member(0, lut_and())
        t.add_member(1, lut_or())
        bits0, reg0 = t.specialize(0)
        assert TruthTable(2, bits0) == lut_and().table
        assert reg0 is False
        bits1, _ = t.specialize(1)
        assert TruthTable(2, bits1) == lut_or().table

    def test_register_select_bit(self):
        t = TunableLut("t", k=2, n_modes=2)
        t.add_member(
            0, LutBlock("A", ("p",), TruthTable.var(0, 1),
                        registered=True),
        )
        t.add_member(1, lut_or())
        rows = t.bit_modes()
        assert rows[-1] == frozenset((0,))  # select bit: only mode 0
        assert t.specialize(0)[1] is True
        assert t.specialize(1)[1] is False

    def test_unoccupied_mode_is_zero_lut(self):
        t = TunableLut("t", k=2, n_modes=2)
        t.add_member(0, lut_and())
        bits1, reg1 = t.specialize(1)
        assert bits1 == 0
        assert reg1 is False

    def test_arity_alignment(self):
        """Members with fewer inputs than K pad with don't-care pins."""
        t = TunableLut("t", k=4, n_modes=2)
        t.add_member(0, LutBlock("A", ("p",), ~TruthTable.var(0, 1)))
        aligned = t.aligned_table(0)
        assert aligned.n_vars == 4
        assert aligned.support() == [0]

    def test_n_parameterized_bits(self):
        t = TunableLut("t", k=2, n_modes=2)
        t.add_member(0, lut_and())
        t.add_member(1, lut_or())
        # Rows 01, 10 vary; rows 00 (const 0), 11 (const 1) and the
        # select bit (const 0) do not.
        assert t.n_parameterized_bits() == 2

    def test_duplicate_mode_rejected(self):
        t = TunableLut("t", k=2, n_modes=2)
        t.add_member(0, lut_and())
        with pytest.raises(ValueError):
            t.add_member(0, lut_or())

    def test_too_many_inputs_rejected(self):
        t = TunableLut("t", k=1, n_modes=2)
        with pytest.raises(ValueError):
            t.add_member(0, lut_and())


def two_mode_circuits():
    """Two small, different 2-input-LUT circuits with shared IO names."""
    m0 = LutCircuit("mode0", 4)
    m0.add_input("i0")
    m0.add_input("i1")
    m0.add_block("u", ("i0", "i1"),
                 TruthTable.var(0, 2) & TruthTable.var(1, 2))
    m0.add_block("v", ("u", "i1"),
                 TruthTable.var(0, 2) ^ TruthTable.var(1, 2))
    m0.add_output("v")

    m1 = LutCircuit("mode1", 4)
    m1.add_input("i0")
    m1.add_input("i1")
    m1.add_block("w", ("i0", "i1"),
                 TruthTable.var(0, 2) | TruthTable.var(1, 2))
    m1.add_block("z", ("w",), ~TruthTable.var(0, 1),
                 registered=True)
    m1.add_output("z")
    return m0, m1


class TestTunableCircuit:
    def test_binding_and_duplicates(self):
        tc = TunableCircuit("tc", 4, 2)
        tc.add_tlut("t0")
        with pytest.raises(ValueError):
            tc.add_tlut("t0")
        tc.bind_signal(0, "sig", "t0")
        with pytest.raises(ValueError):
            tc.bind_signal(0, "sig", "t0")

    def test_finalize_merges_connections(self):
        tc = TunableCircuit("tc", 4, 2)
        tc.finalize_connections({
            0: [("a", "b"), ("a", "c")],
            1: [("a", "b")],
        })
        assert tc.n_tunable_connections() == 2
        shared = [c for c in tc.connections
                  if c.activation.is_always()]
        assert len(shared) == 1
        assert shared[0].source == "a" and shared[0].sink == "b"

    def test_stats_shape(self):
        tc = TunableCircuit("tc", 4, 2)
        tc.add_tlut("t0")
        stats = tc.stats()
        assert set(stats) == {
            "tluts", "pads", "connections", "shared_connections",
            "parameterized_lut_bits",
        }

    def test_specialize_mode_out_of_range(self):
        tc = TunableCircuit("tc", 4, 2)
        with pytest.raises(ValueError):
            tc.specialize(5)

    def test_site_connections_require_sites(self):
        from repro.core.merge import merge_by_index

        m0, m1 = two_mode_circuits()
        tc = merge_by_index("mm", [m0, m1])
        with pytest.raises(ValueError):
            tc.site_connections()
