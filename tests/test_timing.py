"""Tests for the placed critical-path estimate.

The placed estimate is the one longest-path engine
(:func:`repro.timing.sta.routed_critical_path`, on
:class:`~repro.timing.criticality.CriticalityAnalyzer`) run over
:func:`repro.timing.criticality.placed_arc_delays`, which prices each
connection with the shared
:meth:`repro.timing.delay.DelayModel.connection_delay` (pins + wire +
switch per tile), so its expectations are computed from the model
here rather than from module-local constants.
"""

import pytest

from repro.arch.architecture import Site
from repro.core.merge import merge_from_placement
from repro.netlist.lutcircuit import LutCircuit
from repro.netlist.truthtable import TruthTable
from repro.timing.criticality import (
    placed_arc_delays,
    tunable_cell_sites,
)
from repro.timing.delay import DelayModel
from repro.timing.sta import (
    StaReport,
    routed_critical_path,
    timing_comparison,
)

MODEL = DelayModel()


def placed_path(circuit, positions, model=None):
    """Placed critical path of *circuit* at grid *positions*."""
    sites = {
        cell: Site("clb", x, y) for cell, (x, y) in positions.items()
    }
    return routed_critical_path(
        circuit, placed_arc_delays(circuit, sites, model), model
    )


def dcs_placed_path(tunable, mode):
    """Placed critical path of *mode* inside the merged circuit."""
    circuit = tunable.specialize(mode)
    sites = tunable_cell_sites(tunable)[mode]
    return routed_critical_path(
        circuit, placed_arc_delays(circuit, sites)
    )


def chain(n=3):
    """in -> b0 -> ... -> b(n-1) -> out, combinational."""
    c = LutCircuit("chain", 4)
    c.add_input("in")
    prev = "in"
    for i in range(n):
        c.add_block(f"b{i}", (prev,), TruthTable.var(0, 1))
        prev = f"b{i}"
    c.add_output(prev)
    return c


def linear_positions(circuit):
    positions = {"pad:in": (0, 0)}
    for i, name in enumerate(sorted(circuit.blocks)):
        positions[name] = (i + 1, 0)
    out = circuit.outputs[0]
    positions[f"pad:{out}"] = (len(circuit.blocks) + 1, 0)
    return positions


class TestCriticalPath:
    def test_chain_delay(self):
        c = chain(3)
        report = placed_path(c, linear_positions(c))
        # 3 LUTs + 4 unit-length connections.
        expected = (
            3 * MODEL.lut_delay + 4 * MODEL.connection_delay(1)
        )
        assert report.critical_delay == pytest.approx(expected)

    def test_registers_cut_paths(self):
        c = LutCircuit("cut", 4)
        c.add_input("in")
        c.add_block("a", ("in",), TruthTable.var(0, 1))
        c.add_block("r", ("a",), TruthTable.var(0, 1),
                    registered=True)
        c.add_block("b", ("r",), TruthTable.var(0, 1))
        c.add_output("b")
        positions = {
            "pad:in": (0, 0), "a": (1, 0), "r": (2, 0),
            "b": (3, 0), "pad:b": (4, 0),
        }
        report = placed_path(c, positions)
        # Longest segment: two LUTs + two hops (in->a->r or r->b->out).
        expected = (
            2 * MODEL.lut_delay + 2 * MODEL.connection_delay(1)
        )
        assert report.critical_delay == pytest.approx(expected)

    def test_long_wire_dominates(self):
        c = chain(1)
        positions = {
            "pad:in": (0, 0), "b0": (10, 0), "pad:b0": (10, 5),
        }
        report = placed_path(c, positions)
        expected = (
            MODEL.lut_delay
            + MODEL.connection_delay(10)
            + MODEL.connection_delay(5)
        )
        assert report.critical_delay == pytest.approx(expected)

    def test_agrees_with_shared_delay_model(self):
        """The estimator consumes whatever model it is given."""
        c = chain(2)
        fast = DelayModel(
            lut_delay=2.0, pin_delay=0.0, wire_delay=0.1,
            switch_delay=0.0,
        )
        report = placed_path(c, linear_positions(c), fast)
        expected = 2 * 2.0 + 3 * 0.1
        assert report.critical_delay == pytest.approx(expected)

    def test_trace_walks_back_to_launch_point(self):
        c = chain(3)
        report = placed_path(c, linear_positions(c))
        assert report.critical_path == ("in", "b0", "b1", "b2")
        assert report.n_endpoints == 1

    @pytest.mark.parametrize("pad_en, pad_r, trace", [
        # Equal arrivals: the first input (the feedback) wins the
        # tie, and the walk stops where it started.
        ((1, 0), (2, 0), ("r",)),
        # The enable arrives strictly later and starts the path.
        ((0, 0), (2, 0), ("en", "r")),
        # A far output pad makes the registered driver's output tap
        # the endpoint; a launch-point driver is the whole trace.
        ((1, 0), (5, 0), ("r",)),
    ])
    def test_registered_feedback_trace(self, pad_en, pad_r, trace):
        c = LutCircuit("fb", 4)
        c.add_input("en")
        c.add_block(
            "r", ("r", "en"),
            TruthTable.var(0, 2) ^ TruthTable.var(1, 2),
            registered=True,
        )
        c.add_output("r")
        report = placed_path(
            c, {"r": (1, 0), "pad:en": pad_en, "pad:r": pad_r}
        )
        assert report.critical_path == trace
        assert report.n_endpoints == 2

    def test_frequency_inverse(self):
        report = StaReport(
            critical_delay=2.0, n_endpoints=1, critical_path=()
        )
        assert report.frequency() == pytest.approx(0.5)


class TestDcsTiming:
    def test_dcs_placed_path_uses_tunable_sites(self):
        m0 = LutCircuit("m0", 4)
        m0.add_input("i")
        m0.add_block("x", ("i",), TruthTable.var(0, 1))
        m0.add_output("x")
        m1 = LutCircuit("m1", 4)
        m1.add_input("i")
        m1.add_block("y", ("i",), ~TruthTable.var(0, 1))
        m1.add_output("y")
        block_sites = {
            (0, "x"): Site("clb", 3, 1),
            (1, "y"): Site("clb", 3, 1),
        }
        pad_sites = {
            "pad:i": Site("pad", 0, 1, 0),
            "pad:x": Site("pad", 5, 0, 0),
            "pad:y": Site("pad", 0, 2, 0),
        }
        tunable = merge_from_placement(
            "t", [m0, m1], block_sites, pad_sites
        )
        report0 = dcs_placed_path(tunable, 0)
        # pad(0,1) -> clb(3,1): 3 hops; clb -> pad(5,0): 3 hops.
        expected = MODEL.lut_delay + 2 * MODEL.connection_delay(3)
        assert report0.critical_delay == pytest.approx(expected)
        report1 = dcs_placed_path(tunable, 1)
        assert report1.critical_delay > 0

    def test_penalty_ratio(self):
        mdr = [StaReport(2.0, 1, ()), StaReport(4.0, 1, ())]
        dcs = [StaReport(2.5, 1, ()), StaReport(4.5, 1, ())]
        penalty = timing_comparison(mdr, dcs).mean_ratio
        assert penalty == pytest.approx((2.5 / 2 + 4.5 / 4) / 2)

    def test_penalty_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            timing_comparison([StaReport(1.0, 1, ())], [])
