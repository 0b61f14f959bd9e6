"""Integration tests for the end-to-end MDR and DCS flows."""

import pytest

from repro.core.flow import (
    DcsFlow,
    FlowOptions,
    MdrFlow,
    estimate_channel_width,
    implement_multi_mode,
)
from repro.core.merge import MergeStrategy
from repro.netlist.simulate import equivalent

from tests.test_tunable import two_mode_circuits

FAST = FlowOptions(inner_num=0.3, channel_width=6)


@pytest.fixture(scope="module")
def result():
    m0, m1 = two_mode_circuits()
    return implement_multi_mode(
        "mm", [m0, m1], FAST,
        strategies=(
            MergeStrategy.EDGE_MATCHING,
            MergeStrategy.WIRE_LENGTH,
        ),
    ), (m0, m1)


class TestImplementMultiMode:
    def test_runs_both_flows(self, result):
        res, _modes = result
        assert res.mdr is not None
        assert set(res.dcs) == {
            MergeStrategy.EDGE_MATCHING,
            MergeStrategy.WIRE_LENGTH,
        }

    def test_speedup_at_least_one(self, result):
        """DCS rewrites a subset of what MDR rewrites."""
        res, _modes = result
        for strategy in res.dcs:
            assert res.speedup(strategy) >= 1.0

    def test_mdr_diff_dcs_ordering(self, result):
        """Region >= Diff bits; DCS param bits ordering sane."""
        res, _modes = result
        assert res.mdr.cost.total >= res.mdr.diff.total
        for dcs in res.dcs.values():
            assert dcs.cost.total <= res.mdr.cost.total

    def test_dcs_param_bits_below_diff(self, result):
        """The combined implementation aligns the modes, so its
        parameterised bits cannot exceed the region budget and should
        generally beat independent implementations."""
        res, _modes = result
        wl = res.dcs[MergeStrategy.WIRE_LENGTH]
        assert wl.cost.routing_bits <= res.mdr.cost.routing_bits

    def test_tunable_circuit_correct(self, result):
        res, (m0, m1) = result
        for dcs in res.dcs.values():
            assert equivalent(dcs.tunable.specialize(0), m0)
            assert equivalent(dcs.tunable.specialize(1), m1)

    def test_wirelength_metrics_positive(self, result):
        res, _modes = result
        assert res.mdr.mean_wirelength() > 0
        for strategy in res.dcs:
            assert res.wirelength_ratio(strategy) > 0

    def test_lut_bits_identical_across_variants(self, result):
        """Paper Fig. 6: the LUT contribution is the same for MDR and
        DCS (all LUTs are rewritten in both)."""
        res, _modes = result
        for dcs in res.dcs.values():
            assert dcs.cost.lut_bits == res.mdr.cost.lut_bits


class TestFlowPieces:
    def test_mdr_flow_direct(self):
        from repro.arch.architecture import FpgaArchitecture

        m0, m1 = two_mode_circuits()
        arch = FpgaArchitecture(nx=4, ny=4, channel_width=6)
        mdr = MdrFlow(FAST).run([m0, m1], arch)
        assert len(mdr.implementations) == 2
        assert mdr.cost.total > 0
        assert all(w > 0 for w in mdr.per_mode_wirelength())

    def test_dcs_flow_by_index(self):
        from repro.arch.architecture import FpgaArchitecture

        m0, m1 = two_mode_circuits()
        arch = FpgaArchitecture(nx=4, ny=4, channel_width=6)
        dcs = DcsFlow(FAST).run(
            "mm", [m0, m1], arch, MergeStrategy.BY_INDEX
        )
        assert dcs.tunable.n_tunable_connections() > 0
        assert equivalent(dcs.tunable.specialize(0), m0)

    def test_estimate_channel_width_bounds(self):
        from repro.arch.architecture import FpgaArchitecture

        m0, m1 = two_mode_circuits()
        arch = FpgaArchitecture(nx=4, ny=4, channel_width=6)
        w = estimate_channel_width([m0, m1], arch)
        assert 6 <= w <= 48

    def test_options_schedule(self):
        opts = FlowOptions(inner_num=0.7)
        assert opts.schedule().inner_num == 0.7


class TestSizingModes:
    def _modes(self):
        from repro.netlist.lutcircuit import LutCircuit
        from repro.netlist.truthtable import TruthTable

        def chain(name, n):
            c = LutCircuit(name, 4)
            c.add_input("a")
            c.add_input("b")
            prev = ("a", "b")
            t = TruthTable.var(0, 2) ^ TruthTable.var(1, 2)
            for i in range(n):
                c.add_block(f"{name}n{i}", prev, t)
                prev = (f"{name}n{i}", "a" if i % 2 else "b")
            c.add_output(f"{name}n{n - 1}")
            return c

        return [chain("a", 5), chain("b", 7)]

    def test_search_sizing_completes(self):
        from repro.core.flow import FlowOptions, implement_multi_mode
        from repro.core.merge import MergeStrategy

        result = implement_multi_mode(
            "sized",
            self._modes(),
            FlowOptions(seed=0, inner_num=0.1, sizing="search"),
            strategies=(MergeStrategy.WIRE_LENGTH,),
        )
        assert result.speedup(MergeStrategy.WIRE_LENGTH) > 1.0

    def test_unknown_sizing_rejected(self):
        from repro.core.flow import FlowOptions, implement_multi_mode

        with pytest.raises(ValueError, match="sizing"):
            implement_multi_mode(
                "bad",
                self._modes(),
                FlowOptions(seed=0, inner_num=0.1,
                            sizing="guesswork"),
            )

    def test_explicit_width_bypasses_sizing(self):
        from repro.core.flow import FlowOptions, implement_multi_mode
        from repro.core.merge import MergeStrategy

        result = implement_multi_mode(
            "fixed",
            self._modes(),
            FlowOptions(seed=0, inner_num=0.1, channel_width=9,
                        sizing="guesswork"),  # ignored: width given
            strategies=(MergeStrategy.WIRE_LENGTH,),
        )
        assert result.arch.channel_width == 9


class TestWidthRetries:
    @pytest.mark.parametrize("retries, last_width", [(1, 1), (2, 3)])
    def test_exhaustion_names_the_last_width_tried(
        self, retries, last_width
    ):
        """When every width fails, the error names the last channel
        width actually routed (1, then max(1 + 2, 1.25 * 1) = 3), not
        the next one the retry loop would have tried."""
        from repro.gen.suites import suite_pairs
        from repro.route.router import RoutingError

        name, modes = suite_pairs(
            "xbar", seed=0, scale="tiny", limit=1
        )[0]
        options = FlowOptions(
            channel_width=1, max_width_retries=retries,
            router_max_iterations=2,
        )
        with pytest.raises(
            RoutingError,
            match=rf"unroutable even at channel width {last_width}: ",
        ):
            implement_multi_mode(name, modes, options)
