"""Tests of the criticality subsystem (repro.timing.criticality)."""

import pytest

from repro.arch.architecture import size_for_circuits
from repro.arch.rrg import build_rrg
from repro.netlist.lutcircuit import LutCircuit
from repro.netlist.truthtable import TruthTable
from repro.place.placer import place_circuit
from repro.timing.criticality import (
    CriticalityAnalyzer,
    CriticalityConfig,
    PlacementTimingCost,
    lut_connection_criticalities,
    sharpen,
    tunable_carriers,
    tunable_connection_criticalities,
)


def chain(n=3, registered_tail=False):
    """in -> b0 -> ... -> b(n-1) -> out."""
    c = LutCircuit("chain", 4)
    c.add_input("in")
    prev = "in"
    for i in range(n):
        c.add_block(
            f"b{i}", (prev,), TruthTable.var(0, 1),
            registered=registered_tail and i == n - 1,
        )
        prev = f"b{i}"
    c.add_output(prev)
    return c


def branchy():
    """A long path (i->x->y->out) next to a short one (i->z->out)."""
    c = LutCircuit("br", 4)
    c.add_input("i")
    c.add_block("x", ("i",), TruthTable.var(0, 1))
    c.add_block("y", ("x",), TruthTable.var(0, 1))
    c.add_block("z", ("i",), TruthTable.var(0, 1))
    c.add_output("y")
    c.add_output("z")
    return c


class TestSharpen:
    @pytest.mark.smoke
    def test_exponent_shapes(self):
        assert sharpen(0.5, 1.0) == pytest.approx(0.5)
        assert sharpen(0.5, 2.0) == pytest.approx(0.25)
        assert sharpen(0.9, 8.0) == pytest.approx(0.9 ** 8)

    def test_exponent_zero_disables_timing(self):
        """crit**0 must NOT read as 'everything critical'."""
        assert sharpen(0.99, 0.0) == 0.0
        assert sharpen(1.0, 0.0) == 0.0
        assert sharpen(0.5, -1.0) == 0.0

    def test_zero_criticality_stays_zero(self):
        assert sharpen(0.0, 2.0) == 0.0


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CriticalityConfig(tradeoff=1.5)
        with pytest.raises(ValueError):
            CriticalityConfig(max_criticality=1.0)
        config = CriticalityConfig(exponent=2.0, tradeoff=0.25)
        assert config.sharpen(0.5) == pytest.approx(0.25)


class TestAnalyzer:
    def test_single_path_is_fully_critical(self):
        """Every connection of a one-path circuit has zero slack."""
        c = chain(4)
        analyzer = CriticalityAnalyzer(c)
        report = analyzer.analyze([0.55] * analyzer.n_arcs(), 1.0)
        assert report.max_delay == pytest.approx(4 * 1.0 + 5 * 0.55)
        assert all(
            s == pytest.approx(0.0) for s in report.slack
        )
        assert all(
            cr == pytest.approx(1.0) for cr in report.criticality
        )

    def test_short_branch_is_less_critical(self):
        c = branchy()
        analyzer = CriticalityAnalyzer(c)
        report = analyzer.analyze([0.55] * analyzer.n_arcs(), 1.0)
        crit = report.by_arc(analyzer.arcs)
        # The long path has zero slack everywhere.
        assert crit[("i", "x")] == pytest.approx(1.0)
        assert crit[("x", "y")] == pytest.approx(1.0)
        assert crit[("y", "pad:y")] == pytest.approx(1.0)
        # The short path has slack, hence lower criticality.
        assert crit[("i", "z")] < 1.0
        assert crit[("z", "pad:z")] < 1.0
        # Slack of the short path = the one-LUT depth difference.
        assert report.by_arc(analyzer.arcs)  # mapping is complete
        slack = dict(zip(analyzer.arcs, report.slack))
        assert slack[("i", "z")] == pytest.approx(1.0 + 0.55)

    def test_registers_cut_paths(self):
        c = LutCircuit("cut", 4)
        c.add_input("i")
        c.add_block("a", ("i",), TruthTable.var(0, 1))
        c.add_block("r", ("a",), TruthTable.var(0, 1),
                    registered=True)
        c.add_block("b", ("r",), TruthTable.var(0, 1))
        c.add_output("b")
        analyzer = CriticalityAnalyzer(c)
        report = analyzer.analyze([0.55] * analyzer.n_arcs(), 1.0)
        crit = report.by_arc(analyzer.arcs)
        # The launch-to-capture segment i->a->r dominates (2 LUTs);
        # r->b->out is a shorter, fresh path.
        assert report.max_delay == pytest.approx(2 * 1.0 + 2 * 0.55)
        assert crit[("i", "a")] == pytest.approx(1.0)
        assert crit[("a", "r")] == pytest.approx(1.0)
        assert crit[("r", "b")] < 1.0

    def test_dangling_block_has_zero_criticality(self):
        c = LutCircuit("dangle", 4)
        c.add_input("i")
        c.add_block("used", ("i",), TruthTable.var(0, 1))
        c.add_block("dead", ("i",), TruthTable.var(0, 1))
        c.add_output("used")
        analyzer = CriticalityAnalyzer(c)
        report = analyzer.analyze([0.55] * analyzer.n_arcs(), 1.0)
        crit = report.by_arc(analyzer.arcs)
        assert crit[("i", "dead")] == 0.0

    def test_delay_vector_length_checked(self):
        analyzer = CriticalityAnalyzer(chain(2))
        with pytest.raises(ValueError):
            analyzer.analyze([1.0])


class TestPlacementTimingCost:
    def _sites(self, circuit):
        """A simple linear placement: (cell -> site id, site xs, site
        ys), plus one spare far site (the last id) to move cells to."""
        site_of, xs, ys = {}, [], []

        def place(cell, x):
            site_of[cell] = len(xs)
            xs.append(x)
            ys.append(0)

        x = 0
        for inp in circuit.inputs:
            place(f"pad:{inp}", x)
            x += 1
        for name in sorted(circuit.blocks):
            place(name, x)
            x += 1
        for out in circuit.outputs:
            place(f"pad:{out}", x)
            x += 3
        xs.append(9)
        ys.append(7)
        return site_of, xs, ys

    def test_incremental_matches_recompute(self):
        c = branchy()
        config = CriticalityConfig(exponent=2.0)
        cost = PlacementTimingCost(config)
        cost.add_circuit(c)
        site_of, xs, ys = self._sites(c)
        cost.bind(site_of, xs, ys)
        before = cost.cost
        assert before > 0
        # Move 'z' far away and commit the touched connections.
        site_of["z"] = len(xs) - 1
        touched = cost.conns_of(["z"])
        assert touched
        cost.commit(touched, cost.eval_conns(touched))
        # The running cost equals a from-scratch weighted sum.
        fresh = cost.eval_conns(range(len(cost.weight)))
        assert cost.cost == pytest.approx(
            sum(w * fresh[i] for i, w in enumerate(cost.weight))
        )
        assert cost.cost > before
        # Delays come from the delay model at Manhattan distance.
        model = config.model
        for i, delay in enumerate(fresh):
            assert delay == cost.delay[i]
        z = site_of["z"]
        for i in touched:
            a = site_of[cost._src_keys[i]]
            b = site_of[cost._snk_keys[i]]
            assert z in (a, b)
            assert cost.delay[i] == model.connection_delay(
                abs(xs[a] - xs[b]) + abs(ys[a] - ys[b])
            )

    def test_refresh_reflects_new_delays(self):
        c = chain(2)
        cost = PlacementTimingCost(CriticalityConfig())
        cost.add_circuit(c)
        cost.bind(*self._sites(c))
        # All arcs lie on the only path: fully critical (capped).
        cap = cost.config.max_criticality
        assert all(
            w == pytest.approx(cap) for w in cost.weight
        )


@pytest.fixture(scope="module")
def placed_chain():
    # Purely combinational: one path end to end, so every connection
    # must come out fully critical whatever the placement distances.
    circuit = chain(3)
    arch = size_for_circuits(
        circuit.n_luts(),
        len(circuit.inputs) + len(circuit.outputs),
        channel_width=8,
    )
    placement = place_circuit(circuit, arch, seed=1)
    return circuit, arch, placement


class TestRouterAdapters:
    def test_lut_connection_criticalities_keys(self, placed_chain):
        circuit, arch, placement = placed_chain
        rrg = build_rrg(arch)
        config = CriticalityConfig()
        crit = lut_connection_criticalities(
            circuit, placement, rrg, config
        )
        # One key per (net, sink site); all in [0, max_criticality].
        assert crit
        for (net, sink), weight in crit.items():
            assert net.startswith("m0:")
            assert isinstance(sink, int)
            assert 0.0 <= weight <= config.max_criticality
        # A single-path circuit is critical everywhere.
        assert all(
            w == pytest.approx(config.max_criticality)
            for w in crit.values()
        )

    def test_tunable_criticalities_cover_connections(self):
        from repro.core.merge import merge_by_index
        from repro.core.combined_placement import tplace

        m0 = chain(2)
        m1 = branchy()
        arch = size_for_circuits(
            max(m0.n_luts(), m1.n_luts()), 4, channel_width=8
        )
        tunable = merge_by_index("t", [m0, m1])
        tplace(tunable, arch, seed=0, randomize=True)
        rrg = build_rrg(arch)
        config = CriticalityConfig()
        crit = tunable_connection_criticalities(
            tunable, rrg, config
        )
        assert crit
        carriers = tunable_carriers(tunable)
        sources = {name for name, _snk in crit}
        assert sources <= (
            set(tunable.tluts) | set(tunable.pads)
        )
        # Every specialised cell resolves to a carrier.
        for mode in range(tunable.n_modes):
            circuit = tunable.specialize(mode)
            for block in circuit.blocks:
                assert (mode, block) in carriers
