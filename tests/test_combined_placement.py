"""Tests for the combined placement and TPlace."""

import pytest

from repro.arch.architecture import FpgaArchitecture
from repro.core.combined_placement import (
    CombinedPlacementProblem,
    combined_place,
    merge_with_combined_placement,
    tplace,
)
from repro.core.merge import MergeStrategy, merge_by_index
from repro.netlist.simulate import equivalent
from repro.place.annealing import AnnealingSchedule
from repro.place.cost import net_bounding_box_cost
from repro.utils.rng import make_rng

from tests.test_tunable import two_mode_circuits

ARCH = FpgaArchitecture(nx=4, ny=4, channel_width=6)
FAST = AnnealingSchedule(inner_num=0.5)


class TestProblem:
    def _problem(self, strategy):
        m0, m1 = two_mode_circuits()
        rng = make_rng(0)
        return CombinedPlacementProblem(
            ARCH, [m0, m1], rng, strategy
        )

    @staticmethod
    def _assert_legal(p):
        """Per mode, no two blocks share a site; pads never share one;
        the occupancy names every cell at its own site."""
        for mode in range(2):
            sites = [
                p.site_of[cell]
                for cell, (m, _name) in enumerate(p.block_names)
                if m == mode
            ]
            assert len(sites) == len(set(sites))
            assert all(site < p.n_clb for site in sites)
        pad_sites = [p.site_of[cell] for cell in p.pad_pool]
        assert len(pad_sites) == len(set(pad_sites))
        assert all(site >= p.n_clb for site in pad_sites)
        for cell, site in enumerate(p.site_of):
            assert p.cell_at[p.layer_base[cell] + site] == cell
        assert sum(c >= 0 for c in p.cell_at) == len(p.site_of)

    def test_initial_placement_legal(self):
        self._assert_legal(self._problem(MergeStrategy.WIRE_LENGTH))

    def test_by_index_rejected(self):
        with pytest.raises(ValueError):
            self._problem(MergeStrategy.BY_INDEX)

    def test_wirelength_delta_matches_recompute(self):
        p = self._problem(MergeStrategy.WIRE_LENGTH)
        rng = make_rng(1)
        cost = p.initial_cost()
        for _ in range(200):
            move = p.propose(rlim=8, rng=rng)
            if move is None:
                continue
            delta = p.delta_cost(move)
            p.commit(move)
            cost += delta
        self._assert_legal(p)
        # From scratch, through the Site objects.
        recomputed = sum(
            net_bounding_box_cost(
                [p.sites[p.site_of[cell]].pos() for cell in cells]
            )
            for cells in p.nets
        )
        assert cost == pytest.approx(recomputed, rel=1e-9)
        assert p.net_cost == [
            net_bounding_box_cost(
                [p.sites[p.site_of[cell]].pos() for cell in cells]
            )
            for cells in p.nets
        ]

    def test_edge_matching_delta_matches_recompute(self):
        p = self._problem(MergeStrategy.EDGE_MATCHING)
        rng = make_rng(2)
        cost = p.initial_cost()
        for _ in range(200):
            move = p.propose(rlim=8, rng=rng)
            if move is None:
                continue
            delta = p.delta_cost(move)
            p.commit(move)
            cost += delta
        self._assert_legal(p)
        # From scratch: distinct site-level connection endpoints.
        distinct = {
            (p.sites[p.site_of[src]], p.sites[p.site_of[snk]])
            for src, snk in zip(p.conn_src, p.conn_snk)
        }
        assert cost == len(distinct)

    def test_mode_swap_moves_one_mode_only(self):
        p = self._problem(MergeStrategy.WIRE_LENGTH)
        rng = make_rng(3)
        move = None
        while move is None or move[0] >= len(p.block_names):
            move = p.propose(rlim=8, rng=rng)
        mode, _name = p.block_names[move[0]]
        other_mode = 1 - mode

        def other_sites():
            return {
                key: p.site_of[cell]
                for cell, key in enumerate(p.block_names)
                if key[0] == other_mode
            }

        before = other_sites()
        p.commit(move)
        assert other_sites() == before  # paper: other modes keep position
        self._assert_legal(p)


class TestCombinedPlace:
    def test_wirelength_optimisation_improves(self):
        m0, m1 = two_mode_circuits()
        result = combined_place(
            [m0, m1], ARCH, MergeStrategy.WIRE_LENGTH,
            seed=1, schedule=FAST,
        )
        assert result.stats.final_cost <= result.stats.initial_cost
        assert result.wirelength == pytest.approx(
            result.cost, rel=1e-9
        )

    def test_edge_matching_merges_connections(self):
        m0, m1 = two_mode_circuits()
        result = combined_place(
            [m0, m1], ARCH, MergeStrategy.EDGE_MATCHING,
            seed=1, schedule=FAST,
        )
        total_conns = 0
        for c in (m0, m1):
            total_conns += len(c.connections())
        # Merging must save at least one connection on these twins.
        assert result.n_tunable_connections < total_conns

    def test_merge_with_combined_placement_equivalence(self):
        m0, m1 = two_mode_circuits()
        tunable, placement = merge_with_combined_placement(
            "mm", [m0, m1], ARCH,
            MergeStrategy.WIRE_LENGTH, seed=2, schedule=FAST,
        )
        assert equivalent(tunable.specialize(0), m0)
        assert equivalent(tunable.specialize(1), m1)
        # All tunable cells carry sites.
        assert all(t.site is not None for t in tunable.tluts.values())
        assert all(p.site is not None for p in tunable.pads.values())

    def test_deterministic(self):
        m0, m1 = two_mode_circuits()
        r1 = combined_place([m0, m1], ARCH, seed=9, schedule=FAST)
        r2 = combined_place([m0, m1], ARCH, seed=9, schedule=FAST)
        assert r1.block_sites == r2.block_sites
        assert r1.pad_sites == r2.pad_sites


class TestTPlace:
    def test_refines_merged_circuit(self):
        m0, m1 = two_mode_circuits()
        tunable = merge_by_index("mm", [m0, m1])
        stats = tplace(
            tunable, ARCH, seed=0, schedule=FAST, randomize=True
        )
        assert stats.final_cost <= stats.initial_cost
        assert all(t.site is not None for t in tunable.tluts.values())
        # Still correct after placement.
        assert equivalent(tunable.specialize(0), m0)
        assert equivalent(tunable.specialize(1), m1)

    def test_keeps_existing_sites_when_not_randomized(self):
        m0, m1 = two_mode_circuits()
        tunable, _ = merge_with_combined_placement(
            "mm", [m0, m1], ARCH, seed=3, schedule=FAST,
        )
        sites_before = {
            n: t.site for n, t in tunable.tluts.items()
        }
        tplace(tunable, ARCH, seed=3, schedule=FAST)
        # Sites may move, but they must remain legal CLB sites.
        for t in tunable.tluts.values():
            assert t.site.kind == "clb"
        assert set(sites_before) == set(tunable.tluts)
