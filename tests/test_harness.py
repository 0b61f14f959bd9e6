"""Tests for the paper's tables over campaign records.

The tables are pure functions of run records, so aggregation and
printers are exercised on hand-written records; one test implements a
tiny registered pair and checks the record-based numbers against the
``MultiModeResult`` they were extracted from.
"""

import pytest

from repro.bench import harness
from repro.bench.campaign import PRESETS, extract_payload
from repro.bench.harness import _aggregate
from repro.core.flow import FlowOptions, implement_multi_mode
from repro.core.merge import MergeStrategy
from repro.gen.spec import build_circuit
from repro.gen.suites import suite_pair_specs, suite_pairs


def make_record(suite, mdr_total, em_total, wl_total, i=0,
                lut_bits=100, diff_routing=50):
    """One run record carrying every field the tables read.

    Wire counts put the DCS:MDR wire ratio at ``1.5 + 0.1 i`` (edge
    matching) and ``1.1 + 0.05 i`` (wire length).
    """
    def dcs(total, wires, ratios):
        return {
            "total_bits": total,
            "routing_bits": total - lut_bits,
            "wirelength": [wires, wires],
            "fmax": [0.4, 0.5],
            "frequency_ratios": ratios,
        }

    return {
        "suite": suite,
        "mdr": {
            "total_bits": mdr_total,
            "routing_bits": mdr_total - lut_bits,
            "diff_routing_bits": diff_routing,
            "wirelength": [200, 200],
            "fmax": [0.5, 0.6],
        },
        "dcs": {
            "edge_matching": dcs(em_total, 300 + 20 * i, [1.2, 1.3]),
            "wire_length": dcs(wl_total, 220 + 10 * i, [1.0, 1.1]),
        },
    }


def fake_records(suite="regexp"):
    return [
        make_record(suite, mdr_total, em_total, wl_total, i)
        for i, (mdr_total, em_total, wl_total) in enumerate([
            (1000, 220, 200), (1200, 220, 260), (900, 190, 170),
        ])
    ]


class TestAggregation:
    def test_aggregate(self):
        low, mean, high = _aggregate([3.0, 1.0, 2.0])
        assert (low, high) == (1.0, 3.0)
        assert mean == pytest.approx(2.0)

    def test_figure5_rows(self):
        rows = harness.figure5(fake_records())
        assert len(rows) == 2
        wl = next(r for r in rows if "Wire" in r["variant"])
        assert wl["suite"] == "RegExp"
        assert wl["min"] <= wl["mean"] <= wl["max"]
        assert wl["mean"] == (1000 / 200 + 1200 / 260 + 900 / 170) / 3
        text = harness.print_figure5(rows)
        assert "MDR (base)" in text
        assert "DCS-Wire length" in text

    def test_figure7_rows(self):
        rows = harness.figure7(fake_records("fir"))
        wl = next(r for r in rows if "Wire" in r["variant"])
        assert wl["suite"] == "FIR"
        assert wl["mean"] == pytest.approx(
            100 * (1.1 + 1.15 + 1.2) / 3
        )
        assert "100.0" in harness.print_figure7(rows)

    def test_figure6_rows(self):
        records = fake_records() + fake_records("fir")
        rows = harness.figure6(records)
        assert [r["label"] for r in rows] == [
            "RegExp-MDR", "RegExp-Diff", "RegExp-DCS",
        ]
        mdr = rows[0]
        # LUT bits are total minus routing bits; FIR records ignored.
        assert [r["lut_bits"] for r in rows] == [100.0] * 3
        assert mdr["lut_pct_of_mdr"] + mdr["routing_pct_of_mdr"] == (
            pytest.approx(100.0)
        )
        # Diff routing bits (50) < MDR routing bits.
        assert rows[1]["routing_bits"] < rows[0]["routing_bits"]
        assert rows[2]["routing_bits"] == pytest.approx(
            (100 + 160 + 70) / 3
        )
        text = harness.print_figure6(rows)
        assert "region effect" in text

    def test_sta_and_fmax_rows(self):
        records = fake_records()
        rows = harness.sta_table(records)
        assert [r["variant"] for r in rows] == [
            "DCS-Edge matching", "DCS-Wire length",
        ]
        assert rows[1]["mean"] == pytest.approx(1.05)
        assert "routed critical-path" in harness.print_sta_table(rows)

        fmax_rows = harness.fmax_table(records)
        em, wl = fmax_rows
        assert em["mdr_fmax"] == pytest.approx(0.55)
        assert em["dcs_fmax"] == pytest.approx(0.45)
        assert (wl["ratio_min"], wl["ratio_max"]) == (1.0, 1.1)
        assert em["ratio_mean"] == pytest.approx(1.25)
        text = harness.print_fmax_table(fmax_rows)
        assert "MDR:DCS frequency ratio" in text
        assert "0.5500" in text

    def test_table1_printer(self):
        rows = [
            {"suite": "RegExp", "minimum": 222, "average": 232,
             "maximum": 253},
        ]
        text = harness.print_table1(rows)
        assert "TABLE I" in text and "222" in text

    def test_area_printer(self):
        rows = [{
            "suite": "FIR", "baseline": "generic FIR filter",
            "area_pct": 33.0, "min": 30.0, "max": 40.0,
        }]
        text = harness.print_area_table(rows)
        assert "33.0" in text


class TestSuiteAssembly:
    def test_effort_profiles_exist(self):
        assert set(harness.EFFORT_PRESETS) == {
            "quick", "default", "paper",
        }
        assert set(harness.EFFORT_PRESETS.values()) <= set(PRESETS)
        assert PRESETS["paper"].pairs_per_suite is None
        quick = PRESETS["paper-quick"]
        assert (quick.scale, quick.pairs_per_suite, quick.inner_num) == (
            "quick", 2, 0.1
        )
        default = PRESETS["paper-default"]
        assert (
            default.scale, default.pairs_per_suite, default.inner_num
        ) == ("default", 4, 0.3)

    def test_bad_effort_rejected(self):
        with pytest.raises(ValueError):
            harness.experiment_spec("warp")

    def test_pair_structure_regexp(self):
        spec = harness.experiment_spec("quick")
        pairs = suite_pairs(
            "RegExp", scale=spec.scale, limit=spec.pairs_per_suite
        )
        assert len(pairs) == 2  # quick truncates C(5,2)=10 to 2
        for name, modes in pairs:
            assert name.startswith("regexp_")
            assert len(modes) == 2
            assert modes[0].name != modes[1].name

    def test_pair_structure_fir(self):
        spec = harness.experiment_spec("quick")
        pairs = suite_pairs(
            "FIR", scale=spec.scale, limit=spec.pairs_per_suite
        )
        for _name, (lp, hp) in pairs:
            assert "lp" in lp.name and "hp" in hp.name
            # Shared IO names so the pads merge.
            assert set(lp.inputs) == set(hp.inputs)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            suite_pair_specs("Crypto")

    def test_suites_are_cached(self):
        # regexp_01 and regexp_02 share mode regexp0: the registry
        # builds it once and both pairs hold the same circuit.
        pairs = suite_pairs("RegExp", scale="quick", limit=2)
        assert pairs[0][1][0] is pairs[1][1][0]

    @pytest.mark.slow
    def test_table1_real_sizes(self):
        rows = harness.table1(0, 4, "quick")
        by_suite = {r["suite"]: r for r in rows}
        assert 190 <= by_suite["RegExp"]["minimum"]
        assert by_suite["MCNC"]["maximum"] <= 465


class TestStaTable:
    def test_sta_table_rows(self):
        # One tiny registered pair, implemented directly and turned
        # into a record by the campaign worker's own builder.
        name, specs = suite_pair_specs("klut", scale="tiny", limit=1)[0]
        modes = [build_circuit(spec) for spec in specs]
        options = FlowOptions(seed=0, inner_num=0.1)
        strategies = (
            MergeStrategy.EDGE_MATCHING, MergeStrategy.WIRE_LENGTH,
        )
        result = implement_multi_mode(
            name, modes, options, strategies=strategies
        )
        record = {"suite": "klut", "pair": name}
        record.update(
            extract_payload(specs, modes, result, options, strategies)
        )
        records = [record]

        # Fig. 5/7 from the record are the result's own floats.
        by_label = {
            label: strategy for strategy, label in harness._STRATEGIES
        }
        for row in harness.figure5(records):
            speedup = result.speedup(by_label[row["variant"]])
            assert row["mean"] == row["min"] == speedup
        for row in harness.figure7(records):
            ratio = result.wirelength_ratio(by_label[row["variant"]])
            assert row["mean"] == row["max"] == 100.0 * ratio

        rows = harness.sta_table(records)
        assert len(rows) == 2  # both strategies
        for row in rows:
            assert row["min"] <= row["mean"] <= row["max"]
            assert 0.2 < row["mean"] < 5.0
        text = harness.print_sta_table(rows)
        assert "routed critical-path" in text
        assert "DCS-Wire length" in text

        # Same records feed the Fmax table (the paper's speed
        # comparison): positive frequencies, ratio aggregates ordered,
        # and the frequency ratio consistent with the STA-delay ratio
        # (fmax_mdr / fmax_dcs == delay_dcs / delay_mdr per mode).
        fmax_rows = harness.fmax_table(records)
        assert len(fmax_rows) == 2
        by_variant = {r["variant"]: r for r in fmax_rows}
        sta_by_variant = {r["variant"]: r for r in rows}
        for variant, row in by_variant.items():
            assert row["mdr_fmax"] > 0
            assert row["dcs_fmax"] > 0
            assert (
                row["ratio_min"] <= row["ratio_mean"]
                <= row["ratio_max"]
            )
            assert row["ratio_mean"] == pytest.approx(
                sta_by_variant[variant]["mean"]
            )
        text = harness.print_fmax_table(fmax_rows)
        assert "MDR:DCS frequency ratio" in text
        assert "DCS-Wire length" in text
