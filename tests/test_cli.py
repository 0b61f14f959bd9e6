"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

TINY_BLIF = """\
.model tiny
.inputs a b
.outputs y
.names a b y
11 1
.end
"""

MODE_A = """\
.model mode_a
.inputs a b
.outputs y
.names a b y
11 1
.end
"""

MODE_B = """\
.model mode_b
.inputs a b
.outputs y
.names a b y
1- 1
-1 1
.end
"""


@pytest.fixture()
def blif_file(tmp_path):
    path = tmp_path / "tiny.blif"
    path.write_text(TINY_BLIF)
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_map_defaults(self):
        args = build_parser().parse_args(["map", "x.blif"])
        assert args.k == 4
        assert args.output is None

    def test_implement_strategy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["implement", "a", "b", "--strategies", "magic"]
            )


class TestMapCommand:
    def test_map_to_stdout(self, blif_file, capsys):
        assert main(["map", blif_file]) == 0
        out = capsys.readouterr().out
        assert ".model tiny" in out
        assert ".names" in out

    def test_map_to_file_with_verify(self, blif_file, tmp_path,
                                     capsys):
        out_path = tmp_path / "mapped.blif"
        code = main(
            ["map", blif_file, "-o", str(out_path), "--verify"]
        )
        assert code == 0
        assert out_path.exists()
        text = capsys.readouterr().out
        assert "4-LUTs" in text

    def test_map_k6(self, blif_file, capsys):
        assert main(["map", blif_file, "-k", "6"]) == 0


class TestInfoCommand:
    def test_info(self, blif_file, capsys):
        assert main(["info", blif_file]) == 0
        out = capsys.readouterr().out
        assert "model:    tiny" in out
        assert "inputs:   2" in out
        assert "4-LUTs:" in out


class TestImplementCommand:
    def test_implement_two_modes(self, tmp_path, capsys):
        a = tmp_path / "a.blif"
        b = tmp_path / "b.blif"
        a.write_text(MODE_A)
        b.write_text(MODE_B)
        code = main([
            "implement", str(a), str(b),
            "--effort", "0.3", "--channel-width", "5",
            "--strategies", "wire_length",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "MDR rewrites" in out
        assert "speed-up" in out


class TestExport:
    def test_export_writes_vpr_artefacts(self, blif_file, tmp_path,
                                         capsys):
        outdir = tmp_path / "vpr"
        assert main(
            ["export", blif_file, "-o", str(outdir)]
        ) == 0
        out = capsys.readouterr().out
        for suffix in (".arch", ".net", ".place", ".route"):
            files = list(outdir.glob(f"*{suffix}"))
            assert len(files) == 1, suffix
            assert files[0].read_text().strip()
        assert "wrote" in out

    def test_exported_place_parses_back(self, blif_file, tmp_path):
        from repro.interop import parse_arch, parse_place_file

        outdir = tmp_path / "vpr"
        main(["export", blif_file, "-o", str(outdir)])
        arch_text = next(outdir.glob("*.arch")).read_text()
        place_text = next(outdir.glob("*.place")).read_text()
        # Array size is in the place file header.
        size_line = next(
            line for line in place_text.splitlines()
            if line.startswith("Array size:")
        )
        nx, ny = int(size_line.split()[2]), int(size_line.split()[4])
        arch = parse_arch(arch_text).to_architecture(
            nx, ny, channel_width=12
        )
        placement = parse_place_file(place_text, arch)
        assert placement.sites


class TestReport:
    def test_report_to_file_with_svg(self, tmp_path, capsys):
        a = tmp_path / "a.blif"
        b = tmp_path / "b.blif"
        a.write_text(MODE_A)
        b.write_text(MODE_B)
        report_path = tmp_path / "impl.md"
        svg_path = tmp_path / "impl.svg"
        assert main([
            "report", str(a), str(b),
            "-o", str(report_path), "--svg", str(svg_path),
            "--effort", "0.1",
        ]) == 0
        text = report_path.read_text()
        assert "# Multi-mode implementation report" in text
        assert "## Reconfiguration cost" in text
        assert svg_path.read_text().startswith("<?xml")

    def test_report_to_stdout(self, tmp_path, capsys):
        a = tmp_path / "a.blif"
        b = tmp_path / "b.blif"
        a.write_text(MODE_A)
        b.write_text(MODE_B)
        assert main(["report", str(a), str(b),
                     "--effort", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Per-mode wire usage" in out


class TestExperimentsCommand:
    """``repro experiments`` is a client of ``run_campaign``; the flow
    itself is stubbed out here."""

    @staticmethod
    def _record():
        dcs = {
            "total_bits": 250, "routing_bits": 150,
            "wirelength": [12, 14], "fmax": [0.4, 0.5],
            "frequency_ratios": [1.0, 1.1],
        }
        return {
            "suite": "regexp",
            "mdr": {
                "total_bits": 1000, "routing_bits": 900,
                "diff_routing_bits": 300, "wirelength": [10, 12],
                "fmax": [0.45, 0.55],
            },
            "dcs": {"edge_matching": dcs, "wire_length": dcs},
        }

    @pytest.fixture()
    def ran(self, monkeypatch):
        from repro.bench import campaign, harness

        specs = []

        def fake_run_campaign(spec, **_kwargs):
            specs.append(spec)
            return campaign.CampaignResult(spec, [self._record()], {})

        monkeypatch.setattr(campaign, "run_campaign", fake_run_campaign)
        # Table I and the area table build circuits, not flow runs;
        # keep this test at unit speed.
        monkeypatch.setattr(harness, "table1", lambda *args: [])
        monkeypatch.setattr(harness, "area_table", lambda *args: [])
        return specs

    @pytest.mark.parametrize("effort, preset", [
        ("quick", "paper-quick"),
        ("default", "paper-default"),
        ("paper", "paper"),
    ])
    def test_effort_runs_its_preset(self, ran, capsys, effort, preset):
        assert main([
            "experiments", "--effort", effort, "--seed", "3",
            "--no-cache",
        ]) == 0
        (spec,) = ran
        assert spec.name == preset
        assert spec.seeds == (3,)
        (variant,) = spec.variants
        assert variant.label == "wirelength"
        assert not variant.timing_driven
        assert (variant.criticality_exponent, variant.timing_tradeoff) == (
            1.0, 0.5
        )
        out = capsys.readouterr().out
        for title in ("TABLE I", "Fig. 5", "Fig. 6", "Fig. 7",
                      "Section IV-C", "routed critical-path",
                      "MDR:DCS frequency ratio"):
            assert title in out
        assert "RegExp" in out

    def test_timing_knobs_reach_the_variant(self, ran, capsys):
        assert main([
            "experiments", "--timing-driven",
            "--criticality-exponent", "2", "--timing-tradeoff", "0.25",
            "--no-cache",
        ]) == 0
        (spec,) = ran
        assert spec.name == "paper-quick"
        assert spec.seeds == (0,)
        (variant,) = spec.variants
        assert variant.label == "timing"
        assert variant.timing_driven
        assert variant.criticality_exponent == 2.0
        assert variant.timing_tradeoff == 0.25
        assert "ignored" not in capsys.readouterr().err
