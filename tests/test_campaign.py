"""Tests for the campaign runner and the CI QoR gate.

The end-to-end path runs a one-pair tiny campaign (seconds) and
asserts the JSONL schema plus warm/cold and worker-count bit-identity
— the properties the CI qor-gate and the nightly trajectory rely on.
The gate itself is exercised on real summaries: it must pass against
its own baseline and fail once a 10% wirelength regression is
injected.
"""

import copy
import json

import pytest

from repro.bench.campaign import (
    DEFAULT_TOLERANCES,
    PRESETS,
    RECORD_SCHEMA_VERSION,
    CampaignSpec,
    CampaignVariant,
    baseline_from_summary,
    campaign_runs,
    compare_to_baseline,
    load_baseline,
    load_checkpoint,
    qor_metrics,
    record_key,
    records_jsonl,
    run_campaign,
    write_baseline,
    write_jsonl,
)
from repro.exec.cache import StageCache
from repro.gen.suites import registered_suites

TINY = CampaignSpec(
    name="tiny-test",
    description="one tiny klut pair, wirelength-driven",
    suites=("klut",),
    scale="tiny",
    pairs_per_suite=1,
    inner_num=0.05,
    variants=(CampaignVariant("wirelength"),),
)

RECORD_KEYS = {
    "schema", "campaign", "suite", "pair", "variant", "seed", "key",
    "modes", "arch", "options", "mdr", "dcs",
}


@pytest.fixture(scope="module")
def tiny_outcome(tmp_path_factory):
    """One cold campaign run with a persistent cache (shared by the
    read-only assertions below)."""
    cache_dir = tmp_path_factory.mktemp("campaign-cache")
    result = run_campaign(TINY, workers=1, cache=StageCache(cache_dir))
    return cache_dir, result


class TestCampaignEndToEnd:
    @pytest.mark.smoke
    def test_jsonl_schema_and_determinism(self, tmp_path):
        """The acceptance property: bit-identical JSONL across
        warm/cold caches and worker counts, with a stable schema."""
        cache = StageCache(tmp_path / "cache")
        cold = run_campaign(TINY, workers=1, cache=cache)
        warm = run_campaign(
            TINY, workers=1, cache=StageCache(tmp_path / "cache")
        )
        parallel = run_campaign(
            TINY, workers=2,
            cache=StageCache(tmp_path / "cache2"),
        )

        text = records_jsonl(cold.records)
        assert text == records_jsonl(warm.records)
        assert text == records_jsonl(parallel.records)

        # Warm reruns replay every record from the campaign cache.
        assert warm.summary["cache"]["record_hits"] == len(
            warm.records
        )
        assert cold.summary["cache"]["record_hits"] == 0

        # Schema: every line parses back to a full record.
        lines = text.strip().splitlines()
        assert len(lines) == len(cold.records) == 1
        for line in lines:
            record = json.loads(line)
            assert set(record) == RECORD_KEYS
            assert record["campaign"] == "tiny-test"
            assert record["suite"] == "klut"
            assert record["mdr"]["wirelength"]
            assert record["mdr"]["fmax"]
            for row in record["dcs"].values():
                assert row["speedup"] > 0
                assert len(row["frequency_ratios"]) == len(
                    record["modes"]
                )

    def test_jsonl_file_round_trip(self, tiny_outcome, tmp_path):
        _cache, result = tiny_outcome
        path = tmp_path / "records.jsonl"
        write_jsonl(result.records, str(path))
        parsed = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert parsed == json.loads(
            json.dumps(result.records)
        )

    def test_summary_shape(self, tiny_outcome):
        _cache, result = tiny_outcome
        summary = result.summary
        assert summary["schema_version"] == 1
        assert summary["campaign"] == "tiny-test"
        assert summary["n_runs"] == 1
        assert summary["seconds"] > 0
        assert "campaign" in summary["stages"]
        assert "klut/wirelength" in summary["qor"]
        row = summary["qor"]["klut/wirelength"]
        assert row["mdr_wirelength"] > 0
        assert row["mean_mdr_fmax"] > 0

    def test_run_grid_order_is_deterministic(self):
        runs_a = campaign_runs(PRESETS["ci-smoke"])
        runs_b = campaign_runs(PRESETS["ci-smoke"])
        assert runs_a == runs_b
        labels = [
            (suite, pair, variant.label, seed)
            for suite, pair, _specs, variant, seed in runs_a
        ]
        assert len(set(labels)) == len(labels)

    def test_presets_are_well_formed(self):
        suites = set(registered_suites())
        for name, preset in PRESETS.items():
            assert preset.name == name
            assert set(preset.suites) <= suites
            assert preset.variants
            assert campaign_runs(preset), name

    def test_ci_smoke_covers_all_generator_families(self):
        assert set(PRESETS["ci-smoke"].suites) == {
            "datapath", "fsm", "xbar", "klut"
        }
        labels = {v.label for v in PRESETS["ci-smoke"].variants}
        assert len(labels) == 2  # wirelength- and timing-driven


class TestSizingAxis:
    def test_sizing_search_variant_runs_and_is_recorded(self):
        """The --sizing search axis: the same pair implemented with
        the estimator and with the paper's minimum-width search must
        both complete, carry their policy in the record options, and
        stay internally consistent."""
        spec = CampaignSpec(
            name="sizing-test",
            description="sizing axis on one tiny xbar pair",
            suites=("xbar",),
            scale="tiny",
            pairs_per_suite=1,
            inner_num=0.05,
            variants=(
                CampaignVariant("estimate"),
                CampaignVariant("search", sizing="search"),
            ),
        )
        result = run_campaign(spec, workers=1)
        assert len(result.records) == 2
        by_variant = {r["variant"]: r for r in result.records}
        assert by_variant["estimate"]["options"]["sizing"] == (
            "estimate"
        )
        assert by_variant["search"]["options"]["sizing"] == "search"
        for record in result.records:
            assert record["arch"]["channel_width"] >= 1
            assert record["mdr"]["total_bits"] > 0

    def test_sizing_search_preset_exists(self):
        preset = PRESETS["sizing-search"]
        sizings = {v.sizing for v in preset.variants}
        assert sizings == {"estimate", "search"}


TWO_RUN = CampaignSpec(
    name="resume-test",
    description="two tiny klut pairs, wirelength-driven",
    suites=("klut",),
    scale="tiny",
    pairs_per_suite=2,
    inner_num=0.05,
    variants=(CampaignVariant("wirelength"),),
)


class TestCheckpointResume:
    """The tentpole contract: the JSONL is the checkpoint.

    A campaign killed after k of n runs (including a torn final
    line) and resumed with ``resume=True`` must produce a JSONL
    byte-identical to an uninterrupted run, executing only the
    missing runs.
    """

    @pytest.fixture(scope="class")
    def uninterrupted(self, tmp_path_factory):
        """One full checkpointed run; its JSONL text is the byte
        reference, its cache dir is shared so reruns are fast."""
        root = tmp_path_factory.mktemp("resume")
        checkpoint = root / "full.jsonl"
        result = run_campaign(
            TWO_RUN, workers=1,
            cache=StageCache(root / "cache"),
            checkpoint=str(checkpoint),
        )
        return root, checkpoint.read_text(), result

    def test_checkpoint_equals_records_and_carries_keys(
        self, uninterrupted
    ):
        _root, text, result = uninterrupted
        assert text == records_jsonl(result.records)
        runs = campaign_runs(TWO_RUN)
        assert [r["key"] for r in result.records] == [
            record_key(TWO_RUN, suite, pair, specs, variant, seed)
            for suite, pair, specs, variant, seed in runs
        ]

    @pytest.mark.parametrize("kept", [0, 1])
    def test_resume_after_torn_truncation_is_byte_identical(
        self, uninterrupted, tmp_path, kept
    ):
        """Kill simulation: keep `kept` complete records plus half of
        the next line, resume, compare bytes."""
        root, text, _result = uninterrupted
        lines = text.splitlines(keepends=True)
        torn = "".join(lines[:kept]) + lines[kept][: len(lines[kept]) // 2]
        checkpoint = tmp_path / "torn.jsonl"
        checkpoint.write_text(torn)
        resumed = run_campaign(
            TWO_RUN, workers=1,
            cache=StageCache(root / "cache"),
            checkpoint=str(checkpoint), resume=True,
        )
        assert checkpoint.read_text() == text
        assert records_jsonl(resumed.records) == text
        assert resumed.summary["cache"]["resumed_records"] == kept

    def test_resume_skips_nothing_on_key_mismatch(
        self, uninterrupted, tmp_path
    ):
        """A record whose key no longer matches (stale code, edited
        options, hand-tampering) is recomputed, not trusted."""
        root, text, _result = uninterrupted
        lines = text.splitlines()
        tampered = json.loads(lines[0])
        tampered["key"] = "0" * 64
        checkpoint = tmp_path / "stale.jsonl"
        checkpoint.write_text(
            json.dumps(tampered, sort_keys=True,
                       separators=(",", ":"))
            + "\n" + lines[1] + "\n"
        )
        resumed = run_campaign(
            TWO_RUN, workers=1,
            cache=StageCache(root / "cache"),
            checkpoint=str(checkpoint), resume=True,
        )
        assert resumed.summary["cache"]["resumed_records"] == 1
        assert checkpoint.read_text() == text

    def test_without_resume_flag_checkpoint_is_overwritten(
        self, uninterrupted, tmp_path
    ):
        root, text, _result = uninterrupted
        checkpoint = tmp_path / "old.jsonl"
        checkpoint.write_text(text)
        fresh = run_campaign(
            TWO_RUN, workers=1,
            cache=StageCache(root / "cache"),
            checkpoint=str(checkpoint), resume=False,
        )
        assert fresh.summary["cache"]["resumed_records"] == 0
        assert checkpoint.read_text() == text  # recomputed, same QoR

    def test_load_checkpoint_filters_garbage(
        self, uninterrupted, tmp_path
    ):
        _root, text, result = uninterrupted
        keys = [r["key"] for r in result.records]
        wrong_schema = dict(result.records[0])
        wrong_schema["schema"] = RECORD_SCHEMA_VERSION - 1
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            "not json at all\n"
            + json.dumps(["a", "list"]) + "\n"
            + json.dumps(wrong_schema) + "\n"
            + text.splitlines(keepends=True)[1]
            + '{"torn": tru'
        )
        harvested = load_checkpoint(str(path), keys)
        assert set(harvested) == {keys[1]}
        assert load_checkpoint(str(tmp_path / "missing"), keys) == {}

    def test_resumed_jsonl_reorders_to_grid_order(
        self, uninterrupted, tmp_path
    ):
        """Records harvested out of grid order (hand-merged files)
        still come out in grid order, byte-identical."""
        root, text, _result = uninterrupted
        lines = text.splitlines(keepends=True)
        checkpoint = tmp_path / "reversed.jsonl"
        checkpoint.write_text("".join(reversed(lines)))
        resumed = run_campaign(
            TWO_RUN, workers=1,
            cache=StageCache(root / "cache"),
            checkpoint=str(checkpoint), resume=True,
        )
        assert resumed.summary["cache"]["resumed_records"] == 2
        assert checkpoint.read_text() == text


class TestQorGate:
    def test_gate_passes_against_own_baseline(self, tiny_outcome):
        _cache, result = tiny_outcome
        baseline = baseline_from_summary(result.summary)
        assert compare_to_baseline(result.summary, baseline) == []

    def test_gate_fails_on_injected_wirelength_regression(
        self, tiny_outcome
    ):
        """The ISSUE's acceptance demo: +10% wirelength must trip the
        gate (tolerance is 5%)."""
        _cache, result = tiny_outcome
        baseline = baseline_from_summary(result.summary)
        worse = copy.deepcopy(result.summary)
        group = worse["qor"]["klut/wirelength"]
        group["mdr_wirelength"] = int(
            group["mdr_wirelength"] * 1.10
        ) + 1
        violations = compare_to_baseline(worse, baseline)
        assert violations
        assert any("mdr_wirelength" in v for v in violations)

    def test_gate_fails_on_edge_matching_bits(self, tiny_outcome):
        """Edge matching's parameterised bits are gated at the
        param_bits tolerance (+1%); a baseline written before the
        metric existed does not gate it."""
        _cache, result = tiny_outcome
        baseline = baseline_from_summary(result.summary)
        base = baseline["qor"]["klut/wirelength"]
        assert base["em_param_bits"] > 0
        worse = copy.deepcopy(result.summary)
        worse["qor"]["klut/wirelength"]["em_param_bits"] = int(
            base["em_param_bits"] * 1.02
        ) + 1
        violations = compare_to_baseline(worse, baseline)
        assert len(violations) == 1
        assert "em_param_bits" in violations[0]
        del base["em_param_bits"]
        assert compare_to_baseline(worse, baseline) == []

    def test_gate_fails_on_fmax_and_speedup_drops(self, tiny_outcome):
        _cache, result = tiny_outcome
        baseline = baseline_from_summary(result.summary)
        worse = copy.deepcopy(result.summary)
        group = worse["qor"]["klut/wirelength"]
        group["mean_dcs_fmax"] *= 0.9
        group["mean_speedup"] *= 0.85
        violations = compare_to_baseline(worse, baseline)
        assert any("mean_dcs_fmax" in v for v in violations)
        assert any("mean_speedup" in v for v in violations)

    def test_gate_ignores_improvements_and_small_noise(
        self, tiny_outcome
    ):
        _cache, result = tiny_outcome
        baseline = baseline_from_summary(result.summary)
        better = copy.deepcopy(result.summary)
        group = better["qor"]["klut/wirelength"]
        group["mdr_wirelength"] = int(group["mdr_wirelength"] * 0.8)
        group["mean_dcs_fmax"] *= 1.2
        # +2% wirelength is inside the 5% tolerance.
        group["dcs_wirelength"] = int(
            group["dcs_wirelength"] * 1.02
        )
        assert compare_to_baseline(better, baseline) == []

    def test_gate_fails_on_missing_group_and_runtime(
        self, tiny_outcome
    ):
        _cache, result = tiny_outcome
        baseline = baseline_from_summary(result.summary)
        stripped = copy.deepcopy(result.summary)
        stripped["qor"] = {}
        assert any(
            "missing" in v
            for v in compare_to_baseline(stripped, baseline)
        )
        # Pin a realistic cold baseline wall-clock: below 1s the
        # runtime bound is deliberately skipped (a warm-rebaseline
        # guard), which the tiny one-pair run here can dip under.
        baseline["seconds"] = 10.0
        slow = copy.deepcopy(result.summary)
        slow["seconds"] = (
            baseline["seconds"]
            * DEFAULT_TOLERANCES["runtime_factor"] * 2
        )
        assert any(
            "runtime" in v
            for v in compare_to_baseline(slow, baseline)
        )
        # ... and a sub-second (warm-rebaselined) reference never
        # trips the runtime bound.
        baseline["seconds"] = 0.05
        slow["seconds"] = 100.0
        assert compare_to_baseline(slow, baseline) == []

    def test_gate_rejects_mismatched_campaign(self, tiny_outcome):
        _cache, result = tiny_outcome
        baseline = baseline_from_summary(result.summary)
        baseline["campaign"] = "other"
        violations = compare_to_baseline(result.summary, baseline)
        assert violations and "campaign" in violations[0]

    def test_baseline_file_round_trip(self, tiny_outcome, tmp_path):
        _cache, result = tiny_outcome
        path = tmp_path / "baseline.json"
        write_baseline(result.summary, str(path))
        loaded = load_baseline(str(path))
        assert loaded == baseline_from_summary(result.summary)
        assert compare_to_baseline(result.summary, loaded) == []

    def test_committed_baseline_matches_ci_smoke_groups(self):
        """The checked-in baseline must gate exactly the groups the
        ci-smoke preset produces (a drifted preset without a
        re-baseline would silently gate nothing)."""
        baseline = load_baseline("BENCH_qor_baseline.json")
        assert baseline["campaign"] == "ci-smoke"
        spec = PRESETS["ci-smoke"]
        expected = {
            f"{suite}/{variant.label}"
            for suite in spec.suites
            for variant in spec.variants
        }
        assert set(baseline["qor"]) == expected


class TestQorMetrics:
    def test_aggregates_over_records(self):
        def record(suite, variant, wl, fmax):
            return {
                "suite": suite, "variant": variant,
                "mdr": {"wirelength": [wl, wl], "fmax": [fmax]},
                "dcs": {
                    "wire_length": {
                        "wirelength": [wl], "fmax": [fmax],
                        "speedup": 4.0, "frequency_ratios": [1.0],
                    }
                },
            }

        metrics = qor_metrics([
            record("a", "wl", 100, 0.2),
            record("a", "wl", 200, 0.4),
            record("b", "wl", 50, 0.1),
        ])
        assert set(metrics) == {"a/wl", "b/wl"}
        assert metrics["a/wl"]["mdr_wirelength"] == 600
        assert metrics["a/wl"]["mean_mdr_fmax"] == pytest.approx(0.3)
        assert metrics["a/wl"]["n_runs"] == 2

    def test_param_bits_per_strategy(self):
        """``dcs_param_bits`` sums the wire-length strategy's bits and
        ``em_param_bits`` edge matching's; a record without edge
        matching counts 0 of the latter."""
        def strategy(bits):
            return {
                "wirelength": [10], "fmax": [0.1], "speedup": 4.0,
                "frequency_ratios": [1.0], "routing_bits": bits,
            }

        def record(dcs):
            return {
                "suite": "a", "variant": "wl",
                "mdr": {"wirelength": [10], "fmax": [0.1]},
                "dcs": dcs,
            }

        metrics = qor_metrics([
            record({"wire_length": strategy(7),
                    "edge_matching": strategy(11)}),
            record({"wire_length": strategy(5),
                    "edge_matching": strategy(13)}),
            record({"wire_length": strategy(3)}),
        ])["a/wl"]
        assert metrics["dcs_param_bits"] == 15
        assert metrics["em_param_bits"] == 24


class TestCampaignCli:
    def test_list_and_bad_preset(self, capsys):
        from repro.cli import main

        assert main(["campaign", "--list"]) == 0
        out = capsys.readouterr().out
        assert "ci-smoke" in out and "klut" in out
        assert main(["campaign", "--preset", "warp"]) == 2

    def test_requires_preset_or_suites(self, capsys):
        from repro.cli import main

        assert main(["campaign"]) == 2
        assert "--suites" in capsys.readouterr().err

    def test_adhoc_campaign_with_gate_round_trip(
        self, tmp_path, capsys
    ):
        """Write a baseline, then gate a warm rerun against it."""
        from repro.cli import main

        args = [
            "campaign", "--suites", "klut", "--scale", "tiny",
            "--pairs-per-suite", "1", "--effort", "0.05",
            "--name", "clitest",
            "--cache-dir", str(tmp_path / "cache"),
            "--jsonl", str(tmp_path / "records.jsonl"),
            "--summary", str(tmp_path / "summary.json"),
        ]
        baseline = str(tmp_path / "baseline.json")
        assert main(args + ["--write-baseline", baseline]) == 0
        assert main(args + ["--gate", baseline]) == 0
        out = capsys.readouterr().out
        assert "qor-gate: OK" in out
        # Corrupt the baseline into a stricter world: gate must fail.
        with open(baseline) as handle:
            data = json.load(handle)
        for group in data["qor"].values():
            group["mdr_wirelength"] = int(
                group["mdr_wirelength"] * 0.5
            )
        with open(baseline, "w") as handle:
            json.dump(data, handle)
        assert main(args + ["--gate", baseline]) == 1
        assert "qor-gate: FAIL" in capsys.readouterr().err

    def test_cli_resume_round_trip(self, tmp_path, capsys):
        """`repro campaign --resume` finishes a truncated JSONL to
        the exact bytes of the uninterrupted file."""
        from repro.cli import main

        jsonl = tmp_path / "records.jsonl"
        args = [
            "campaign", "--suites", "klut", "--scale", "tiny",
            "--pairs-per-suite", "2", "--effort", "0.05",
            "--name", "cliresume",
            "--cache-dir", str(tmp_path / "cache"),
            "--jsonl", str(jsonl),
            "--summary", str(tmp_path / "summary.json"),
        ]
        assert main(args) == 0
        text = jsonl.read_text()
        assert len(text.splitlines()) == 2
        lines = text.splitlines(keepends=True)
        jsonl.write_text(lines[0] + lines[1][:10])
        assert main(args + ["--resume"]) == 0
        assert jsonl.read_text() == text
        assert "1 resumed records" in capsys.readouterr().out

    def test_timing_args_warn_without_timing_driven(
        self, tmp_path, capsys
    ):
        """_warn_unused_timing_args covers the campaign subcommand."""
        from repro.cli import main

        assert main([
            "campaign", "--suites", "klut", "--scale", "tiny",
            "--pairs-per-suite", "1", "--effort", "0.05",
            "--criticality-exponent", "2.0",
            "--no-cache",
            "--jsonl", str(tmp_path / "r.jsonl"),
            "--summary", str(tmp_path / "s.json"),
        ]) == 0
        assert "no effect without --timing-driven" in (
            capsys.readouterr().err
        )

    def test_preset_ignores_timing_args_with_warning(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        # --pairs-per-suite 0 empties the run grid, so the preset
        # branch (and its warning) is exercised without flow runs.
        assert main([
            "campaign", "--preset", "ci-smoke", "--timing-driven",
            "--pairs-per-suite", "0", "--no-cache",
            "--jsonl", str(tmp_path / "r.jsonl"),
            "--summary", str(tmp_path / "s.json"),
        ]) == 0
        err = capsys.readouterr().err
        assert "ignored with --preset" in err
