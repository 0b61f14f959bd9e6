"""Command-line interface for the multi-mode tool flow.

Subcommands mirror the stages of the paper's flow:

``repro map``
    Map a BLIF circuit to K-LUTs and write the mapped BLIF.
``repro implement``
    Run the full multi-mode flow (MDR + DCS) on two or more BLIF mode
    circuits and print the reconfiguration report.
``repro experiments``
    Regenerate the paper's tables and figures: run the ``--effort``
    level's campaign preset (``paper-quick``/``paper-default``/
    ``paper``) and print every table from its run records.
``repro info``
    Print statistics of a BLIF circuit (size before/after mapping).
``repro export``
    Implement one BLIF circuit in a reconfigurable region and write
    the VPR-format artefacts (``.net``, ``.place``, ``.route``) plus
    the architecture file.
``repro report``
    Run the multi-mode flow on BLIF mode circuits and write the
    Markdown implementation report (optionally an SVG of the merged
    routing).
``repro campaign``
    Run a declarative sweep (suites x flow variants x seeds) over the
    workload registry (:mod:`repro.gen`), writing deterministic
    per-run JSONL records plus a summary JSON; ``--gate`` checks the
    summary against a committed QoR baseline (the CI ``qor-gate``)
    and ``--write-baseline`` re-baselines intentionally.  The JSONL
    is appended atomically as runs finish and doubles as a
    checkpoint: ``--resume`` continues a killed sweep from its tail.
``repro trend``
    The nightly QoR trend database (``ingest`` a campaign JSONL into
    SQLite, ``gate`` the newest run against the median of a rolling
    window of previous runs, ``report`` the Markdown drift table);
    see :mod:`repro.bench.trend`.
``repro bench-exec``
    Benchmark the execution subsystem (serial vs parallel vs warm
    cache) and write the machine-readable ``BENCH_exec.json``; the
    workload defaults to FIR pairs and ``--workload`` selects any
    registered suite.
``repro cache``
    Inspect, LRU-prune (``prune --max-size <bytes>``) or clear the
    persistent stage cache.
``repro serve``
    Run the compile service (:mod:`repro.serve`): an asyncio HTTP API
    that accepts flow submissions, dedups identical in-flight and
    completed requests by stage-cache fingerprint, and executes them
    on a resizable worker pool with priority lanes and per-tenant
    quotas.
``repro submit`` / ``repro status`` / ``repro result``
    Clients of a running ``repro serve``: submit a flow (a registered
    suite pair or an explicit ``--modes-json`` list), poll its state,
    fetch the QoR payload.

Flow-running subcommands share one option vocabulary (hoisted into
parent parsers): ``--workers N`` (pool fan-out of independent stages;
results are bit-identical to serial) and ``--cache-dir``/``--no-cache``
(persistent stage memoization; see ``repro.exec``), plus
``--timing-driven``/``--criticality-exponent``/``--timing-tradeoff``
(criticality-weighted placement and routing with per-mode Fmax and
MDR:DCS frequency ratios in the report; see
``repro.timing.criticality``).

Invoke as ``python -m repro <subcommand> ...``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.flow import FlowOptions, implement_multi_mode
from repro.core.merge import MergeStrategy
from repro.exec import ProgressLog, StageCache
from repro.netlist.blif import read_blif_file, write_lut_blif
from repro.netlist.simulate import equivalent
from repro.synth.optimize import optimize_network
from repro.synth.techmap import tech_map


def _exec_parent() -> argparse.ArgumentParser:
    """Shared ``--workers/--cache-dir/--no-cache`` group.

    A parent parser (``add_help=False``) so every flow-running
    subcommand — including ``serve`` — spells the execution knobs
    identically.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for independent flow stages "
             "(default: REPRO_WORKERS or serial)",
    )
    parent.add_argument(
        "--cache-dir", default=None,
        help="stage-cache directory (default: REPRO_CACHE_DIR or "
             "~/.cache/repro/stages)",
    )
    parent.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent stage cache",
    )
    return parent


def _exec_cache(args: argparse.Namespace) -> StageCache:
    return StageCache(args.cache_dir, enabled=not args.no_cache)


def _tradeoff(value: str) -> float:
    """argparse type for --timing-tradeoff: a float in [0, 1]."""
    tradeoff = float(value)
    if not 0.0 <= tradeoff <= 1.0:
        raise argparse.ArgumentTypeError(
            f"{value}: tradeoff must be in [0, 1]"
        )
    return tradeoff


def _timing_parent() -> argparse.ArgumentParser:
    """Shared timing-driven knob group (parent parser)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--timing-driven", action="store_true",
        help="optimise criticality-weighted delay in placement and "
             "routing (default: wire length / congestion only)",
    )
    parent.add_argument(
        "--criticality-exponent", type=float, default=1.0,
        help="criticality sharpening crit**exponent (0 degrades to "
             "pure congestion; default 1.0)",
    )
    parent.add_argument(
        "--timing-tradeoff", type=_tradeoff, default=0.5,
        help="placement mix between wire length (0.0) and timing "
             "(1.0); default 0.5",
    )
    return parent


def _warn_unused_timing_args(args: argparse.Namespace) -> None:
    """Tuning knobs do nothing without --timing-driven; say so."""
    if args.timing_driven:
        return
    if (
        args.criticality_exponent != 1.0
        or args.timing_tradeoff != 0.5
    ):
        print(
            "warning: --criticality-exponent/--timing-tradeoff have "
            "no effect without --timing-driven",
            file=sys.stderr,
        )


def _cmd_map(args: argparse.Namespace) -> int:
    network = read_blif_file(args.input)
    mapped = tech_map(optimize_network(network), k=args.k)
    if args.verify and not equivalent(network, mapped):
        print("ERROR: mapped circuit is not equivalent",
              file=sys.stderr)
        return 1
    text = write_lut_blif(mapped)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            f"{args.input}: {mapped.n_luts()} {args.k}-LUTs "
            f"-> {args.output}"
        )
    else:
        sys.stdout.write(text)
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    network = read_blif_file(args.input)
    stats = network.stats()
    print(f"model:    {network.name}")
    print(f"inputs:   {stats['inputs']}")
    print(f"outputs:  {stats['outputs']}")
    print(f"nodes:    {stats['nodes']}")
    print(f"latches:  {stats['latches']}")
    mapped = tech_map(optimize_network(network), k=args.k)
    mstats = mapped.stats()
    print(f"{args.k}-LUTs:   {mstats['luts']} "
          f"(depth {mstats['depth']}, {mstats['ffs']} registered)")
    return 0


def _cmd_implement(args: argparse.Namespace) -> int:
    modes = []
    for path in args.modes:
        network = read_blif_file(path)
        modes.append(tech_map(optimize_network(network), k=args.k))
        print(f"mode {len(modes) - 1}: {path} "
              f"-> {modes[-1].n_luts()} LUTs")
    _warn_unused_timing_args(args)
    options = FlowOptions(
        seed=args.seed,
        k=args.k,
        inner_num=args.effort,
        channel_width=args.channel_width,
        timing_driven=args.timing_driven,
        criticality_exponent=args.criticality_exponent,
        timing_tradeoff=args.timing_tradeoff,
    )
    strategies = tuple(
        MergeStrategy(s) for s in args.strategies
    )
    result = implement_multi_mode(
        "cli", modes, options, strategies=strategies,
        workers=args.workers, cache=_exec_cache(args),
        progress=ProgressLog(verbose=True),
    )
    print(
        f"\nregion: {result.arch.nx}x{result.arch.ny} CLBs, "
        f"channel width {result.arch.channel_width}"
        + (" (timing-driven)" if options.timing_driven else "")
    )
    print(f"MDR rewrites {result.mdr.cost.total} bits per switch "
          f"({result.mdr.cost.routing_bits} routing)")
    print("differing routing bits (separate implementations): "
          f"{result.mdr.diff.routing_bits}")
    mdr_fmax = result.mdr.per_mode_fmax()
    print("MDR per-mode Fmax: "
          + ", ".join(f"{f:.4f}" for f in mdr_fmax))
    for strategy in strategies:
        dcs = result.dcs[strategy]
        ratios = result.frequency_ratios(strategy)
        print(
            f"DCS [{strategy.value}]: {dcs.cost.total} bits "
            f"({dcs.cost.routing_bits} parameterised), "
            f"speed-up {result.speedup(strategy):.2f}x, "
            f"wires {100 * result.wirelength_ratio(strategy):.0f}% "
            "of MDR"
        )
        print(
            "    per-mode Fmax "
            + ", ".join(f"{f:.4f}" for f in dcs.per_mode_fmax())
            + "; MDR:DCS frequency ratio "
            + ", ".join(f"{r:.2f}" for r in ratios)
            + f" (mean {sum(ratios) / len(ratios):.2f})"
        )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    import os

    from repro.arch.architecture import size_for_circuits
    from repro.arch.rrg import build_rrg
    from repro.interop import (
        DEFAULT_4LUT_ARCH,
        write_net_file,
        write_place_file,
        write_route_file,
    )
    from repro.place.placer import place_circuit
    from repro.route.troute import route_lut_circuit

    network = read_blif_file(args.input)
    circuit = tech_map(optimize_network(network), k=args.k)
    io_count = len(circuit.inputs) + len(circuit.outputs)
    arch = size_for_circuits(
        circuit.n_luts(), io_count, k=args.k,
        channel_width=args.channel_width,
    )
    placement = place_circuit(circuit, arch, seed=args.seed)
    routing = route_lut_circuit(circuit, placement, build_rrg(arch))

    os.makedirs(args.outdir, exist_ok=True)
    base = os.path.join(args.outdir, circuit.name)
    artefacts = {
        f"{base}.arch": DEFAULT_4LUT_ARCH,
        f"{base}.net": write_net_file(circuit),
        f"{base}.place": write_place_file(
            placement,
            netlist_file=f"{circuit.name}.net",
            arch_file=f"{circuit.name}.arch",
        ),
        f"{base}.route": write_route_file(routing),
    }
    for path, text in artefacts.items():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.viz import implementation_report, routing_svg

    modes = []
    for path in args.modes:
        network = read_blif_file(path)
        modes.append(tech_map(optimize_network(network), k=args.k))
    _warn_unused_timing_args(args)
    options = FlowOptions(
        seed=args.seed, k=args.k, inner_num=args.effort,
        timing_driven=args.timing_driven,
        criticality_exponent=args.criticality_exponent,
        timing_tradeoff=args.timing_tradeoff,
    )
    result = implement_multi_mode(
        "report", modes, options,
        workers=args.workers, cache=_exec_cache(args),
    )
    text = implementation_report(result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    if args.svg:
        dcs = result.dcs[MergeStrategy.WIRE_LENGTH]
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(routing_svg(dcs.routing))
        print(f"wrote {args.svg}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.bench import harness
    from repro.bench.campaign import run_campaign

    _warn_unused_timing_args(args)
    spec = harness.experiment_spec(
        args.effort, seed=args.seed,
        timing_driven=args.timing_driven,
        criticality_exponent=args.criticality_exponent,
        timing_tradeoff=args.timing_tradeoff,
    )
    records = run_campaign(
        spec, workers=args.workers, cache=_exec_cache(args),
        verbose=True,
    ).records
    for text in (
        harness.print_table1(
            harness.table1(args.seed, spec.k, spec.scale)
        ),
        harness.print_figure5(harness.figure5(records)),
        harness.print_figure6(harness.figure6(records)),
        harness.print_figure7(harness.figure7(records)),
        harness.print_area_table(
            harness.area_table(
                args.seed, spec.k, spec.scale, spec.pairs_per_suite
            )
        ),
        harness.print_sta_table(harness.sta_table(records)),
        harness.print_fmax_table(harness.fmax_table(records)),
    ):
        print()
        print(text)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from repro.bench.campaign import (
        PRESETS,
        CampaignSpec,
        CampaignVariant,
        compare_to_baseline,
        load_baseline,
        run_campaign,
        write_baseline,
        write_summary,
    )
    from repro.gen import registered_suites

    if args.list:
        print("campaign presets:")
        for name, preset in PRESETS.items():
            print(f"  {name:16s} {preset.description}")
        print("\nregistered suites:")
        for name, suite in registered_suites().items():
            print(f"  {name:10s} {suite.description}")
        return 0

    if args.preset:
        if args.preset not in PRESETS:
            print(
                f"unknown preset {args.preset!r}; available: "
                f"{', '.join(PRESETS)}",
                file=sys.stderr,
            )
            return 2
        spec = PRESETS[args.preset]
        if args.suites:
            print(
                "warning: --suites is ignored with --preset",
                file=sys.stderr,
            )
        if (
            args.timing_driven
            or args.criticality_exponent != 1.0
            or args.timing_tradeoff != 0.5
            or args.sizing != "estimate"
        ):
            print(
                "warning: --timing-driven/--criticality-exponent/"
                "--timing-tradeoff/--sizing are ignored with "
                "--preset (presets define their own variants)",
                file=sys.stderr,
            )
    else:
        if not args.suites:
            print(
                "error: need --preset NAME or --suites SUITE "
                "[SUITE ...] (try --list)",
                file=sys.stderr,
            )
            return 2
        _warn_unused_timing_args(args)
        if args.timing_driven:
            variant = CampaignVariant(
                "timing",
                timing_driven=True,
                criticality_exponent=args.criticality_exponent,
                timing_tradeoff=args.timing_tradeoff,
                sizing=args.sizing,
            )
        else:
            variant = CampaignVariant(
                "wirelength", sizing=args.sizing
            )
        spec = CampaignSpec(
            name=args.name,
            description="ad-hoc campaign (repro campaign --suites)",
            suites=tuple(args.suites),
            scale=args.scale,
            seeds=tuple(args.seeds),
            inner_num=args.effort,
            variants=(variant,),
        )
    if args.pairs_per_suite is not None:
        spec = dataclasses.replace(
            spec, pairs_per_suite=args.pairs_per_suite
        )

    baseline = None
    if args.gate:
        # Load before the sweep: a mistyped path must fail fast, not
        # after minutes of flow runs, and never look like a QoR
        # regression.
        try:
            baseline = load_baseline(args.gate)
        except (OSError, json.JSONDecodeError) as error:
            print(
                f"error: cannot read baseline {args.gate}: {error}",
                file=sys.stderr,
            )
            return 2

    jsonl_path = args.jsonl or f"campaign_{spec.name}.jsonl"
    try:
        result = run_campaign(
            spec,
            workers=args.workers,
            cache=_exec_cache(args),
            verbose=True,
            # The JSONL is written incrementally as runs finish (it
            # is the checkpoint a killed sweep resumes from), not in
            # one shot at the end.
            checkpoint=jsonl_path,
            resume=args.resume,
        )
    except ValueError as error:  # e.g. an unknown suite name
        print(f"error: {error}", file=sys.stderr)
        return 2

    print(f"wrote {jsonl_path} ({len(result.records)} records)")
    summary_path = args.summary or "BENCH_campaign.json"
    write_summary(result.summary, summary_path)
    print(f"wrote {summary_path}")
    cache_row = result.summary["cache"]
    print(
        f"{result.summary['n_runs']} runs in "
        f"{result.summary['seconds']:.1f}s "
        f"({cache_row['resumed_records']} resumed records, "
        f"{cache_row['record_hits']} cached, "
        f"{cache_row['record_misses']} computed)"
    )

    if args.write_baseline:
        write_baseline(result.summary, args.write_baseline)
        print(f"wrote baseline {args.write_baseline}")
    if baseline is not None:
        violations = compare_to_baseline(result.summary, baseline)
        if violations:
            print(
                f"qor-gate: FAIL vs {args.gate}:", file=sys.stderr
            )
            for violation in violations:
                print(f"  {violation}", file=sys.stderr)
            print(
                "re-baseline intentionally with "
                "scripts/rebaseline-qor.sh if this change is "
                "expected",
                file=sys.stderr,
            )
            return 1
        print(f"qor-gate: OK vs {args.gate}")
    return 0


def _cmd_bench_exec(args: argparse.Namespace) -> int:
    from repro.bench.exec_bench import (
        run_exec_bench,
        workload_kinds,
        write_bench_json,
    )

    if args.workload not in workload_kinds():
        print(
            f"unknown workload kind {args.workload!r}; registered: "
            f"{', '.join(workload_kinds())}",
            file=sys.stderr,
        )
        return 2
    if args.no_cache:
        print(
            "warning: --no-cache is ignored by bench-exec (the "
            "benchmark manages its own cold/warm cache phases)",
            file=sys.stderr,
        )
    report = run_exec_bench(
        workers=args.workers or 4,
        n_pairs=args.pairs,
        inner_num=args.effort,
        cache_dir=args.cache_dir,
        verbose=True,
        n_taps=args.taps,
        baseline_src=args.baseline_src,
        workload=args.workload,
    )
    write_bench_json(report, args.output)
    print(f"wrote {args.output}")
    cold = report["parallel_cold"]["seconds"]
    serial = report["serial_cold"]["seconds"]
    warm = report["parallel_warm"]["seconds"]
    print(
        f"serial {serial:.1f}s, cold x{report['workers']} workers "
        f"{cold:.1f}s ({serial / cold:.2f}x), warm {warm:.1f}s "
        f"({100 * warm / cold:.1f}% of cold)"
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = StageCache(args.cache_dir)
    if args.action == "prune":
        if args.max_size is None:
            print(
                "error: prune needs --max-size <bytes>",
                file=sys.stderr,
            )
            return 2
        removed, removed_bytes = cache.prune(args.max_size)
        print(
            f"pruned {removed} entries ({removed_bytes} bytes) from "
            f"{cache.root}; {cache.n_entries()} entries "
            f"({cache.total_bytes()} bytes) remain"
        )
        return 0
    if args.clear or args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.root}")
    else:
        print(f"cache root: {cache.root}")
        print(f"entries:    {cache.n_entries()}")
        print(f"bytes:      {cache.total_bytes()}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import ALL_RULES, write_baseline
    from repro.analysis.runner import lint_tree

    if args.list_rules:
        for rule, description in sorted(ALL_RULES.items()):
            print(f"{rule}  {description}")
        return 0

    rules = None
    if args.rules:
        rules = {r.strip() for r in args.rules.split(",") if r.strip()}
        unknown = rules - set(ALL_RULES)
        if unknown:
            print(
                "error: unknown rule id(s): "
                + ", ".join(sorted(unknown)),
                file=sys.stderr,
            )
            return 2

    root = Path(args.root)
    if not root.is_dir():
        print(f"error: lint root {root} is not a directory",
              file=sys.stderr)
        return 2
    paths = [Path(p) for p in args.paths] or None

    baseline = Path(args.baseline) if args.baseline else None
    result = lint_tree(
        root, paths=paths, baseline_path=baseline, rules=rules
    )

    if args.write_baseline:
        # Regenerate the accepted-findings file from the current tree
        # (pragma-suppressed findings stay out: pragmas are the
        # preferred, self-documenting suppression).
        write_baseline(Path(args.write_baseline), result.findings)
        print(
            f"wrote {len(result.findings)} finding(s) to "
            f"{args.write_baseline}"
        )
        return 0

    if args.format == "json":
        print(result.to_json())
    else:
        print(result.render_text())
    if result.errors:
        return 2
    return 0 if not result.findings else 1


def _default_commit() -> str:
    """Commit identity for trend ingests: $GITHUB_SHA in CI, the git
    HEAD locally, an explicit placeholder otherwise."""
    import os
    import subprocess

    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _cmd_trend(args: argparse.Namespace) -> int:
    from repro.bench.trend import (
        TrendError,
        connect,
        drift_report,
        evaluate,
        ingest,
        load_records_jsonl,
    )

    try:
        conn = connect(args.db)
    except TrendError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        if args.trend_command == "ingest":
            try:
                records = load_records_jsonl(args.jsonl)
                result = ingest(
                    conn, records,
                    commit=args.commit or _default_commit(),
                    label=args.label,
                )
            except (OSError, TrendError) as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            n_ingests = conn.execute(
                "SELECT COUNT(*) FROM ingests"
            ).fetchone()[0]
            print(
                f"ingested {args.jsonl} as #{result.ingest_id} "
                f"(campaign {result.campaign}, commit "
                f"{result.commit[:12]}, {result.n_rows} metric rows"
                + (", replaced an earlier ingest of the same commit"
                   if result.replaced else "")
                + f"); {n_ingests} ingests in {args.db}"
            )
            return 0

        try:
            outcome = evaluate(
                conn,
                campaign=args.campaign,
                window=args.window,
                min_history=args.min_history,
            )
        except TrendError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

        if args.trend_command == "report":
            text = drift_report(
                outcome, min_history=args.min_history
            )
            if args.output:
                with open(
                    args.output, "w", encoding="utf-8"
                ) as handle:
                    handle.write(text)
                print(f"wrote {args.output}")
            else:
                sys.stdout.write(text)
            return 0

        # gate
        checked = len(outcome.drifts)
        if outcome.violations:
            print(
                f"trend-gate: FAIL — campaign {outcome.campaign}, "
                f"ingest #{outcome.ingest_id} vs "
                f"{len(outcome.window_ids)} previous run(s):",
                file=sys.stderr,
            )
            for violation in outcome.violations:
                print(f"  {violation}", file=sys.stderr)
            return 1
        print(
            f"trend-gate: OK — campaign {outcome.campaign}, ingest "
            f"#{outcome.ingest_id}, {checked} series checked "
            f"against {len(outcome.window_ids)} previous run(s) "
            f"(window {outcome.window})"
        )
        return 0
    finally:
        conn.close()


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.exec.jobs import resolve_workers
    from repro.serve.server import main as serve_main
    from repro.serve.service import FlowService

    service = FlowService(
        workers=resolve_workers(args.workers),
        use_threads=args.use_threads,
        cache=_exec_cache(args),
        tenant_quota=args.quota,
    )
    serve_main(service, host=args.host, port=args.port)
    return 0


def _client_options(args: argparse.Namespace) -> dict:
    """FlowOptions wire payload from the shared CLI knobs."""
    options = {
        "seed": args.seed,
        "k": args.k,
        "inner_num": args.effort,
        "timing_driven": args.timing_driven,
        "criticality_exponent": args.criticality_exponent,
        "timing_tradeoff": args.timing_tradeoff,
    }
    if args.channel_width is not None:
        options["channel_width"] = args.channel_width
    return options


def _print_flow_result(result: dict) -> None:
    payload = result["result"]
    arch = payload["arch"]
    hit = result.get("stage_cache_hit")
    print(
        f"arch {arch['nx']}x{arch['ny']} CLBs, channel width "
        f"{arch['channel_width']}; campaign-stage cache hit: {hit}"
    )
    for strategy, row in payload["dcs"].items():
        print(
            f"  dcs[{strategy}]: speed-up {row['speedup']:.2f}x, "
            f"wires {100 * row['wirelength_ratio']:.0f}% of MDR"
        )


def _cmd_submit(args: argparse.Namespace) -> int:
    import json
    import urllib.error

    from repro.serve.client import ServeClient, ServeError, pair_submission

    _warn_unused_timing_args(args)
    options = _client_options(args)
    try:
        if args.modes_json:
            with open(args.modes_json, encoding="utf-8") as handle:
                modes = json.load(handle)
            submission = {
                "modes": modes,
                "options": options,
                "tenant": args.tenant,
                "priority": args.priority,
            }
            if args.name:
                submission["name"] = args.name
            if args.strategies:
                submission["strategies"] = args.strategies
        else:
            if not args.suite:
                print(
                    "error: need --suite NAME (a registered workload "
                    "suite) or --modes-json FILE",
                    file=sys.stderr,
                )
                return 2
            submission = pair_submission(
                args.suite,
                scale=args.scale,
                pair_index=args.pair_index,
                seed=args.seed,
                k=args.k,
                options=options,
                strategies=args.strategies,
                tenant=args.tenant,
                priority=args.priority,
                name=args.name,
            )
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    client = ServeClient(args.url)
    try:
        response = client.submit(submission)
        print(
            f"{response['id']}: {response['state']}"
            + (" (deduped)" if response.get("deduped") else "")
            + f"  fingerprint {str(response['fingerprint'])[:16]}"
        )
        if not args.wait:
            if args.json:
                print(json.dumps(response, indent=2, sort_keys=True))
            return 0
        status = client.wait(str(response["id"]), timeout=args.timeout)
        if status.get("state") != "done":
            print(
                f"flow {response['id']} ended {status.get('state')!r}: "
                f"{status.get('error')}",
                file=sys.stderr,
            )
            return 1
        result = client.result(str(response["id"]))
        if args.json:
            print(json.dumps(result, indent=2, sort_keys=True))
        else:
            _print_flow_result(result)
        return 0
    except (ServeError, TimeoutError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (urllib.error.URLError, ConnectionError, OSError) as error:
        print(
            f"error: cannot reach {args.url}: {error}", file=sys.stderr
        )
        return 1


def _cmd_status(args: argparse.Namespace) -> int:
    import json
    import urllib.error

    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.url)
    try:
        body = client.status(args.id)
    except (ServeError, urllib.error.URLError, ConnectionError,
            OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.id is not None:
        print(json.dumps(body, indent=2, sort_keys=True))
        return 0
    flows = body.get("flows", [])
    if not flows:
        print("no flows")
        return 0
    print(f"{'id':14s} {'state':10s} {'subs':>4s} {'hit':>4s}  name")
    for flow in flows:
        hit = flow.get("stage_cache_hit")
        print(
            f"{flow['id']:14s} {flow['state']:10s} "
            f"{flow['n_submissions']:4d} "
            f"{'yes' if hit else '-':>4s}  {flow['name']}"
        )
    return 0


def _cmd_result(args: argparse.Namespace) -> int:
    import json
    import urllib.error

    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.url)
    try:
        result = client.result(args.id)
    except ServeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (urllib.error.URLError, ConnectionError, OSError) as error:
        print(
            f"error: cannot reach {args.url}: {error}", file=sys.stderr
        )
        return 1
    text = json.dumps(result, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Multi-mode circuit tool flow with Dynamic Circuit "
            "Specialization (Al Farisi et al., DATE 2013)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared option groups: every flow-running subcommand (including
    # serve/submit) inherits the same spellings from these parents.
    exec_parent = _exec_parent()
    timing_parent = _timing_parent()

    p_map = sub.add_parser("map", help="map BLIF to K-LUTs")
    p_map.add_argument("input")
    p_map.add_argument("-o", "--output")
    p_map.add_argument("-k", type=int, default=4)
    p_map.add_argument("--verify", action="store_true",
                       help="simulation-check the mapping")
    p_map.set_defaults(func=_cmd_map)

    p_info = sub.add_parser("info", help="circuit statistics")
    p_info.add_argument("input")
    p_info.add_argument("-k", type=int, default=4)
    p_info.set_defaults(func=_cmd_info)

    p_impl = sub.add_parser(
        "implement", help="run MDR + DCS on mode circuits",
        parents=[exec_parent, timing_parent],
    )
    p_impl.add_argument("modes", nargs="+",
                        help="BLIF file per mode (>= 2)")
    p_impl.add_argument("-k", type=int, default=4)
    p_impl.add_argument("--seed", type=int, default=0)
    p_impl.add_argument("--effort", type=float, default=0.3,
                        help="annealing inner_num")
    p_impl.add_argument("--channel-width", type=int, default=None)
    p_impl.add_argument(
        "--strategies", nargs="+",
        default=["edge_matching", "wire_length"],
        choices=[s.value for s in MergeStrategy],
    )
    p_impl.set_defaults(func=_cmd_implement)

    p_export = sub.add_parser(
        "export", help="write VPR .net/.place/.route artefacts"
    )
    p_export.add_argument("input", help="BLIF circuit")
    p_export.add_argument("-o", "--outdir", default=".")
    p_export.add_argument("-k", type=int, default=4)
    p_export.add_argument("--seed", type=int, default=0)
    p_export.add_argument("--channel-width", type=int, default=12)
    p_export.set_defaults(func=_cmd_export)

    p_report = sub.add_parser(
        "report", help="write the Markdown implementation report",
        parents=[exec_parent, timing_parent],
    )
    p_report.add_argument("modes", nargs="+",
                          help="BLIF file per mode (>= 2)")
    p_report.add_argument("-o", "--output", default=None)
    p_report.add_argument("--svg", default=None,
                          help="also write an SVG of the routing")
    p_report.add_argument("-k", type=int, default=4)
    p_report.add_argument("--seed", type=int, default=0)
    p_report.add_argument("--effort", type=float, default=0.3)
    p_report.set_defaults(func=_cmd_report)

    p_exp = sub.add_parser(
        "experiments", help="regenerate the paper's tables/figures",
        parents=[exec_parent, timing_parent],
    )
    p_exp.add_argument("--effort", default="quick",
                       choices=("quick", "default", "paper"))
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.set_defaults(func=_cmd_experiments)

    p_camp = sub.add_parser(
        "campaign",
        help="run a declarative suite x options x seed sweep, write "
             "JSONL records + summary (QoR gate for CI)",
        parents=[exec_parent, timing_parent],
    )
    p_camp.add_argument(
        "--preset", default=None,
        help="named campaign (see --list)",
    )
    p_camp.add_argument(
        "--list", action="store_true",
        help="list campaign presets and registered suites",
    )
    p_camp.add_argument(
        "--suites", nargs="+", default=None,
        help="ad-hoc campaign over these registered suites "
             "(alternative to --preset)",
    )
    p_camp.add_argument(
        "--scale", default="quick",
        choices=("tiny", "quick", "default", "medium", "paper"),
        help="workload scale of an ad-hoc campaign",
    )
    p_camp.add_argument(
        "--seeds", nargs="+", type=int, default=[0],
        help="seeds of an ad-hoc campaign",
    )
    p_camp.add_argument(
        "--name", default="custom",
        help="name of an ad-hoc campaign (labels records/outputs)",
    )
    p_camp.add_argument(
        "--effort", type=float, default=0.1,
        help="annealing inner_num of an ad-hoc campaign",
    )
    p_camp.add_argument(
        "--pairs-per-suite", type=int, default=None,
        help="truncate every suite to its first N pairs",
    )
    p_camp.add_argument(
        "--sizing", default="estimate",
        choices=("estimate", "search"),
        help="channel sizing of an ad-hoc campaign: 'estimate' "
             "(netlist statistics) or 'search' (the paper's "
             "minimum-width binary search + 20%% slack; several "
             "trial routings per run)",
    )
    p_camp.add_argument(
        "--jsonl", default=None,
        help="per-run records output "
             "(default campaign_<name>.jsonl)",
    )
    p_camp.add_argument(
        "--summary", default=None,
        help="summary JSON output (default BENCH_campaign.json)",
    )
    p_camp.add_argument(
        "--gate", default=None, metavar="BASELINE",
        help="compare the summary against a QoR baseline JSON; "
             "exit 1 on regression beyond tolerance",
    )
    p_camp.add_argument(
        "--write-baseline", default=None, metavar="PATH",
        help="write the run's QoR aggregates as a new baseline",
    )
    p_camp.add_argument(
        "--resume", action="store_true",
        help="resume from the JSONL checkpoint: completed records "
             "whose fingerprints still match are kept, only the "
             "missing runs execute (default: overwrite)",
    )
    p_camp.set_defaults(func=_cmd_campaign)

    p_bench = sub.add_parser(
        "bench-exec",
        help="benchmark parallel execution + stage cache, write "
             "BENCH_exec.json",
        parents=[exec_parent],
    )
    p_bench.add_argument("-o", "--output", default="BENCH_exec.json")
    p_bench.add_argument(
        "--workload", default="fir_pairs",
        help="workload kind: fir_pairs (default) or any registered "
             "suite (see `repro campaign --list`)",
    )
    p_bench.add_argument("--pairs", type=int, default=4,
                         help="independent multi-mode pairs to run")
    p_bench.add_argument("--taps", type=int, default=4,
                         help="FIR taps per mode (8 = harness size)")
    p_bench.add_argument(
        "--baseline-src", default=None,
        help="path to an older source tree to time the same workload "
             "against (serial), e.g. a checkout of the seed commit",
    )
    p_bench.add_argument("--effort", type=float, default=0.1,
                         help="annealing inner_num of the workload")
    p_bench.set_defaults(func=_cmd_bench_exec)

    p_cache = sub.add_parser(
        "cache",
        help="inspect, prune (LRU) or clear the persistent stage "
             "cache",
    )
    p_cache.add_argument(
        "action", nargs="?", default="info",
        choices=("info", "prune", "clear"),
        help="info (default): print root/entry count; prune: evict "
             "least-recently-used entries down to --max-size; "
             "clear: remove everything",
    )
    p_cache.add_argument("--cache-dir", default=None)
    p_cache.add_argument("--clear", action="store_true",
                         help="alias of the 'clear' action")
    p_cache.add_argument(
        "--max-size", type=int, default=None, metavar="BYTES",
        help="prune target: keep at most this many bytes of entries "
             "(most recently used kept)",
    )
    p_cache.set_defaults(func=_cmd_cache)

    p_lint = sub.add_parser(
        "lint",
        help="project-specific static analysis: determinism, "
             "fingerprint coverage and thread-safety checkers",
    )
    p_lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the whole "
             "--root tree)",
    )
    p_lint.add_argument(
        "--root", default="src",
        help="tree root anchoring finding paths and the timing "
             "allowlist (default: src)",
    )
    p_lint.add_argument(
        "--baseline", nargs="?", const="lint-baseline.json",
        default=None, metavar="FILE",
        help="suppress findings recorded in FILE (default "
             "lint-baseline.json when the flag is given bare); "
             "only new findings fail the run",
    )
    p_lint.add_argument(
        "--write-baseline", nargs="?", const="lint-baseline.json",
        default=None, metavar="FILE",
        help="accept the current findings: write them to FILE and "
             "exit 0",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="finding output format (default text)",
    )
    p_lint.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_trend = sub.add_parser(
        "trend",
        help="QoR trend database: ingest campaign JSONLs, gate the "
             "newest run against a rolling window, report drift",
    )
    trend_sub = p_trend.add_subparsers(
        dest="trend_command", required=True
    )

    p_ingest = trend_sub.add_parser(
        "ingest",
        help="aggregate a campaign JSONL into the trend database "
             "(one row per suite/variant/seed/metric)",
    )
    p_ingest.add_argument("jsonl", help="campaign records JSONL")
    p_ingest.add_argument(
        "--db", default="qor_trend.db",
        help="trend database file (default qor_trend.db)",
    )
    p_ingest.add_argument(
        "--commit", default=None,
        help="commit identity of the run (default: $GITHUB_SHA, "
             "else git HEAD); re-ingesting a commit replaces its "
             "earlier ingest",
    )
    p_ingest.add_argument(
        "--label", default="",
        help="free-form run label stored alongside (e.g. the "
             "nightly date or run id)",
    )
    p_ingest.set_defaults(func=_cmd_trend)

    def _add_trend_query_args(sub_parser) -> None:
        sub_parser.add_argument(
            "--db", default="qor_trend.db",
            help="trend database file (default qor_trend.db)",
        )
        sub_parser.add_argument(
            "--window", type=int, default=7,
            help="rolling window: compare the newest ingest against "
                 "the median of up to this many previous ingests "
                 "(default 7)",
        )
        sub_parser.add_argument(
            "--min-history", type=int, default=2,
            help="series with fewer window points than this pass as "
                 "'new' instead of gating (default 2)",
        )
        sub_parser.add_argument(
            "--campaign", default=None,
            help="campaign to gate (default: the newest ingest's)",
        )

    p_gate = trend_sub.add_parser(
        "gate",
        help="exit 1 when the newest ingest regresses beyond "
             "tolerance against the rolling-window median",
    )
    _add_trend_query_args(p_gate)
    p_gate.set_defaults(func=_cmd_trend)

    p_treport = trend_sub.add_parser(
        "report",
        help="write the Markdown drift table of the newest ingest "
             "vs its rolling window",
    )
    _add_trend_query_args(p_treport)
    p_treport.add_argument("-o", "--output", default=None)
    p_treport.set_defaults(func=_cmd_trend)

    p_serve = sub.add_parser(
        "serve",
        help="run the compile service: an HTTP API that accepts flow "
             "submissions, dedups identical requests and executes "
             "them on a worker pool",
        parents=[exec_parent],
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8765,
        help="listening port (0 picks a free port; default 8765)",
    )
    p_serve.add_argument(
        "--use-threads", action="store_true",
        help="thread workers instead of process workers (lower "
             "start-up cost, no isolation; useful for tests)",
    )
    p_serve.add_argument(
        "--quota", type=int, default=8,
        help="max non-terminal flows per tenant (default 8)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit one flow to a running `repro serve` instance",
        parents=[timing_parent],
    )
    p_submit.add_argument(
        "--url", default="http://127.0.0.1:8765",
        help="server base URL (default http://127.0.0.1:8765)",
    )
    p_submit.add_argument(
        "--suite", default=None,
        help="registered workload suite; the pair's mode circuits "
             "become the submission (see `repro campaign --list`)",
    )
    p_submit.add_argument(
        "--scale", default="tiny",
        choices=("tiny", "quick", "default", "medium", "paper"),
        help="workload scale of --suite (default tiny)",
    )
    p_submit.add_argument(
        "--pair-index", type=int, default=0,
        help="which pair of the suite (default 0)",
    )
    p_submit.add_argument(
        "--modes-json", default=None, metavar="FILE",
        help="explicit mode list as JSON (alternative to --suite): "
             '[{"kind": ..., "name": ..., "seed": ..., "k": ..., '
             '"params": {...}}, ...]',
    )
    p_submit.add_argument("-k", type=int, default=4)
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument("--effort", type=float, default=0.3,
                          help="annealing inner_num")
    p_submit.add_argument("--channel-width", type=int, default=None)
    p_submit.add_argument(
        "--strategies", nargs="+", default=None,
        choices=[s.value for s in MergeStrategy],
    )
    p_submit.add_argument("--name", default=None,
                          help="flow name (default: the pair's name)")
    p_submit.add_argument("--tenant", default="default")
    p_submit.add_argument(
        "--priority", default="batch",
        choices=("interactive", "batch"),
        help="queue lane; interactive overtakes queued batch flows",
    )
    p_submit.add_argument(
        "--wait", action="store_true",
        help="block until the flow finishes and print its result",
    )
    p_submit.add_argument(
        "--timeout", type=float, default=600.0,
        help="--wait timeout in seconds (default 600)",
    )
    p_submit.add_argument(
        "--json", action="store_true",
        help="print the raw JSON response",
    )
    p_submit.set_defaults(func=_cmd_submit)

    p_status = sub.add_parser(
        "status",
        help="list flows on a `repro serve` instance (or one flow's "
             "full status)",
    )
    p_status.add_argument("id", nargs="?", default=None,
                          help="flow id (default: list every flow)")
    p_status.add_argument("--url", default="http://127.0.0.1:8765")
    p_status.set_defaults(func=_cmd_status)

    p_result = sub.add_parser(
        "result",
        help="fetch a finished flow's QoR payload as JSON",
    )
    p_result.add_argument("id", help="flow id")
    p_result.add_argument("--url", default="http://127.0.0.1:8765")
    p_result.add_argument("-o", "--output", default=None)
    p_result.set_defaults(func=_cmd_result)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
