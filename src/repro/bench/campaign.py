"""Declarative flow campaigns over the suite registry.

A campaign is a sweep ``suites x variants x seeds``: every multi-mode
pair of every selected suite (:mod:`repro.gen.suites`) is implemented
once per :class:`CampaignVariant` (a ``FlowOptions`` configuration —
timing-driven on/off, criticality exponents, merge strategies) and per
seed, fanned out through :func:`repro.exec.jobs.run_tasks` and the stage
cache.  Three artefacts come out:

* a **JSONL results database** — one record per run, deterministic
  and bit-identical across worker counts and warm/cold caches (no
  wall-clocks inside), so diffs between two JSONL files are pure QoR
  diffs;
* a **summary JSON** (``BENCH_campaign.json``, shaped like
  ``BENCH_exec.json``) — aggregate QoR per suite/variant group plus
  the non-deterministic envelope: wall-clock, per-stage breakdown,
  cache hits, platform;
* optionally a **QoR baseline** — the deterministic aggregates of a
  reference run.  :func:`compare_to_baseline` checks a fresh summary
  against it with per-metric tolerances; CI's ``qor-gate`` job fails
  the PR on wirelength/Fmax/speedup/runtime regressions, and
  ``repro campaign --write-baseline`` (see
  ``scripts/rebaseline-qor.sh``) re-baselines intentionally.

Whole runs are memoized under the ``campaign`` stage key
(:func:`campaign_stage_inputs` — the mode specs, the full
``FlowOptions`` and the strategies), so a warm rerun replays records
without touching the flow; on a miss, the per-stage caches inside
``implement_multi_mode`` still apply.

The JSONL file doubles as a **checkpoint**: when ``run_campaign`` is
given a ``checkpoint`` path it appends each record atomically as its
run completes (tmp-file + ``os.replace``, the :class:`StageCache`
idiom — a kill leaves complete lines only), and ``resume=True`` scans
the file on start, verifies each record's ``key`` field against the
current grid's :func:`record_key` fingerprints (code digest included,
so records from an edited tree are recomputed, never trusted), skips
the completed runs and finishes the rest.  An interrupted-and-resumed
sweep produces a JSONL byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.flow import FlowOptions, implement_multi_mode
from repro.core.merge import MergeStrategy
from repro.exec.cache import (
    StageCache,
    atomic_append_text,
    atomic_write_text,
)
from repro.exec.fingerprint import code_fingerprint, fingerprint
from repro.exec.progress import ProgressLog, StageRecord, timed_call
from repro.exec.jobs import Task, resolve_workers, run_tasks
from repro.gen.spec import WorkloadSpec, build_circuit
from repro.gen.suites import canonical_suite_name, suite_pair_specs
from repro.netlist.lutcircuit import LutCircuit

#: Version of the per-run record payload; participates in the
#: ``campaign`` stage key so cached records never outlive their schema.
#: v2: the options block records the channel-sizing policy.
#: v3: records carry their grid-slot fingerprint (``key``) for
#: checkpoint/resume.
#: v4: the options block records the batched-core flags.
#: v5: the options block records the router-lookahead and
#: partial-rip-up flags.
#: v6: the options block drops the batched-placer flag (the batched
#: annealer is gone).
#: v7: the options block drops the batched-router, router-lookahead
#: and partial-rip-up flags (one router core remains).
RECORD_SCHEMA_VERSION = 7

#: Version of the summary / baseline envelope.
SUMMARY_SCHEMA_VERSION = 1

#: Gate tolerances: fractional slack on the deterministic QoR
#: aggregates, and a multiplicative bound on wall-clock (generous —
#: CI runners are noisy; the deterministic metrics carry the gate).
DEFAULT_TOLERANCES = {
    "wirelength": 0.05,
    "param_bits": 0.01,
    "fmax": 0.05,
    "speedup": 0.10,
    "runtime_factor": 5.0,
}


@dataclass(frozen=True)
class CampaignVariant:
    """One ``FlowOptions`` configuration swept by a campaign."""

    label: str
    timing_driven: bool = False
    criticality_exponent: float = 1.0
    timing_tradeoff: float = 0.5
    strategies: Tuple[str, ...] = ("edge_matching", "wire_length")
    #: Channel-sizing policy: ``"estimate"`` (netlist statistics) or
    #: ``"search"`` (the paper's minimum-width binary search plus 20%
    #: slack — several trial routings per run, practical as a sweep
    #: axis at the router's speed).
    sizing: str = "estimate"


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep: suites x variants x seeds."""

    name: str
    description: str
    suites: Tuple[str, ...]
    scale: str = "default"
    seeds: Tuple[int, ...] = (0,)
    pairs_per_suite: Optional[int] = None
    inner_num: float = 0.1
    k: int = 4
    channel_width: Optional[int] = None
    variants: Tuple[CampaignVariant, ...] = (
        CampaignVariant("wirelength"),
    )

    def flow_options(self, variant: CampaignVariant,
                     seed: int) -> FlowOptions:
        return FlowOptions(
            seed=seed,
            k=self.k,
            inner_num=self.inner_num,
            channel_width=self.channel_width,
            sizing=variant.sizing,
            timing_driven=variant.timing_driven,
            criticality_exponent=variant.criticality_exponent,
            timing_tradeoff=variant.timing_tradeoff,
        )


_WIRELENGTH = CampaignVariant("wirelength")
_TIMING = CampaignVariant("timing", timing_driven=True)

#: Named campaigns (``repro campaign --preset``).
PRESETS: Dict[str, CampaignSpec] = {
    # The CI QoR gate: every generator family at tiny scale, both
    # flow modes.  Cold it runs in well under a CI minute budget;
    # warm (persisted stage cache) it replays from cached records.
    "ci-smoke": CampaignSpec(
        name="ci-smoke",
        description=(
            "tiny pairs of all four generator families, wirelength- "
            "and timing-driven (the CI qor-gate workload)"
        ),
        suites=("datapath", "fsm", "xbar", "klut"),
        scale="tiny",
        pairs_per_suite=2,
        inner_num=0.1,
        variants=(_WIRELENGTH, _TIMING),
    ),
    # The paper's evaluation, one preset per ``repro experiments
    # --effort`` level (that command runs them with one seed and
    # variant and prints the tables from the records).
    "paper": CampaignSpec(
        name="paper",
        description=(
            "the paper's three suites at full size, wirelength-driven "
            "(repro experiments --effort paper)"
        ),
        suites=("regexp", "fir", "mcnc"),
        scale="paper",
        inner_num=1.0,
    ),
    "paper-default": CampaignSpec(
        name="paper-default",
        description=(
            "the paper's three suites at default scale, first 4 pairs "
            "each (repro experiments --effort default)"
        ),
        suites=("regexp", "fir", "mcnc"),
        scale="default",
        pairs_per_suite=4,
        inner_num=0.3,
    ),
    "paper-quick": CampaignSpec(
        name="paper-quick",
        description=(
            "the paper's three suites at quick scale, first 2 pairs "
            "each (repro experiments --effort quick)"
        ),
        suites=("regexp", "fir", "mcnc"),
        scale="quick",
        pairs_per_suite=2,
        inner_num=0.1,
    ),
    "classic-quick": CampaignSpec(
        name="classic-quick",
        description=(
            "the paper's three suites at quick scale, both flow modes"
        ),
        suites=("regexp", "fir", "mcnc"),
        scale="quick",
        inner_num=0.3,
        variants=(_WIRELENGTH, _TIMING),
    ),
    "gen-quick": CampaignSpec(
        name="gen-quick",
        description=(
            "all four generator families at quick scale, both flow "
            "modes"
        ),
        suites=("datapath", "fsm", "xbar", "klut"),
        scale="quick",
        inner_num=0.3,
        variants=(_WIRELENGTH, _TIMING),
    ),
    "exponent-sweep": CampaignSpec(
        name="exponent-sweep",
        description=(
            "criticality-exponent sweep (0.5/1/2) over datapath and "
            "klut pairs"
        ),
        suites=("datapath", "klut"),
        scale="tiny",
        inner_num=0.1,
        variants=(
            _WIRELENGTH,
            CampaignVariant(
                "timing-e0.5", timing_driven=True,
                criticality_exponent=0.5,
            ),
            CampaignVariant(
                "timing-e1", timing_driven=True,
                criticality_exponent=1.0,
            ),
            CampaignVariant(
                "timing-e2", timing_driven=True,
                criticality_exponent=2.0,
            ),
        ),
    ),
    # The sizing sweep the router's speed makes practical: the
    # same tiny pairs implemented with the estimator and with the
    # paper's exact minimum-width search (several full trial routings
    # per run), so the JSONL database carries the width methodology
    # as a first-class axis.
    "sizing-search": CampaignSpec(
        name="sizing-search",
        description=(
            "channel sizing axis: estimate vs the paper's "
            "minimum-width search (tiny datapath/klut pairs)"
        ),
        suites=("datapath", "klut"),
        scale="tiny",
        pairs_per_suite=2,
        inner_num=0.1,
        variants=(
            CampaignVariant("estimate"),
            CampaignVariant("search", sizing="search"),
        ),
    ),
    "nightly": CampaignSpec(
        name="nightly",
        description=(
            "all seven suites at quick scale (first 3 pairs each), "
            "both flow modes, two seeds (the nightly QoR trajectory)"
        ),
        suites=(
            "regexp", "fir", "mcnc", "datapath", "fsm", "xbar", "klut"
        ),
        scale="quick",
        seeds=(0, 1),
        pairs_per_suite=3,
        inner_num=0.3,
        variants=(_WIRELENGTH, _TIMING),
    ),
}


# ---------------------------------------------------------------------------
# Per-run execution (one task per run) and record extraction
# ---------------------------------------------------------------------------


def campaign_stage_inputs(
    specs: Tuple[WorkloadSpec, ...],
    options: FlowOptions,
    strategies: Tuple[MergeStrategy, ...],
) -> Tuple:
    """Key inputs of the ``campaign`` stage (one run's QoR record).

    The full options object participates (like the ``multimode`` key),
    so every ``FlowOptions`` field perturbs this key — asserted by
    ``tests/test_option_fingerprints.py``.
    """
    return (RECORD_SCHEMA_VERSION, specs, options, strategies)


def record_key(
    spec: CampaignSpec,
    suite: str,
    pair_name: str,
    pair_specs: Tuple[WorkloadSpec, ...],
    variant: CampaignVariant,
    seed: int,
) -> str:
    """Resume fingerprint of one grid slot's record.

    Covers the record's identity (campaign/suite/pair/variant/seed —
    two variants with identical flow options but different labels
    yield distinct records, so labels participate) plus everything
    the payload can depend on: :func:`campaign_stage_inputs` and the
    package source digest.  A checkpointed record is reused on resume
    only when its key matches the value recomputed here — any code,
    option or workload change orphans it, exactly like a stage-cache
    entry.
    """
    options = spec.flow_options(variant, seed)
    strategies = tuple(
        MergeStrategy(v) for v in variant.strategies
    )
    return fingerprint(
        code_fingerprint(),
        "campaign-record",
        spec.name,
        suite,
        pair_name,
        variant.label,
        seed,
        campaign_stage_inputs(pair_specs, options, strategies),
    )


def _round(value: float) -> float:
    return round(float(value), 6)


def extract_payload(
    specs: Sequence[WorkloadSpec],
    modes: Sequence,
    result,
    options: FlowOptions,
    strategies: Tuple[MergeStrategy, ...],
) -> Dict[str, object]:
    """The deterministic QoR body of one run record."""
    mdr = result.mdr
    payload: Dict[str, object] = {
        "modes": [
            {
                "name": circuit.name,
                "kind": spec.kind,
                "gen_seed": spec.seed,
                "n_luts": circuit.n_luts(),
            }
            for spec, circuit in zip(specs, modes)
        ],
        "arch": {
            "nx": result.arch.nx,
            "ny": result.arch.ny,
            "channel_width": result.arch.channel_width,
        },
        "options": {
            "k": options.k,
            "inner_num": _round(options.inner_num),
            "sizing": options.sizing,
            "timing_driven": options.timing_driven,
            "criticality_exponent": _round(
                options.criticality_exponent
            ),
            "timing_tradeoff": _round(options.timing_tradeoff),
        },
        "mdr": {
            "total_bits": mdr.cost.total,
            "routing_bits": mdr.cost.routing_bits,
            "diff_routing_bits": mdr.diff.routing_bits,
            "wirelength": mdr.per_mode_wirelength(),
            "fmax": [_round(f) for f in mdr.per_mode_fmax()],
        },
    }
    dcs_rows: Dict[str, object] = {}
    for strategy in strategies:
        dcs = result.dcs[strategy]
        dcs_rows[strategy.value] = {
            "total_bits": dcs.cost.total,
            "routing_bits": dcs.cost.routing_bits,
            "speedup": _round(result.speedup(strategy)),
            "wirelength": dcs.per_mode_wirelength(),
            "wirelength_ratio": _round(
                result.wirelength_ratio(strategy)
            ),
            "fmax": [_round(f) for f in dcs.per_mode_fmax()],
            "frequency_ratios": [
                _round(r)
                for r in result.frequency_ratios(strategy)
            ],
        }
    payload["dcs"] = dcs_rows
    return payload


def _campaign_run_worker(
    pair_name: str,
    specs: Tuple[WorkloadSpec, ...],
    options: FlowOptions,
    strategy_values: Tuple[str, ...],
    cache_root: Optional[str],
    cache_enabled: bool,
) -> Tuple[Dict[str, object], List[StageRecord]]:
    """Implement one (pair, variant, seed) run; returns its payload.

    One task of the batch (runs in workers); the QoR payload is memoized
    under the ``campaign`` stage key, so a warm rerun neither builds
    the circuits nor touches the flow.
    """
    cache = StageCache(cache_root, enabled=cache_enabled)
    progress = ProgressLog()
    strategies = tuple(MergeStrategy(v) for v in strategy_values)

    def build(spec: WorkloadSpec) -> LutCircuit:
        # Generated circuits are memoized under their spec, so a pair
        # swept across several variants/seeds synthesises once.
        circuit, _hit = cache.memoize(
            "gen", (spec,), lambda: build_circuit(spec)
        )
        return circuit

    def compute() -> Dict[str, object]:
        modes = [build(spec) for spec in specs]
        result = implement_multi_mode(
            pair_name, modes, options, strategies=strategies,
            workers=1, cache=cache, progress=progress,
        )
        return extract_payload(
            specs, modes, result, options, strategies
        )

    (payload, hit), record = timed_call(
        "campaign", pair_name, cache.memoize,
        "campaign",
        campaign_stage_inputs(specs, options, strategies),
        compute,
    )
    records = list(progress.records)
    records.append(replace(record, cache_hit=hit))
    return payload, records


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    spec: CampaignSpec
    records: List[Dict[str, object]]
    summary: Dict[str, object]


def campaign_runs(
    spec: CampaignSpec,
) -> List[Tuple[str, str, Tuple[WorkloadSpec, ...], CampaignVariant,
                int]]:
    """The (suite, pair, specs, variant, seed) grid, in run order."""
    runs = []
    for raw in spec.suites:
        suite = canonical_suite_name(raw)
        for seed in spec.seeds:
            pairs = suite_pair_specs(
                suite, seed=seed, k=spec.k, scale=spec.scale,
                limit=spec.pairs_per_suite,
            )
            for pair_name, pair_specs in pairs:
                for variant in spec.variants:
                    runs.append(
                        (suite, pair_name, pair_specs, variant, seed)
                    )
    return runs


def record_line(record: Dict[str, object]) -> str:
    """One record as a JSONL line (sorted keys: byte-stable)."""
    return (
        json.dumps(record, sort_keys=True, separators=(",", ":"))
        + "\n"
    )


def load_checkpoint(
    path: str, expected_keys: Sequence[str]
) -> Dict[str, Dict[str, object]]:
    """Completed records of a (possibly torn) checkpoint JSONL.

    Returns ``key -> record`` for every parseable line whose ``key``
    is one the current grid expects.  A truncated final line (the
    only torn shape an atomic-append writer can leave, but arbitrary
    manual truncation is tolerated too) fails ``json.loads`` and is
    simply dropped — its run reruns.  Records from another grid,
    schema or source tree fail the key check and are dropped the same
    way.
    """
    expected = set(expected_keys)
    resumed: Dict[str, Dict[str, object]] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError):
        return resumed
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(record, dict):
            continue
        if record.get("schema") != RECORD_SCHEMA_VERSION:
            continue
        key = record.get("key")
        if key in expected:
            resumed[key] = record
    return resumed


def run_campaign(
    spec: CampaignSpec,
    workers: Optional[int] = None,
    cache: Optional[StageCache] = None,
    progress: Optional[ProgressLog] = None,
    verbose: bool = False,
    checkpoint: Optional[str] = None,
    resume: bool = False,
) -> CampaignResult:
    """Execute the whole sweep; returns records plus summary.

    With *checkpoint*, every completed record is appended to that
    JSONL atomically as the sweep progresses (the file is the
    artefact *and* the checkpoint), and *resume* first harvests
    records from an existing file — see :func:`load_checkpoint` —
    so only the unfinished runs execute.  Without *resume* an
    existing checkpoint is overwritten.
    """
    cache = cache or StageCache(enabled=False)
    progress = progress or ProgressLog()
    workers = resolve_workers(workers)
    runs = campaign_runs(spec)
    keys = [
        record_key(spec, suite, pair_name, pair_specs, variant, seed)
        for suite, pair_name, pair_specs, variant, seed in runs
    ]
    cache_root = str(cache.root) if cache.enabled else None

    records_by_key: Dict[str, Dict[str, object]] = {}
    if checkpoint and resume:
        records_by_key = load_checkpoint(checkpoint, keys)
    pending = [
        (index, run)
        for index, run in enumerate(runs)
        if keys[index] not in records_by_key
    ]
    if checkpoint:
        # Rewrite the known-good prefix (in grid order, torn lines
        # and stale records dropped) so the file is a valid
        # checkpoint from the first appended record on.
        atomic_write_text(
            checkpoint,
            "".join(
                record_line(records_by_key[key])
                for key in keys
                if key in records_by_key
            ),
        )

    if verbose:
        resumed_note = (
            f", {len(records_by_key)} resumed from {checkpoint}"
            if records_by_key else ""
        )
        print(
            f"campaign {spec.name}: {len(runs)} runs "
            f"({len(spec.suites)} suites x "
            f"{len(spec.variants)} variants x "
            f"{len(spec.seeds)} seeds, scale {spec.scale})"
            + resumed_note,
            flush=True,
        )

    start = time.perf_counter()
    tasks = [
        Task(
            _campaign_run_worker,
            (
                pair_name, pair_specs,
                spec.flow_options(variant, seed),
                variant.strategies, cache_root, cache.enabled,
            ),
            name=f"{suite}/{pair_name}/{variant.label}/s{seed}",
        )
        for _index, (
            suite, pair_name, pair_specs, variant, seed
        ) in pending
    ]

    def on_result(position: int, outcome) -> None:
        index, (suite, pair_name, _specs, variant, seed) = (
            pending[position]
        )
        payload, stage_records = outcome
        progress.extend(stage_records)
        record: Dict[str, object] = {
            "schema": RECORD_SCHEMA_VERSION,
            "campaign": spec.name,
            "suite": suite,
            "pair": pair_name,
            "variant": variant.label,
            "seed": seed,
            "key": keys[index],
        }
        record.update(payload)
        records_by_key[keys[index]] = record
        if checkpoint:
            # Complete lines only: a kill between appends loses at
            # most in-flight runs, never corrupts finished ones.
            atomic_append_text(checkpoint, record_line(record))
        if verbose:
            wl = record["dcs"].get("wire_length") or next(
                iter(record["dcs"].values())
            )
            print(
                f"  {suite}/{pair_name} [{variant.label}, s{seed}]: "
                f"speedup {wl['speedup']:.2f}x, "
                f"wires {100 * wl['wirelength_ratio']:.0f}% of MDR",
                flush=True,
            )

    # Results arrive in submission order; the callback checkpoints
    # each record as its prefix completes.
    run_tasks(tasks, workers, on_result=on_result)
    seconds = time.perf_counter() - start

    records = [records_by_key[key] for key in keys]
    if checkpoint:
        # Final rewrite in grid order: resumed-and-finished files are
        # byte-identical to uninterrupted ones even when the harvested
        # records were not a prefix of the grid.
        atomic_write_text(checkpoint, records_jsonl(records))

    summary = summarize(
        spec, records, seconds=seconds, progress=progress,
        workers=workers,
        resumed=len(runs) - len(pending),
    )
    return CampaignResult(spec, records, summary)


def records_jsonl(records: Sequence[Dict[str, object]]) -> str:
    """Serialise records as JSON Lines (sorted keys: byte-stable)."""
    return "".join(record_line(record) for record in records)


def write_jsonl(records: Sequence[Dict[str, object]],
                path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(records_jsonl(records))


# ---------------------------------------------------------------------------
# Summary and the QoR gate
# ---------------------------------------------------------------------------


def qor_metrics(
    records: Sequence[Dict[str, object]]
) -> Dict[str, Dict[str, object]]:
    """Deterministic aggregates per ``suite/variant`` group.

    Wirelengths and the DCS parameterised routing bits are summed
    (regressions anywhere in the group move the total); Fmax,
    speed-up and the MDR:DCS frequency ratio are means over every
    mode of every run.  Every ``dcs_*`` metric reads the same
    strategy: wire length when the record has it.  ``em_param_bits``
    sums edge matching's parameterised routing bits, so its QoR is
    gated too; a record without that strategy, or without
    ``routing_bits`` (hand-built in tests), counts 0 bits.
    """
    groups: Dict[str, Dict[str, list]] = {}
    for record in records:
        key = f"{record['suite']}/{record['variant']}"
        group = groups.setdefault(
            key,
            {
                "mdr_wl": [], "dcs_wl": [], "dcs_bits": [],
                "em_bits": [], "speedup": [], "mdr_fmax": [],
                "dcs_fmax": [], "freq_ratio": [],
            },
        )
        group["mdr_wl"].extend(record["mdr"]["wirelength"])
        group["mdr_fmax"].extend(record["mdr"]["fmax"])
        dcs = record["dcs"].get("wire_length") or next(
            iter(record["dcs"].values())
        )
        group["dcs_wl"].extend(dcs["wirelength"])
        group["dcs_bits"].append(dcs.get("routing_bits", 0))
        group["em_bits"].append(
            record["dcs"].get("edge_matching", {}).get("routing_bits", 0)
        )
        group["dcs_fmax"].extend(dcs["fmax"])
        group["speedup"].append(dcs["speedup"])
        group["freq_ratio"].extend(dcs["frequency_ratios"])

    def mean(values: list) -> float:
        return _round(sum(values) / len(values)) if values else 0.0

    return {
        key: {
            "n_runs": len(group["speedup"]),
            "mdr_wirelength": sum(group["mdr_wl"]),
            "dcs_wirelength": sum(group["dcs_wl"]),
            "dcs_param_bits": sum(group["dcs_bits"]),
            "em_param_bits": sum(group["em_bits"]),
            "mean_speedup": mean(group["speedup"]),
            "mean_mdr_fmax": mean(group["mdr_fmax"]),
            "mean_dcs_fmax": mean(group["dcs_fmax"]),
            "mean_frequency_ratio": mean(group["freq_ratio"]),
        }
        for key, group in sorted(groups.items())
    }


def summarize(
    spec: CampaignSpec,
    records: Sequence[Dict[str, object]],
    seconds: float,
    progress: ProgressLog,
    workers: int,
    resumed: int = 0,
) -> Dict[str, object]:
    """The machine-readable campaign summary (``BENCH_campaign.json``,
    same envelope style as ``BENCH_exec.json``)."""
    breakdown = progress.breakdown()
    campaign_row = breakdown.get("campaign", {})
    return {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "campaign": spec.name,
        "description": spec.description,
        "suites": list(spec.suites),
        "scale": spec.scale,
        "seeds": list(spec.seeds),
        "variants": [v.label for v in spec.variants],
        "n_runs": len(records),
        "workers": workers,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "seconds": round(seconds, 3),
        "cache": {
            "record_hits": campaign_row.get("cache_hits", 0),
            "record_misses": (
                campaign_row.get("count", 0)
                - campaign_row.get("cache_hits", 0)
            ),
            "resumed_records": resumed,
        },
        "stages": breakdown,
        "qor": qor_metrics(records),
    }


def write_summary(summary: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")


def baseline_from_summary(
    summary: Dict[str, object]
) -> Dict[str, object]:
    """The committed-baseline subset of a summary."""
    return {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "campaign": summary["campaign"],
        "n_runs": summary["n_runs"],
        "seconds": summary["seconds"],
        "qor": summary["qor"],
    }


def write_baseline(summary: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(baseline_from_summary(summary), handle, indent=2)
        handle.write("\n")


def load_baseline(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def compare_to_baseline(
    summary: Dict[str, object],
    baseline: Dict[str, object],
    tolerances: Optional[Dict[str, float]] = None,
) -> List[str]:
    """QoR-gate check; returns violation messages (empty = pass).

    Only *regressions* fail: wirelength totals may not grow beyond
    ``1 + wirelength`` of the baseline, the parameterised-bit totals
    of both DCS strategies not beyond ``1 + param_bits``, mean Fmax /
    speed-up may not drop below ``1 - fmax`` / ``1 - speedup``, and
    wall-clock may not exceed ``runtime_factor`` times the
    baseline's.  Improvements (or a shrunk runtime) pass — re-baseline
    to lock them in.  A metric the baseline does not record (one
    written before the metric existed) is not gated.
    """
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
    violations: List[str] = []

    if summary.get("campaign") != baseline.get("campaign"):
        violations.append(
            "baseline is for campaign "
            f"{baseline.get('campaign')!r}, summary is "
            f"{summary.get('campaign')!r}"
        )
        return violations

    current_qor = summary.get("qor", {})
    for group, base in baseline.get("qor", {}).items():
        cur = current_qor.get(group)
        if cur is None:
            violations.append(
                f"{group}: group missing from the campaign output"
            )
            continue
        for metric, key in (
            ("mdr_wirelength", "wirelength"),
            ("dcs_wirelength", "wirelength"),
            ("dcs_param_bits", "param_bits"),
            ("em_param_bits", "param_bits"),
        ):
            if metric not in base:
                continue
            limit = base[metric] * (1.0 + tol[key])
            if cur[metric] > limit:
                # Identical modes leave a zero bit total to grow from.
                growth = (
                    f"+{100 * (cur[metric] / base[metric] - 1):.1f}%"
                    if base[metric] else "from 0"
                )
                violations.append(
                    f"{group}: {metric} regressed "
                    f"{base[metric]} -> {cur[metric]} "
                    f"({growth}, tolerance +{100 * tol[key]:.0f}%)"
                )
        for metric, key in (
            ("mean_mdr_fmax", "fmax"),
            ("mean_dcs_fmax", "fmax"),
            ("mean_speedup", "speedup"),
        ):
            floor = base[metric] * (1.0 - tol[key])
            if cur[metric] < floor:
                violations.append(
                    f"{group}: {metric} regressed "
                    f"{base[metric]:.4f} -> {cur[metric]:.4f} "
                    f"(-{100 * (1 - cur[metric] / base[metric]):.1f}%"
                    f", tolerance -{100 * tol[key]:.0f}%)"
                )

    # A baseline recorded against a warm cache (or an empty grid) has
    # a near-zero wall-clock that no cold run could honour; below one
    # second the runtime bound is meaningless, so it is skipped rather
    # than failing every PR (the deterministic metrics above still
    # gate).  scripts/rebaseline-qor.sh always measures cold.
    base_seconds = baseline.get("seconds")
    if base_seconds and base_seconds >= 1.0:
        limit = base_seconds * tol["runtime_factor"]
        if summary.get("seconds", 0.0) > limit:
            violations.append(
                f"runtime regressed: {base_seconds:.1f}s -> "
                f"{summary['seconds']:.1f}s (bound "
                f"{tol['runtime_factor']:.1f}x baseline)"
            )
    return violations
