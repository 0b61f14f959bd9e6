"""Benchmark of the execution subsystem — emits ``BENCH_exec.json``.

The default workload is the paper's FIR suite shape: *n*
independent two-mode FIR pairs (the paper pairs low-pass *i* with
high-pass *i*), each an independent synth→place→route run;
``--workload`` swaps in any registered suite of :mod:`repro.gen`
(tiny scale).  Three measurements:

* ``serial_cold``   — the seed execution model: one process, no cache;
* ``parallel_cold`` — the same workload fanned over *workers*
  processes into a fresh stage cache;
* ``parallel_warm`` — an identical rerun against the now-populated
  cache (every pair resolves to one ``multimode`` cache hit);
* ``timing_driven_cold`` — the workload rerun with
  ``timing_driven=True``, recording the timing-driven trajectory:
  wall-clock plus the mean routed MDR critical delay against the
  wirelength-driven baseline's.
Results are bit-for-bit identical across all paths (the bench
asserts this on the reconfiguration-cost totals), so the speedups
are pure execution-subsystem wins.  The JSON
report records wall-clocks, per-stage breakdowns, and the headline
ratios so future PRs can track the perf trajectory.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import textwrap
import time
from typing import Dict, List, Optional, Tuple

from repro.bench.fir import generate_fir_circuit
from repro.core.flow import (
    FlowOptions,
    MultiModeResult,
    implement_multi_mode,
    pack_result,
    unpack_result,
)
from repro.exec.cache import StageCache
from repro.exec.jobs import Task, run_tasks
from repro.exec.progress import ProgressLog, StageRecord
from repro.netlist.lutcircuit import LutCircuit

#: v3: adds the ``router_vectorized`` phase (scalar vs vectorized
#: PathFinder core A/B on the routing phase).
#: v4: adds the ``router_batched`` phase (batched-wavefront core on
#: the same routing workload, with search-kernel counters).
#: v5: per-core heap-pop counters on every router leg, plus the
#: ``lookahead`` sub-phase (precomputed-lookahead heuristic and
#: partial rip-up, scalar/vectorized bit-identity asserted).
#: v6: drops the ``router_vectorized`` and ``router_batched`` phases
#: (one router core remains; nothing left to A/B).
SCHEMA_VERSION = 6


def workload_kinds() -> List[str]:
    """Valid ``--workload`` values: the legacy FIR shape plus every
    registered suite of the workload registry."""
    from repro.gen import registered_suites

    return ["fir_pairs"] + list(registered_suites())


def _registry_workload(
    kind: str, n_pairs: int, k: int = 4
) -> List[Tuple[str, tuple]]:
    """*n_pairs* mode pairs of a registered suite at tiny scale."""
    from repro.gen import suite_pairs

    return [
        (name, tuple(modes))
        for name, modes in suite_pairs(
            kind, k=k, scale="tiny", limit=n_pairs
        )
    ]


def _fir_pair_workload(
    n_pairs: int, k: int = 4, n_taps: int = 4, n_nonzero: int = 3
) -> List[Tuple[str, tuple]]:
    """*n_pairs* independent low-pass/high-pass FIR pairs.

    The default 4-tap filters keep one full bench run (serial +
    parallel + warm) in the minutes range; ``--taps 8`` reproduces the
    FIR suite's full-size filters.
    """
    pairs = []
    for i in range(n_pairs):
        lowpass = generate_fir_circuit(
            "lowpass", seed=i, n_taps=n_taps, n_nonzero=n_nonzero,
            k=k, name=f"fir_lp{i}",
        )
        highpass = generate_fir_circuit(
            "highpass", seed=i, n_taps=n_taps, n_nonzero=n_nonzero,
            k=k, name=f"fir_hp{i}",
        )
        pairs.append((f"fir_{i}", (lowpass, highpass)))
    return pairs


def _pair_worker(
    name: str,
    mode_circuits: Tuple[LutCircuit, ...],
    options: FlowOptions,
    cache_root: Optional[str],
    cache_enabled: bool,
) -> Tuple[MultiModeResult, List[StageRecord]]:
    """Implement one multi-mode pair (one task; runs in workers).

    Pairs fan out at this granularity, so within one pair the flow runs
    serially (``workers=1``) — the bench never nests process pools.
    The result travels back RRG-free; the parent reattaches the graph.
    """
    cache = StageCache(cache_root, enabled=cache_enabled)
    progress = ProgressLog()
    start = time.perf_counter()
    result = implement_multi_mode(
        name, mode_circuits, options, workers=1,
        cache=cache, progress=progress,
    )
    records = list(progress.records)
    if not any(r.stage == "multimode" for r in records):
        records.append(
            StageRecord(
                "multimode", name,
                time.perf_counter() - start, cache_hit=False,
            )
        )
    return pack_result(result), records


def _run_workload(
    pairs: List[Tuple[str, tuple]],
    options: FlowOptions,
    workers: int,
    cache: StageCache,
) -> Tuple[float, ProgressLog, List[float], list]:
    """(wall seconds, merged progress, cost signature, results)."""
    progress = ProgressLog()
    cache_root = str(cache.root) if cache.enabled else None
    tasks = [
        Task(_pair_worker, (name, modes, options, cache_root,
                            cache.enabled), name=name)
        for name, modes in pairs
    ]
    start = time.perf_counter()
    outcomes = run_tasks(tasks, workers)
    elapsed = time.perf_counter() - start
    signature = []
    results = []
    for packed, records in outcomes:
        progress.extend(records)
        result = unpack_result(packed)
        results.append(result)
        signature.append(result.mdr.cost.total)
        for dcs in result.dcs.values():
            signature.append(dcs.cost.total)
    return elapsed, progress, signature, results


def _mean_critical_delay(results: list) -> float:
    """Mean routed MDR critical delay over all pairs and modes."""
    delays = [
        d
        for result in results
        for d in result.mdr.per_mode_critical_delay()
    ]
    return sum(delays) / len(delays) if delays else 0.0


def _measure_baseline_src(
    src_path: str,
    n_pairs: int,
    n_taps: int,
    inner_num: float,
    seed: int,
) -> Optional[Dict[str, object]]:
    """Serially run the same workload against another source tree.

    Used to quantify the execution subsystem against the *seed* code
    in a subprocess (`PYTHONPATH` pointed at the old tree).  The old
    tree regenerates its own circuits, so this is a wall-clock
    baseline, not a bit-level comparison.
    """
    script = textwrap.dedent(
        f"""
        import json, time
        from repro.bench.fir import generate_fir_circuit
        from repro.core.flow import FlowOptions, implement_multi_mode
        pairs = []
        for i in range({n_pairs}):
            lp = generate_fir_circuit('lowpass', seed=i,
                n_taps={n_taps}, n_nonzero=3, k=4, name=f'fir_lp{{i}}')
            hp = generate_fir_circuit('highpass', seed=i,
                n_taps={n_taps}, n_nonzero=3, k=4, name=f'fir_hp{{i}}')
            pairs.append((f'fir_{{i}}', [lp, hp]))
        start = time.perf_counter()
        for name, modes in pairs:
            implement_multi_mode(
                name, modes,
                FlowOptions(seed={seed}, inner_num={inner_num}),
            )
        print(json.dumps(
            {{"seconds": round(time.perf_counter() - start, 3)}}
        ))
        """
    )
    env = dict(os.environ, PYTHONPATH=src_path)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=3600,
        )
        if proc.returncode != 0:
            return None
        data = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, ValueError, OSError):
        return None
    return {"src": src_path, "seconds": data["seconds"]}


def run_exec_bench(
    workers: int = 4,
    n_pairs: int = 4,
    inner_num: float = 0.1,
    seed: int = 0,
    cache_dir: Optional[str] = None,
    verbose: bool = False,
    pairs: Optional[List[Tuple[str, tuple]]] = None,
    n_taps: int = 4,
    baseline_src: Optional[str] = None,
    workload: str = "fir_pairs",
) -> Dict[str, object]:
    """Run the measurements; returns the report dict.

    *workload* selects the circuit source: ``"fir_pairs"`` (the
    historical shape) or any registered suite of :mod:`repro.gen`
    (materialised at tiny scale).  *pairs* overrides either (tests
    inject tiny circuits so the bench path is exercised in seconds).
    """
    options = FlowOptions(seed=seed, inner_num=inner_num)
    injected = pairs is not None
    if pairs is None:
        if workload == "fir_pairs":
            pairs = _fir_pair_workload(n_pairs, n_taps=n_taps)
        elif workload in workload_kinds():
            pairs = _registry_workload(workload, n_pairs)
        else:
            raise ValueError(
                f"unknown workload kind {workload!r}; registered: "
                f"{', '.join(workload_kinds())}"
            )
    n_pairs = len(pairs)
    if cache_dir is None:
        cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    else:
        # The cold phase clears its cache; confine that to a bench-own
        # subdirectory so pointing --cache-dir at the shared stage
        # cache can never wipe accumulated results.
        cache_dir = os.path.join(cache_dir, "exec-bench")

    def log(message: str) -> None:
        if verbose:
            print(message, flush=True)

    log(f"workload: {n_pairs} two-mode FIR pairs "
        f"({sum(c.n_luts() for _n, m in pairs for c in m)} LUTs)")

    log("serial cold (seed execution model) ...")
    disabled = StageCache(enabled=False)
    t_serial, p_serial, sig_serial, _res = _run_workload(
        pairs, options, workers=1, cache=disabled
    )
    log(f"  {t_serial:.1f}s")

    log(f"parallel cold ({workers} workers, fresh cache) ...")
    cold_cache = StageCache(cache_dir)
    cold_cache.clear()
    t_cold, p_cold, sig_cold, res_cold = _run_workload(
        pairs, options, workers=workers, cache=cold_cache
    )
    log(f"  {t_cold:.1f}s")

    log("parallel warm (same cache) ...")
    warm_cache = StageCache(cache_dir)
    t_warm, p_warm, sig_warm, _res = _run_workload(
        pairs, options, workers=workers, cache=warm_cache
    )
    log(f"  {t_warm:.1f}s")

    if not (sig_serial == sig_cold == sig_warm):
        raise AssertionError(
            "bench paths disagree: serial/cold/warm results must be "
            "bit-identical"
        )

    # Timing-driven trajectory: the same workload with the
    # criticality model threaded through placement and routing; its
    # stage keys differ from the wirelength-driven run's, so both
    # coexist in the same cache directory.
    log(f"timing-driven cold ({workers} workers, same cache dir) ...")
    timed_options = FlowOptions(
        seed=seed, inner_num=inner_num, timing_driven=True
    )
    t_timed, p_timed, _sig, res_timed = _run_workload(
        pairs, timed_options, workers=workers,
        cache=StageCache(cache_dir),
    )
    log(f"  {t_timed:.1f}s")
    baseline_delay = _mean_critical_delay(res_cold)
    timed_delay = _mean_critical_delay(res_timed)

    baseline = None
    if baseline_src and workload != "fir_pairs":
        log(
            "skipping --baseline-src: the seed tree only knows the "
            "fir_pairs workload"
        )
        baseline_src = None
    if baseline_src:
        log(f"seed-baseline serial run against {baseline_src} ...")
        baseline = _measure_baseline_src(
            baseline_src, n_pairs, n_taps, inner_num, seed
        )
        if baseline:
            log(f"  {baseline['seconds']:.1f}s")

    report = {
        "schema_version": SCHEMA_VERSION,
        "workload": {
            "kind": "injected" if injected else workload,
            "n_pairs": n_pairs,
            "n_mode_circuits": 2 * n_pairs,
            "n_luts": sum(
                c.n_luts() for _n, m in pairs for c in m
            ),
            "inner_num": inner_num,
            "seed": seed,
        },
        "workers": workers,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "serial_cold": {
            "seconds": round(t_serial, 3),
            "stages": p_serial.breakdown(),
        },
        "parallel_cold": {
            "seconds": round(t_cold, 3),
            "stages": p_cold.breakdown(),
        },
        "parallel_warm": {
            "seconds": round(t_warm, 3),
            "stages": p_warm.breakdown(),
        },
        "timing_driven_cold": {
            "seconds": round(t_timed, 3),
            "stages": p_timed.breakdown(),
            "mdr_mean_critical_delay": round(timed_delay, 4),
            "wirelength_mdr_mean_critical_delay": round(
                baseline_delay, 4
            ),
            "critical_delay_ratio_vs_wirelength": round(
                timed_delay / baseline_delay, 4
            ) if baseline_delay > 0 else None,
        },
        "speedup_cold_vs_serial": round(t_serial / t_cold, 3),
        "warm_fraction_of_cold": round(t_warm / t_cold, 4),
        "results_identical": True,
    }
    if baseline:
        report["seed_serial_baseline"] = {
            "seconds": baseline["seconds"],
            "src": baseline["src"],
            "note": (
                "same workload executed serially by the seed "
                "implementation (pre repro.exec, pre hot-path "
                "optimisation)"
            ),
        }
        report["speedup_cold_vs_seed_serial"] = round(
            baseline["seconds"] / t_cold, 3
        )
    return report


def write_bench_json(report: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
