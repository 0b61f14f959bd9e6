"""Set-up, the timed closed loop, output checks and the metrics.

One caller runs a workload's flows back to back in this process,
serially (``workers=1``): a closed loop.  A *pass* runs every pair of
the workload's pool once.  The loop runs at least one pass and stops
at the first flow that ends after ``seconds`` of wall time; a pass
then costs the sum over the pool of each pair's median flow time.
Cold workloads give every flow a fresh, enabled stage cache, so cache
writes fall inside the flow; the warm workload replays a cache that
set-up populated.

Time metrics are scaled to a reference machine speed measured by a
calibration kernel between flows (see :func:`calibration_sample`).

A traced run alternates untraced and traced passes: the traced ones
give the per-layer numbers, and their ratio to the untraced ones is
the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy

from repro.core.flow import implement_multi_mode
from repro.exec.cache import StageCache
from repro.exec.fingerprint import code_fingerprint

import oracle
from tracer import FRAME_SPANS, Tracer, instrumented
from workloads import Workload

#: A run sets up at least this many times, and keeps setting up until
#: set-up has taken SETUP_SECONDS; ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 0.5
#: Seconds of each calibration kernel at the reference speed (about
#: their fastest on the 2-core x86_64 Xeon VM the benchmark was sized
#: on, so scaled times read like times on that VM when it is quiet).
REFERENCE_CALIBRATION_S = (0.003, 0.003)
#: Share of each flow's time spent re-measuring the machine's speed.
CALIBRATION_SHARE = 0.02
#: Deterministic per-layer counters, hashed into the counter digest.
COUNTER_METRICS = (
    "route.troute_searches", "route.troute_pops",
    "route.troute_iterations", "route.mdr_searches",
    "route.mdr_iterations", "place.mdr_moves", "core.combined_moves",
    "core.tplace_moves", "core.tunable_connections",
    "core.shared_connections", "arch.width_attempts",
    "arch.channel_width", "arch.rrg_nodes", "exec.cache_hit_rate",
)


@dataclass
class FlowOutcome:
    name: str
    modes: Tuple
    #: The flow's MultiModeResult; dropped once checked, so results
    #: never pile up on the heap of later flows.
    result: Optional[object] = None
    finished: bool = False
    problems: List[str] = field(default_factory=list)
    qor: Optional[dict] = None
    digest: str = ""


@dataclass
class RunReport:
    #: Seconds of every timed flow, one list per pair of the pool.
    flow_s: List[List[float]] = field(default_factory=list)
    traced_flow_s: List[List[float]] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    #: Calibration samples, taken after each set-up and each flow.
    calibration_s: List[Tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    qor: Dict[str, float] = field(default_factory=dict)
    digest: str = ""
    layers: List[Dict[str, float]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @staticmethod
    def _pass_seconds(samples: List[List[float]]) -> float:
        """One pass over the pool: the sum of per-pair medians."""
        return sum(statistics.median(s) for s in samples)

    def untraced_s(self) -> float:
        return self._pass_seconds(self.flow_s)

    def compile_s(self) -> float:
        """A pass's wall time, scaled to the reference speed."""
        return speed_factor(self.calibration_s) * self.untraced_s()

    def setup_seconds(self) -> float:
        return (speed_factor(self.calibration_s)
                * statistics.median(self.setup_s))

    def traced_s(self) -> float:
        return self._pass_seconds(self.traced_flow_s)


def calibrate(samples: List[Tuple[float, float]], seconds: float) -> None:
    """Sample the machine's speed for a share of *seconds*."""
    spent = 0.0
    while not spent or spent < CALIBRATION_SHARE * seconds:
        samples.append(calibration_sample())
        spent += sum(samples[-1])


def speed_factor(samples: List[Tuple[float, float]]) -> float:
    """Wall seconds here -> seconds at the reference speed.

    The geometric mean of both kernels' speed-ups over the reference.
    """
    factor = 1.0
    for i, reference in enumerate(REFERENCE_CALIBRATION_S):
        factor *= reference / statistics.median(s[i] for s in samples)
    return math.sqrt(factor)


#: The array the second calibration kernel streams over (1.6 MB).
_STREAM = numpy.arange(200_000, dtype=numpy.float64)


def calibration_sample() -> Tuple[float, float]:
    """Seconds two fixed kernels, which run no repository code, take now.

    A shared host's speed drifts by tens of percent over seconds, far
    more than the changes the benchmark must resolve, and the drift
    hits code unevenly: interpreter-bound work (replays, annealing)
    slows like the first kernel — heap, dict and sort work — and
    array-streaming work (the vectorized router) like the second, a
    numpy pass over a 1.6 MB array.  Both are timed between flows, and
    time metrics are scaled by their medians.
    """
    rng = random.Random(7)
    start = time.perf_counter()
    heap: List[Tuple[float, int]] = []
    table = {}
    for i in range(3000):
        key = rng.random()
        heapq.heappush(heap, (key, i))
        table[i] = (key, i % 17)
    total = 0
    while heap:
        total += table[heapq.heappop(heap)[1]][1]
    sorted(table.values())
    middle = time.perf_counter()
    stream = _STREAM
    for _ in range(5):
        stream = numpy.sqrt(stream * 1.0001 + 1.0)
    return middle - start, time.perf_counter() - middle


def _run_flow(name: str, modes: Tuple, options, cache_root: str,
              tracer: Optional[Tracer]) -> Tuple[FlowOutcome, float]:
    outcome = FlowOutcome(name, modes)
    gc.collect()  # every flow starts from the same heap
    frame = tracer.span("flow") if tracer else contextlib.nullcontext()
    with frame:
        start = time.perf_counter()
        try:
            outcome.result = implement_multi_mode(
                name, modes, options, workers=1,
                cache=StageCache(cache_root, enabled=True),
            )
            outcome.finished = True
        except Exception as error:  # counted; the run goes on
            outcome.problems.append(
                f"flow raised {type(error).__name__}: {error}")
        elapsed = time.perf_counter() - start
    return outcome, elapsed


def _inject(outcome: FlowOutcome, fault: str) -> None:
    """Corrupt one finished flow the way a real bug would."""
    if fault == "swap":
        outcome.modes = tuple(reversed(outcome.modes))
    elif fault == "bits":
        result = outcome.result
        strategy = min(result.dcs, key=lambda s: s.value)
        dcs = result.dcs[strategy]
        cost = replace(dcs.cost, routing_bits=dcs.cost.routing_bits ^ 1)
        result.dcs[strategy] = replace(dcs, cost=cost)


def _evaluate(outcomes: List[FlowOutcome], tracer: Optional[Tracer],
              full_check: bool, fault: Optional[str]) -> None:
    """QoR and digest of every finished flow, plus the output checks."""
    if fault and outcomes and outcomes[0].finished:
        _inject(outcomes[0], fault)
    for outcome in outcomes:
        if not outcome.finished:
            continue
        if full_check:
            outcome.problems += oracle.check_flow(
                outcome.result, outcome.modes)
        sta = (tracer.span("timing.sta") if tracer
               else contextlib.nullcontext())
        with sta:
            outcome.qor = oracle.flow_qor(outcome.result)
        outcome.digest = oracle.flow_digest(outcome.result, outcome.qor)
        outcome.result = None


def _fresh_dir(work: str) -> str:
    return tempfile.mkdtemp(prefix="cache-", dir=work)


def run_workload(workload: Workload, seed: int, seconds: float,
                 traced: bool, work: str, scale: str = "full",
                 fault: Optional[str] = None,
                 tracer: Optional[Tracer] = None) -> RunReport:
    report = RunReport()
    options = workload.options()
    code_fingerprint()  # one-time source hash of every cache key

    # -- set-up: generate the pool; on warm, also populate the cache --
    reference: List[FlowOutcome] = []
    warm_root = ""
    while (len(report.setup_s) < SETUP_REPEATS
           or sum(report.setup_s) < SETUP_SECONDS):
        if warm_root:
            shutil.rmtree(warm_root, ignore_errors=True)
        start = time.perf_counter()
        pairs = workload.pairs(seed, scale)
        if workload.warm:
            warm_root = _fresh_dir(work)
            reference = [
                _run_flow(name, modes, options, warm_root, None)[0]
                for name, modes in pairs
            ]
        report.setup_s.append(time.perf_counter() - start)
    calibrate(report.calibration_s, sum(report.setup_s))
    if workload.warm:
        _evaluate(reference, None, True, None)
        _account(report, reference)
    report.flow_s = [[] for _ in pairs]
    report.traced_flow_s = [[] for _ in pairs]

    # -- timed closed loop: passes over the pool, flow after flow --
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        traced_pass = traced and index % 2 == 1
        pass_tracer = tracer if traced_pass else None
        patch = (instrumented(tracer) if traced_pass
                 else contextlib.nullcontext())
        frame = (tracer.span("pass") if traced_pass
                 else contextlib.nullcontext())
        pass_root = len(tracer.spans) if traced_pass else -1
        samples = report.traced_flow_s if traced_pass else report.flow_s
        outcomes = []
        with patch, frame:
            for k, (name, modes) in enumerate(pairs):
                root = warm_root or _fresh_dir(work)
                outcome, elapsed = _run_flow(name, modes, options, root,
                                             pass_tracer)
                if not workload.warm:
                    shutil.rmtree(root, ignore_errors=True)
                outcomes.append(outcome)
                samples[k].append(elapsed)
                calibrate(report.calibration_s, elapsed)
                if (not traced and index
                        and time.perf_counter() >= deadline):
                    break

        check = (tracer.span("check") if traced_pass
                 else contextlib.nullcontext())
        check_root = len(tracer.spans) if traced_pass else -1
        with check:
            _evaluate(outcomes, pass_tracer, not workload.warm, fault)
        if not reference:
            reference = outcomes
        for outcome, ref in zip(outcomes, reference):
            if not outcome.finished:
                continue
            if workload.warm and outcome.qor != ref.qor:
                outcome.problems.append(
                    "replayed QoR differs from the populating run")
            elif outcome.digest != ref.digest:
                outcome.problems.append(
                    "output differs from the reference "
                    + ("run" if workload.warm else "pass"))
        _account(report, outcomes)
        if not report.qor:
            report.qor = oracle.aggregate_qor(
                [o.qor for o in outcomes if o.qor is not None])
            report.digest = oracle.combine([o.digest for o in reference])
        if traced_pass:
            # Proves the wrappers change nothing: a traced pass that
            # differs from the reference has failed its flows above.
            report.digest = oracle.combine([o.digest for o in outcomes])
            report.layers.append(layer_metrics(
                tracer, pass_root, check_root, outcomes))
        index += 1
        if (time.perf_counter() >= deadline
                and index >= (2 if traced else 1)):
            return report


def _account(report: RunReport, outcomes: List[FlowOutcome]) -> None:
    report.attempted += len(outcomes)
    for outcome in outcomes:
        if outcome.problems:
            report.failed += 1
            report.problems += [f"{outcome.name}: {p}"
                                for p in outcome.problems]
            for problem in outcome.problems:
                print(f"perfbench: {outcome.name}: {problem}",
                      file=sys.stderr)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, pass_root: int, check_root: int,
                  outcomes: List[FlowOutcome]) -> Dict[str, float]:
    """Per-layer self times and counters of one traced pass."""
    indices = tracer.subtree(pass_root)
    own = tracer.self_seconds(indices)
    busy: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    count: Dict[Tuple[str, str], float] = defaultdict(float)
    attempts = 0
    for i in indices:
        span = tracer.spans[i]
        if span.name in FRAME_SPANS:
            continue
        busy[span.name] += own[i]
        calls[span.name] += 1
        for key, value in span.counters.items():
            count[span.name, key] += value
        if (span.name == "arch.rrg"
                and tracer.spans[span.parent].name == "flow"):
            attempts += 1
    sta_s = sum(tracer.spans[i].seconds
                for i in tracer.subtree(check_root)
                if tracer.spans[i].name == "timing.sta")
    flow_s = sum(tracer.spans[i].seconds for i in indices
                 if tracer.spans[i].name == "flow")
    qors = [o.qor for o in outcomes if o.qor is not None]
    strategies = [s for q in qors for s in q["dcs"].values()]
    gets = calls["exec.cache_get"]

    def per_flow(key: str) -> float:
        return _ratio(sum(q[key] for q in qors), len(qors))

    def search(layer: str) -> Dict[str, float]:
        return {
            "searches": count[layer, "searches"],
            "pops_per_search": _ratio(count[layer, "pops"],
                                      count[layer, "searches"]),
            "iterations": _ratio(count[layer, "iterations"],
                                 calls[layer]),
        }

    troute, mdr = search("route.troute"), search("route.mdr")
    return {
        "route.troute_s": busy["route.troute"],
        "route.troute_searches": troute["searches"],
        "route.troute_pops": count["route.troute", "pops"],
        "route.troute_pops_per_search": troute["pops_per_search"],
        "route.troute_settled_ratio": _ratio(
            count["route.troute", "settled"],
            count["route.troute", "pops"]),
        "route.troute_iterations": troute["iterations"],
        "route.troute_searches_per_conn": _ratio(
            troute["searches"], count["route.troute", "connections"]),
        "route.mdr_s": busy["route.mdr"],
        "route.mdr_searches": mdr["searches"],
        "route.mdr_pops_per_search": mdr["pops_per_search"],
        "route.mdr_iterations": mdr["iterations"],
        "place.mdr_s": busy["place.mdr"],
        "place.mdr_moves": count["place.mdr", "moves"],
        "place.mdr_moves_per_s": _ratio(count["place.mdr", "moves"],
                                        busy["place.mdr"]),
        "place.mdr_accept_rate": _ratio(count["place.mdr", "accepted"],
                                        count["place.mdr", "moves"]),
        "core.combined_s": busy["core.combined"],
        "core.combined_moves": count["core.combined", "moves"],
        "core.combined_moves_per_s": _ratio(
            count["core.combined", "moves"], busy["core.combined"]),
        "core.tplace_s": busy["core.tplace"],
        "core.tplace_moves": count["core.tplace", "moves"],
        "core.tplace_moves_per_s": _ratio(count["core.tplace", "moves"],
                                          busy["core.tplace"]),
        "core.tunable_connections": float(sum(
            s["tunable_connections"] for s in strategies)),
        "core.shared_connections": float(sum(
            s["shared_connections"] for s in strategies)),
        "core.unpack_s": busy["core.unpack"],
        "timing.criticality_s": busy["timing.criticality"],
        "timing.sta_s": sta_s,
        "arch.width_attempts": _ratio(attempts, len(outcomes)),
        "arch.channel_width": per_flow("channel_width"),
        "arch.rrg_s": busy["arch.rrg"],
        "arch.rrg_nodes": per_flow("rrg_nodes"),
        "exec.cache_key_s": busy["exec.cache_key"],
        "exec.cache_get_s": busy["exec.cache_get"],
        "exec.cache_put_s": busy["exec.cache_put"],
        "exec.cache_bytes_written": count["exec.cache_put", "bytes"],
        "exec.cache_hit_rate": _ratio(count["exec.cache_get", "hit"],
                                      gets),
        "exec.cache_errors": (count["exec.cache_get", "errors"]
                              + count["exec.cache_put", "errors"]),
        "trace.coverage": _ratio(sum(busy.values()), flow_s),
    }


def median_layers(report: RunReport) -> Dict[str, float]:
    """Median of every per-layer metric over the traced passes."""
    names = report.layers[0]
    merged = {name: statistics.median(p[name] for p in report.layers)
              for name in names}
    merged["trace.overhead"] = (report.traced_s()
                                / report.untraced_s() - 1.0)
    return merged
