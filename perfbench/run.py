"""Benchmark of the multi-mode implementation flow: compile time + QoR.

Drives the unmodified flow (``repro.core.flow.implement_multi_mode``)
on one of four seeded workloads, checks every flow's output, and
prints every metric by name with its unit.  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
with times scaled to a reference machine speed (see ``measure.py``);
``--trace 1`` reports the per-layer metrics, from passes run through
the span wrappers of ``tracer.py``, and writes the spans as Chrome
trace-event JSON (open it in Perfetto).  The line before the result
is a JSON record with the run's provenance and digests; the same
record, and the trace, are written under ``.perfbench-out/``.

Run from the repository root::

    python3 perfbench/run.py --workload fir --seed 1 --seconds 20 --trace 0
    python3 perfbench/selftest.py     # seconds-scale self-test

``--scale tiny`` and ``--inject {bits,swap}`` exist for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
#: The keys of ``workloads.WORKLOADS``, which cannot be imported before
#: the sources are found.
WORKLOAD_NAMES = ("fir", "klut", "fir-timed", "warm")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"),
                        default="full")
    parser.add_argument("--inject", choices=("bits", "swap"))
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


def declared_metrics() -> dict:
    """name -> unit of every metric ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "core" / "flow.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from measure import (
        COUNTER_METRICS,
        median_layers,
        peak_rss_mb,
        run_workload,
        speed_factor,
    )
    from oracle import combine
    from tracer import Tracer
    from workloads import WORKLOADS

    units = declared_metrics()
    OUT_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    tracer = Tracer() if args.trace else None
    try:
        report = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), work, scale=args.scale, fault=args.inject,
            tracer=tracer,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fail_rate = report.failed / report.attempted
    record = provenance(args)
    record.update(
        digest=report.digest,
        attempted=report.attempted,
        failed=report.failed,
        problems=report.problems[:20],
        flow_medians_s=[statistics.median(s) for s in report.flow_s],
        flows_timed=sum(len(s) for s in report.flow_s),
        setups=len(report.setup_s),
        setup_wall_s=statistics.median(report.setup_s),
        speed_factor=speed_factor(report.calibration_s),
    )
    if args.trace:
        layers = median_layers(report)
        values = {name: layers[name] for name in units["per_layer"]}
        record["counter_digest"] = combine(
            [f"{name}={layers[name]!r}" for name in COUNTER_METRICS])
        record["traced_flow_medians_s"] = [
            statistics.median(s) for s in report.traced_flow_s]
        trace_path = OUT_DIR / (
            f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write_chrome(str(trace_path))
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        values = dict(
            report.qor,
            compile_s=report.compile_s(),
            setup_s=report.setup_seconds(),
            peak_rss_mb=peak_rss_mb(),
            success_rate=1.0 - fail_rate,
        )
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units[kind].items()}
    # Printed and recorded, not gated: fail_rate reads 0 on a healthy
    # tree (success_rate is its gated form), and dcs_fmax spreads
    # across seeds with the random logic depth of the klut circuits.
    extra = {"fail_rate": {"value": fail_rate, "unit": "fraction"}}
    if not args.trace:
        extra["dcs_fmax"] = {"value": values.get("dcs_fmax", 0.0),
                             "unit": "1/delay_unit"}
    for name, metric in dict(metrics, **extra).items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'digest':34s} {report.digest}")
    if args.trace:
        print(f"{'counter_digest':34s} {record['counter_digest']}")

    record["metrics"] = dict(metrics, **extra)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}"
               f"-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
