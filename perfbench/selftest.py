"""Seconds-scale self-test of the benchmark.

Runs every workload on tiny inputs (``--scale tiny``) and checks that

* every metric ``BENCHMARK.json`` declares prints by name with its
  unit, in the human-readable lines and in the final JSON result;
* the traced run's output digest equals the untraced run's, its
  counter digest repeats, and its trace file is Chrome trace JSON;
* an injected fault — one flipped parameterised-bit count, or the
  mode circuits swapped — raises ``fail_rate`` above 0 instead of
  crashing the run;
* without the repository sources the benchmark exits non-zero and
  prints no result.

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def tiny_run(workload: str, trace: int, *extra: str):
    proc = bench("--workload", workload, "--seed", "3", "--seconds",
                 "0.1", "--trace", str(trace), "--scale", "tiny", *extra)
    if proc.returncode != 0:
        raise AssertionError(
            f"{workload} trace={trace} exited {proc.returncode}:\n"
            f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    return lines, record, result


def check_units(lines, result, declared) -> None:
    printed = {}
    for line in lines[:-2]:
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = parts[2]
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if printed.get(name) != unit:
            raise AssertionError(f"{name} not printed with unit {unit}")
        if result["metrics"][name]["unit"] != unit:
            raise AssertionError(f"{name} lacks unit {unit} in result")
    if set(result["metrics"]) != {m["name"] for m in declared}:
        raise AssertionError(f"metrics {sorted(result['metrics'])}")
    if printed.get("fail_rate") != "fraction":
        raise AssertionError("fail_rate not printed")


def fail_rate(lines) -> float:
    for line in lines:
        if line.startswith("fail_rate "):
            return float(line.split()[1])
    raise AssertionError("fail_rate not printed")


def main() -> int:
    digests = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        lines, record, result = tiny_run(workload, 0)
        check_units(lines, result, SPEC["end_to_end"])
        if not result["correct"] or result["failed"]:
            raise AssertionError(f"{workload}: {record['problems']}")
        digests[workload] = record["digest"]
        print(f"ok   {workload}: end-to-end metrics and checks")

    for workload in ("fir-timed", "warm"):
        traced = []
        for _ in range(2):
            lines, record, result = tiny_run(workload, 1)
            check_units(lines, result, SPEC["per_layer"])
            traced.append(record)
        if {r["digest"] for r in traced} != {digests[workload]}:
            raise AssertionError(f"{workload}: traced digest differs")
        if len({r["counter_digest"] for r in traced}) != 1:
            raise AssertionError(f"{workload}: counters not repeatable")
        events = json.loads(
            (ROOT / traced[0]["trace_file"]).read_text())["traceEvents"]
        if not any(e["name"] == "route.troute" for e in events) and (
                workload != "warm"):
            raise AssertionError(f"{workload}: no TRoute spans")
        print(f"ok   {workload}: per-layer metrics, digests, trace file")

    for fault in ("bits", "swap"):
        lines, record, result = tiny_run("klut", 0, "--inject", fault)
        if result["failed"] < 1 or result["correct"]:
            raise AssertionError(f"fault {fault} went unnoticed")
        if not fail_rate(lines) > 0:
            raise AssertionError(f"fault {fault}: fail_rate is 0")
        print(f"ok   injected fault {fault}: fail_rate "
              f"{fail_rate(lines):.3g}")

    scratch = ROOT / ".perfbench-out"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "fir", "--seed", "1", "--seconds", "1",
                     cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("ran without the repository sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   refuses to run without the repository sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
