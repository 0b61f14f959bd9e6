"""Parallel flow execution with persistent stage caching.

The ``repro.exec`` subsystem is the machinery that lets the tool flow
scale to the paper's full experiment sweeps (Figs. 5-7, Table 1) and
beyond:

* :mod:`repro.exec.fingerprint` — stable content hashes of every stage
  input (LUT circuits, architectures, flow options), so a stage result
  is addressed by *what* produced it, not *when*.
* :mod:`repro.exec.cache` — an on-disk, hash-addressed memo of stage
  results (placements, routings, merged tunable circuits, whole
  multi-mode results) with atomic writes and corruption tolerance.
* :mod:`repro.exec.jobs` — the transport-agnostic job-graph core:
  submit/await/cancel with explicit job states over pluggable inline,
  thread-pool, and process-pool executors, plus priority dispatch and
  graceful resize/drain (the substrate of the ``repro.serve`` flow
  service); :func:`~repro.exec.jobs.run_tasks` runs a one-shot batch
  of tasks (:class:`~repro.exec.jobs.Task`) with results in
  submission order regardless of completion order.
* :mod:`repro.exec.progress` — wall-clock accounting per stage, merged
  across worker processes, feeding ``BENCH_exec.json``.

The cache key of a stage is ``sha256(version, stage name, canonical
serialisation of every input)``; see :func:`repro.exec.fingerprint.fingerprint`
for the canonicalisation rules and ``ARCHITECTURE.md`` for the cache
layout and invalidation rules.
"""

from repro.exec.cache import (
    CacheStats,
    StageCache,
    atomic_append_text,
    atomic_write_bytes,
    atomic_write_text,
    default_cache_dir,
)
from repro.exec.fingerprint import FINGERPRINT_VERSION, fingerprint
from repro.exec.jobs import (
    InlineExecutor,
    Job,
    JobExecutor,
    JobGraph,
    JobState,
    ProcessJobExecutor,
    Task,
    ThreadJobExecutor,
    default_workers,
    effective_workers,
    executor_for,
    resolve_workers,
    run_tasks,
)
from repro.exec.progress import ProgressLog, StageRecord

__all__ = [
    "InlineExecutor",
    "Job",
    "JobExecutor",
    "JobGraph",
    "JobState",
    "ProcessJobExecutor",
    "ThreadJobExecutor",
    "effective_workers",
    "executor_for",
    "resolve_workers",
    "run_tasks",
    "CacheStats",
    "StageCache",
    "atomic_append_text",
    "atomic_write_bytes",
    "atomic_write_text",
    "default_cache_dir",
    "FINGERPRINT_VERSION",
    "fingerprint",
    "ProgressLog",
    "StageRecord",
    "Task",
    "default_workers",
]
