"""Deterministic fan-out of independent flow-stage tasks.

Compatibility facade over :mod:`repro.exec.jobs`, the transport-
agnostic job-graph core that now owns dispatching, pooling, and the
determinism contract.  :class:`Scheduler` keeps the original batch
API — construct with a worker count, call :meth:`run` on a list of
:class:`Task` — and delegates to :func:`repro.exec.jobs.run_tasks`,
so existing callers (and their bit-identical results at any worker
count) are untouched.

The unit of work is a :class:`Task`: a picklable module-level function
plus positional arguments.  :meth:`Scheduler.run` executes a batch and
returns the results **in submission order**, whatever the completion
order was — parallel runs are therefore bit-for-bit interchangeable
with serial runs as long as the tasks themselves are independent and
deterministic, which every flow stage is (they are seeded and share no
mutable state).

``workers <= 1`` executes inline in the calling process: no pool, no
pickling, identical code path for tests and for nested calls (a task
running inside a worker process never spawns its own pool).

Failure semantics: the first task (by submission order) that raised
propagates its original exception; later tasks are cancelled when
still pending but never silently dropped — callers relying on the
flow's ``RoutingError``-driven channel-width retry see exactly the
exception the serial path would have raised.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

# Task and default_workers moved to repro.exec.jobs; re-exported here
# so historical import paths keep working.
from repro.exec.jobs import (  # noqa: F401
    Task,
    default_workers,
    effective_workers,
    resolve_workers,
    run_tasks,
)


class Scheduler:
    """Runs task batches serially or over a process pool."""

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = resolve_workers(workers)

    def effective_workers(self, n_tasks: int) -> int:
        """Pool size a batch of *n_tasks* would actually run with.

        See :func:`repro.exec.jobs.effective_workers`: capped by work
        and hardware; ``1`` means inline execution.
        """
        return effective_workers(self.workers, n_tasks)

    def run(
        self,
        tasks: Sequence[Task],
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> List[Any]:
        """Execute *tasks*; results in submission order.

        ``on_result(index, result)`` fires in the calling process in
        strict submission order as each prefix completes — the
        incremental-checkpoint hook (see
        :meth:`repro.exec.jobs.JobGraph.wait`).
        """
        return run_tasks(tasks, workers=self.workers, on_result=on_result)

    def map(
        self, fn: Callable[..., Any], args_list: Sequence[Tuple]
    ) -> List[Any]:
        """Convenience: one task per argument tuple."""
        return self.run([Task(fn, tuple(args)) for args in args_list])
