"""Transport-agnostic job-graph core.

This module is the reusable heart of the execution subsystem: jobs are
submitted to a :class:`JobGraph`, dispatched to a pluggable
:class:`JobExecutor` (inline, thread pool, or process pool), and carry
an explicit lifecycle state (:class:`JobState`).  Nothing here assumes
a ``ProcessPoolExecutor``, an event loop, or a particular transport —
the one-shot batch runner :func:`run_tasks` (used by the flow, the
campaign runner and bench-exec) and the ``repro.serve`` HTTP service
are both thin clients of this one core.

Determinism contract (inherited by every client):

* :meth:`JobGraph.wait` returns results in **submission order**,
  whatever the completion order was, and fires ``on_result(index,
  result)`` incrementally in strict submission order — callers
  checkpoint durable state from the callback (campaign JSONL) and a
  killed run resumes byte-identical.
* **First failure wins**: the first job *by submission order* that
  raised propagates its original exception; still-pending jobs are
  cancelled, running ones finish but their results are discarded.

Priority is a dispatch-order hint, not a preemption mechanism: the
graph keeps its own pending heap and only hands jobs to the executor
up to its capacity, so a higher-priority submission overtakes queued
lower-priority work even while the pool is saturated.
"""

from __future__ import annotations

import heapq
import itertools
import os
import threading
import time
from concurrent.futures import (
    CancelledError,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, List, Optional, Sequence, Tuple


def default_workers() -> int:
    """Worker count honouring ``REPRO_WORKERS`` (default: serial).

    Serial-by-default keeps unit tests and library callers free of
    process-pool surprises; the CLI and the flow server opt in
    explicitly.  A value that is not an integer raises ``ValueError``
    naming the variable, so a typo never silently runs serial.
    """
    env = os.environ.get("REPRO_WORKERS")
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(
            f"REPRO_WORKERS={env!r} is not an integer worker count"
        ) from None


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a caller-supplied worker count (``None`` = default)."""
    if workers is None:
        return default_workers()
    return max(1, int(workers))


def effective_workers(workers: int, n_tasks: int) -> int:
    """Pool size a batch of *n_tasks* would actually run with.

    Never more processes than there is work or hardware:
    oversubscribing cores only adds context-switch and memory pressure
    (results are order-locked, so this cannot change them).  ``1``
    means the batch executes inline; callers use this to decide
    whether to ship shared objects or let workers rebuild them.
    """
    return max(1, min(workers, n_tasks, os.cpu_count() or 1))


@dataclass(frozen=True)
class Task:
    """One unit of schedulable work.

    ``fn`` must be an importable module-level callable when the batch
    runs on a process pool (it is pickled by reference); ``args`` must
    then be picklable.  Thread and inline execution accept closures.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    name: str = ""


class JobState(str, Enum):
    """Explicit job lifecycle; values are JSON/wire-friendly strings."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


class Job:
    """One submitted unit of work plus its lifecycle.

    The public surface is read-only: ``state``, ``result()``,
    ``cancel()``, and ``on_state(callback)``.  State transitions are
    driven by the owning :class:`JobGraph`; listeners fire outside the
    graph lock, in the thread where the transition happened, and a
    listener added after a terminal transition fires immediately.
    """

    __slots__ = (
        "id", "name", "priority", "fn", "args",
        "future", "_graph", "_state", "_listeners",
    )

    def __init__(
        self,
        job_id: int,
        name: str,
        priority: int,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        graph: "JobGraph",
    ) -> None:
        self.id = job_id
        self.name = name
        self.priority = priority
        self.fn = fn
        self.args = args
        self.future: Future = Future()
        self._graph = graph
        self._state = JobState.PENDING
        self._listeners: List[Callable[["Job", JobState], None]] = []

    @property
    def state(self) -> JobState:
        return self._state

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until the job completes; raise what it raised."""
        return self._graph.result(self, timeout=timeout)

    def cancel(self) -> bool:
        """Cancel if still pending; ``True`` when the job never runs."""
        return self._graph.cancel(self)

    def on_state(self, callback: Callable[["Job", JobState], None]) -> None:
        """Register ``callback(job, state)`` for every later transition."""
        fire: Optional[JobState] = None
        with self._graph._lock:
            if self._state.terminal:
                fire = self._state
            else:
                self._listeners.append(callback)
        if fire is not None:
            callback(self, fire)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job(id={self.id}, name={self.name!r}, "
            f"state={self._state.value})"
        )


class JobExecutor:
    """Where dispatched jobs actually run.

    ``capacity()`` bounds how many jobs the :class:`JobGraph` hands
    over at once — the graph, not the pool, owns the queue, which is
    what makes priority lanes and graceful resizing possible.
    """

    #: Lazy executors never receive dispatched jobs; the graph runs
    #: pending jobs in the awaiting caller's thread instead.
    lazy = False
    kind = "abstract"

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        raise NotImplementedError

    def capacity(self) -> int:
        raise NotImplementedError

    def resize(self, workers: int) -> None:
        """Change capacity; in-flight work finishes where it started."""

    def shutdown(self, wait: bool = True) -> None:
        pass


class InlineExecutor(JobExecutor):
    """Serial execution in the awaiting caller's thread.

    No pool, no pickling, identical code path for tests and for nested
    calls (a job running inside a worker process never spawns its own
    pool).  Jobs run lazily when awaited — :meth:`JobGraph.wait`
    executes them one by one in submission order, so incremental
    ``on_result`` checkpointing sees exactly the serial schedule.
    """

    lazy = True
    kind = "inline"

    def capacity(self) -> int:
        return 0


class ThreadJobExecutor(JobExecutor):
    """Thread-pool execution for unpicklable or latency-hiding work."""

    kind = "thread"

    def __init__(self, workers: int) -> None:
        self.workers = max(1, int(workers))
        self._pool = ThreadPoolExecutor(max_workers=self.workers)

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        return self._pool.submit(fn, *args)

    def capacity(self) -> int:
        return self.workers

    def resize(self, workers: int) -> None:
        workers = max(1, int(workers))
        if workers == self.workers:
            return
        old = self._pool
        self._pool = ThreadPoolExecutor(max_workers=workers)
        self.workers = workers
        # Graceful: jobs already handed to the old pool finish there.
        old.shutdown(wait=False)

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)


class ProcessJobExecutor(ThreadJobExecutor):
    """Process-pool execution for picklable, CPU-bound flow stages."""

    kind = "process"

    def __init__(self, workers: int) -> None:
        self.workers = max(1, int(workers))
        self._pool = ProcessPoolExecutor(max_workers=self.workers)

    def resize(self, workers: int) -> None:
        workers = max(1, int(workers))
        if workers == self.workers:
            return
        old = self._pool
        self._pool = ProcessPoolExecutor(max_workers=workers)
        self.workers = workers
        old.shutdown(wait=False)


def executor_for(workers: int, n_tasks: int) -> JobExecutor:
    """The executor a one-shot batch of *n_tasks* should run on."""
    n = effective_workers(workers, n_tasks)
    if n <= 1:
        return InlineExecutor()
    return ProcessJobExecutor(n)


class JobGraph:
    """Submit/await/cancel over a pluggable executor.

    Thread-safe: submissions, completion callbacks (which arrive on
    pool threads), and awaiting callers may interleave freely.  The
    graph holds every pending job in a priority heap and dispatches at
    most ``executor.capacity()`` at a time.
    """

    def __init__(self, executor: Optional[JobExecutor] = None) -> None:
        self.executor = executor if executor is not None else InlineExecutor()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._counter = itertools.count()
        self._heap: List[Tuple[int, int, Job]] = []
        self._n_pending = 0
        self._in_flight = 0
        self._draining = False

    # -- submission ---------------------------------------------------

    def submit(
        self,
        fn: Callable[..., Any],
        *args: Any,
        name: str = "",
        priority: int = 0,
    ) -> Job:
        """Queue one job; higher *priority* dispatches first."""
        with self._lock:
            if self._draining:
                raise RuntimeError(
                    "job graph is draining; new submissions are refused"
                )
            seq = next(self._counter)
            job = Job(
                seq, name or f"job{seq}", priority, fn, tuple(args), self
            )
            heapq.heappush(self._heap, (-priority, seq, job))
            self._n_pending += 1
        self._dispatch()
        return job

    def submit_task(self, task: Task, priority: int = 0) -> Job:
        return self.submit(
            task.fn, *task.args, name=task.name, priority=priority
        )

    # -- dispatch -----------------------------------------------------

    def _dispatch(self) -> None:
        """Hand queued jobs to the executor up to its capacity."""
        if self.executor.lazy:
            return
        while True:
            with self._lock:
                if self._in_flight >= self.executor.capacity():
                    return
                job = self._pop_pending_locked()
                if job is None:
                    return
                job._state = JobState.RUNNING
                job.future.set_running_or_notify_cancel()
                self._in_flight += 1
                listeners = list(job._listeners)
                submit = self.executor.submit
            self._fire(listeners, job, JobState.RUNNING)
            try:
                inner = submit(job.fn, *job.args)
            except RuntimeError:
                # A concurrent resize retired the captured pool between
                # the lock release and the submit; the new pool takes it.
                try:
                    inner = self.executor.submit(job.fn, *job.args)
                except RuntimeError as exc:
                    # The pool itself is broken (a killed worker turns
                    # it into a BrokenProcessPool): fail the job here,
                    # or it would stay running and wedge drain().
                    self._complete(job, None, exc)
                    continue
            inner.add_done_callback(
                lambda f, job=job: self._finish(job, f)
            )

    def _pop_pending_locked(self) -> Optional[Job]:
        while self._heap:
            _, _, job = heapq.heappop(self._heap)
            if job._state is JobState.PENDING:
                self._n_pending -= 1
                return job
        return None

    def _finish(self, job: Job, inner: Future) -> None:
        result: Any = None
        error: Optional[BaseException] = None
        try:
            result = inner.result()
        except BaseException as exc:
            error = exc
        self._complete(job, result, error)
        self._dispatch()

    def _complete(
        self, job: Job, result: Any, error: Optional[BaseException]
    ) -> None:
        """Move a dispatched job to DONE/FAILED and release its slot."""
        state = JobState.DONE if error is None else JobState.FAILED
        with self._lock:
            job._state = state
            listeners = list(job._listeners)
            job._listeners = []
            self._in_flight -= 1
            self._idle.notify_all()
        if error is None:
            job.future.set_result(result)
        else:
            job.future.set_exception(error)
        self._fire(listeners, job, state)

    @staticmethod
    def _fire(
        listeners: Sequence[Callable[[Job, JobState], None]],
        job: Job,
        state: JobState,
    ) -> None:
        for callback in listeners:
            callback(job, state)

    # -- awaiting -----------------------------------------------------

    def result(self, job: Job, timeout: Optional[float] = None) -> Any:
        """Block until *job* completes; re-raise its exception."""
        if self.executor.lazy:
            self._run_inline(job)
        return job.future.result(timeout)

    def _run_inline(self, job: Job) -> None:
        with self._lock:
            if job._state is not JobState.PENDING:
                return
            job._state = JobState.RUNNING
            self._n_pending -= 1
            listeners = list(job._listeners)
        self._fire(listeners, job, JobState.RUNNING)
        if not job.future.set_running_or_notify_cancel():  # pragma: no cover
            return
        try:
            result = job.fn(*job.args)
        except BaseException as exc:
            state = JobState.FAILED
            job.future.set_exception(exc)
        else:
            state = JobState.DONE
            job.future.set_result(result)
        with self._lock:
            job._state = state
            listeners = list(job._listeners)
            job._listeners = []
            self._idle.notify_all()
        self._fire(listeners, job, state)

    def wait(
        self,
        jobs: Sequence[Job],
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> List[Any]:
        """Await *jobs*; results in submission order.

        ``on_result(index, result)`` — when given — is invoked in the
        calling thread, in strict submission order, as each prefix of
        the batch completes.  Callers use it to checkpoint durable
        state incrementally (the campaign JSONL): when the process is
        killed mid-batch, every result already handed to ``on_result``
        was complete, and the unreported suffix is simply recomputed
        on resume.  The callback sees exactly the results ``wait``
        returns, so it cannot perturb determinism.
        """
        results: List[Any] = [None] * len(jobs)
        error: Optional[BaseException] = None
        for index, job in enumerate(jobs):
            if error is not None:
                self.cancel(job)
                continue
            try:
                results[index] = self.result(job)
            except BaseException as exc:  # first failure wins
                error = exc
                continue
            if on_result is not None:
                on_result(index, results[index])
        if error is not None:
            raise error
        return results

    # -- cancellation -------------------------------------------------

    def cancel(self, job: Job) -> bool:
        """Cancel *job* if still pending.

        ``True`` means the job will never run; a running or finished
        job reports ``False`` and is left alone (flow stages are not
        interruptible mid-computation).  The heap entry of a cancelled
        job is skipped lazily at dispatch time.
        """
        with self._lock:
            if job._state is not JobState.PENDING:
                return False
            job._state = JobState.CANCELLED
            job.future.cancel()
            self._n_pending -= 1
            listeners = list(job._listeners)
            job._listeners = []
            self._idle.notify_all()
        self._fire(listeners, job, JobState.CANCELLED)
        return True

    # -- lifecycle ----------------------------------------------------

    def resize(self, workers: int) -> int:
        """Grow or shrink the executor; returns the new capacity.

        Running jobs finish on the pool they started on; queued jobs
        dispatch to the resized pool immediately.
        """
        self.executor.resize(workers)
        self._dispatch()
        return self.executor.capacity()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Refuse new submissions and wait for quiescence.

        Lazy executors run their whole pending queue here (in priority
        order).  Returns ``True`` once nothing is pending or running.
        """
        with self._lock:
            self._draining = True
        if self.executor.lazy:
            while True:
                with self._lock:
                    job = self._pop_pending_locked()
                    if job is not None:
                        # _run_inline re-checks state; re-queue bookkeeping
                        self._n_pending += 1
                if job is None:
                    break
                self._run_inline(job)
        with self._idle:
            if timeout is None:
                while self._n_pending or self._in_flight:
                    self._idle.wait()
                return True
            end = time.monotonic() + timeout
            while self._n_pending or self._in_flight:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
            return True

    @property
    def draining(self) -> bool:
        return self._draining

    def stats(self) -> dict:
        with self._lock:
            return {
                "pending": self._n_pending,
                "running": self._in_flight,
                "capacity": self.executor.capacity(),
                "executor": self.executor.kind,
                "draining": self._draining,
            }

    def shutdown(self, wait: bool = True) -> None:
        self.executor.shutdown(wait=wait)


def run_tasks(
    tasks: Sequence[Task],
    workers: Optional[int] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """One-shot batch execution; results in submission order.

    Builds a right-sized executor for the batch (inline when one
    worker suffices), submits everything, awaits in submission order
    (``on_result`` fires per completed prefix, see
    :meth:`JobGraph.wait`), and tears the pool down.
    """
    if not tasks:
        return []
    graph = JobGraph(executor_for(resolve_workers(workers), len(tasks)))
    try:
        jobs = [graph.submit_task(task) for task in tasks]
        return graph.wait(jobs, on_result=on_result)
    finally:
        graph.shutdown()


__all__ = [
    "CancelledError",
    "InlineExecutor",
    "Job",
    "JobExecutor",
    "JobGraph",
    "JobState",
    "ProcessJobExecutor",
    "Task",
    "ThreadJobExecutor",
    "default_workers",
    "effective_workers",
    "executor_for",
    "resolve_workers",
    "run_tasks",
]
