"""Tests of the transport-agnostic job-graph core (``repro.exec.jobs``).

The job graph carries the determinism contract every client (the
``run_tasks`` batch runner, the campaign runner, ``repro serve``)
inherits:
submission-order results, incremental ``on_result``, first-failure-wins
— exercised here under the inline, thread, and process executors.
"""

import os
import threading
import time

import pytest

from repro.exec.jobs import (
    InlineExecutor,
    JobGraph,
    JobState,
    ProcessJobExecutor,
    Task,
    ThreadJobExecutor,
    executor_for,
    resolve_workers,
    run_tasks,
)


# Module-level so the process executor can pickle them by reference.

def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _sleepy_square(x, seconds=0.05):
    time.sleep(seconds)
    return x * x


def _pid(_x):
    return os.getpid()


def make_executor(kind, workers=2):
    return {
        "inline": InlineExecutor,
        "thread": ThreadJobExecutor,
        "process": ProcessJobExecutor,
    }[kind](*(() if kind == "inline" else (workers,)))


EXECUTORS = ("inline", "thread", "process")


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------


class TestLifecycle:
    @pytest.mark.smoke
    def test_inline_states(self):
        graph = JobGraph(InlineExecutor())
        seen = []
        job = graph.submit(_square, 3)
        job.on_state(lambda j, s: seen.append(s))
        assert job.state is JobState.PENDING
        assert job.result() == 9
        assert job.state is JobState.DONE
        assert seen == [JobState.RUNNING, JobState.DONE]
        graph.shutdown()

    def test_listener_after_terminal_fires_immediately(self):
        graph = JobGraph(InlineExecutor())
        job = graph.submit(_square, 2)
        assert job.result() == 4
        seen = []
        job.on_state(lambda j, s: seen.append(s))
        assert seen == [JobState.DONE]
        graph.shutdown()

    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_failed_state_and_exception(self, kind):
        graph = JobGraph(make_executor(kind))
        job = graph.submit(_boom, 7)
        with pytest.raises(ValueError, match="boom 7"):
            job.result()
        assert job.state is JobState.FAILED
        graph.shutdown()

    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_results_in_submission_order(self, kind):
        graph = JobGraph(make_executor(kind))
        jobs = [graph.submit(_square, i) for i in range(8)]
        assert graph.wait(jobs) == [i * i for i in range(8)]
        assert all(j.state is JobState.DONE for j in jobs)
        graph.shutdown()


# ---------------------------------------------------------------------------
# cancellation
# ---------------------------------------------------------------------------


class TestCancellation:
    @pytest.mark.parametrize("kind", ("thread", "process"))
    def test_pending_job_cancels(self, kind):
        # One worker, the first job blocks the pool long enough for
        # the queued second job to be cancelled before dispatch.
        graph = JobGraph(make_executor(kind, workers=1))
        first = graph.submit(_sleepy_square, 5, 0.3)
        second = graph.submit(_square, 6)
        assert second.cancel() is True
        assert second.state is JobState.CANCELLED
        with pytest.raises(Exception):
            second.result(timeout=1)
        assert first.result(timeout=10) == 25
        # Cancelling a finished job is a no-op.
        assert first.cancel() is False
        graph.shutdown()

    def test_running_job_does_not_cancel(self):
        graph = JobGraph(ThreadJobExecutor(1))
        started = threading.Event()
        release = threading.Event()

        def body():
            started.set()
            release.wait(5)
            return "ran"

        job = graph.submit(body)
        assert started.wait(5)
        assert job.cancel() is False
        release.set()
        assert job.result(timeout=5) == "ran"
        graph.shutdown()

    def test_cancelled_listener_fires(self):
        graph = JobGraph(ThreadJobExecutor(1))
        block = threading.Event()
        graph.submit(block.wait, 5)
        victim = graph.submit(_square, 1)
        seen = []
        victim.on_state(lambda j, s: seen.append(s))
        assert graph.cancel(victim) is True
        assert seen == [JobState.CANCELLED]
        block.set()
        graph.shutdown()


# ---------------------------------------------------------------------------
# first failure wins + on_result ordering
# ---------------------------------------------------------------------------


class TestWaitSemantics:
    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_first_failure_by_submission_order_wins(self, kind):
        graph = JobGraph(make_executor(kind))
        jobs = [
            graph.submit(_square, 0),
            graph.submit(_boom, 1),
            graph.submit(_square, 2),
            graph.submit(_boom, 3),
        ]
        with pytest.raises(ValueError, match="boom 1"):
            graph.wait(jobs)
        graph.shutdown()

    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_on_result_incremental_submission_order(self, kind):
        graph = JobGraph(make_executor(kind))
        seen = []
        jobs = [graph.submit(_square, i) for i in range(6)]
        graph.wait(jobs, on_result=lambda i, r: seen.append((i, r)))
        assert seen == [(i, i * i) for i in range(6)]
        graph.shutdown()

    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_on_result_stops_at_first_failure(self, kind):
        graph = JobGraph(make_executor(kind))
        seen = []
        jobs = [
            graph.submit(_square, 0),
            graph.submit(_square, 1),
            graph.submit(_boom, 2),
            graph.submit(_square, 3),
        ]
        with pytest.raises(ValueError, match="boom 2"):
            graph.wait(jobs, on_result=lambda i, r: seen.append(i))
        # Only the clean prefix is checkpointed, never the suffix.
        assert seen == [0, 1]
        graph.shutdown()

    def test_failure_cancels_pending_suffix(self):
        graph = JobGraph(ThreadJobExecutor(1))
        block = threading.Event()
        jobs = [
            graph.submit(_boom, 0),
            graph.submit(block.wait, 5),
            graph.submit(_square, 2),
        ]
        with pytest.raises(ValueError, match="boom 0"):
            graph.wait(jobs)
        block.set()
        # The trailing pending job was cancelled by wait().
        assert jobs[2].state in (JobState.CANCELLED, JobState.PENDING)
        graph.shutdown()


# ---------------------------------------------------------------------------
# priority lanes, resize, drain
# ---------------------------------------------------------------------------


class TestGraphAdmin:
    def test_priority_overtakes_queued_batch(self):
        # Saturate a 1-worker pool, queue batch jobs, then submit an
        # interactive one: it must dispatch before the queued batch.
        graph = JobGraph(ThreadJobExecutor(1))
        release = threading.Event()
        order = []
        gate = graph.submit(release.wait, 5, name="gate")
        batch = [
            graph.submit(order.append, f"batch{i}", priority=0)
            for i in range(2)
        ]
        urgent = graph.submit(order.append, "urgent", priority=10)
        release.set()
        graph.wait([gate, urgent] + batch)
        assert order[0] == "urgent"
        graph.shutdown()

    def test_resize_grows_capacity(self):
        graph = JobGraph(ThreadJobExecutor(1))
        assert graph.stats()["capacity"] == 1
        assert graph.resize(3) == 3
        jobs = [graph.submit(_sleepy_square, i, 0.05) for i in range(6)]
        assert graph.wait(jobs) == [i * i for i in range(6)]
        graph.shutdown()

    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_drain_completes_work_then_refuses(self, kind):
        graph = JobGraph(make_executor(kind))
        jobs = [graph.submit(_square, i) for i in range(4)]
        assert graph.drain(timeout=30) is True
        assert graph.draining
        assert [j.result() for j in jobs] == [0, 1, 4, 9]
        with pytest.raises(RuntimeError, match="draining"):
            graph.submit(_square, 9)
        graph.shutdown()

    def test_stats_shape(self):
        graph = JobGraph(ThreadJobExecutor(2))
        stats = graph.stats()
        assert stats == {
            "pending": 0, "running": 0, "capacity": 2,
            "executor": "thread", "draining": False,
        }
        graph.shutdown()


# ---------------------------------------------------------------------------
# batch entry points
# ---------------------------------------------------------------------------


class TestRunTasks:
    def test_serial_runs_in_caller_process(self):
        pids = run_tasks([Task(_pid, (i,)) for i in range(3)], workers=1)
        assert set(pids) == {os.getpid()}

    def test_executor_for_one_worker_is_inline(self):
        assert executor_for(1, 10).kind == "inline"
        assert executor_for(4, 1).kind == "inline"

    def test_resolve_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(3) == 3
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5
