"""WorkerPool mechanics: lifecycle, health/heartbeat, crash respawn."""

import os
import signal
import sys
import time

import pytest

from repro.errors import ServeError
from repro.serve import JobSpec, WorkerPool
from repro.serve.queue import QueuedJob


def queued(job_id, **spec_kwargs):
    spec_kwargs.setdefault(
        "settings",
        {"n_particles": 16, "n_inactive": 0, "n_active": 1,
         "mode": "event", "pincell": True},
    )
    return QueuedJob(
        JobSpec(job_id=job_id, **spec_kwargs),
        attempt=1,
        enqueued_at=time.monotonic(),
    )


def wait_for(predicate, timeout_s=30.0, poll_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return False


def blocked_writing_a_pipe(pid):
    """True when some thread of ``pid`` sleeps inside a pipe write."""
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        with open(f"{task_dir}/{tid}/wchan") as fh:
            if "pipe_write" in fh.read():
                return True
    return False


class TestLifecycle:
    def test_start_twice_rejected(self):
        pool = WorkerPool(1)
        pool.start()
        try:
            with pytest.raises(ServeError, match="already started"):
                pool.start()
        finally:
            pool.stop()

    def test_graceful_stop_joins_all_workers(self):
        pool = WorkerPool(2)
        pool.start()
        assert wait_for(lambda: pool.alive_count() == 2)
        pool.stop(graceful=True)
        assert pool.alive_count() == 0

    def test_needs_at_least_one_worker(self):
        with pytest.raises(ServeError):
            WorkerPool(0)


class TestHealth:
    def test_health_reports_liveness_and_heartbeat(self):
        pool = WorkerPool(1, heartbeat_s=0.05)
        pool.start()
        try:
            assert wait_for(lambda: bool(pool.poll(timeout=0.1)) or
                            pool._workers[0].state == "idle")
            health = pool.health()[0]
            assert health["alive"] is True
            assert health["incarnation"] == 1
            assert health["in_flight"] is None
            assert health["last_seen_s"] < 5.0
        finally:
            pool.stop()

    def test_heartbeats_refresh_last_seen_while_idle(self):
        pool = WorkerPool(1, heartbeat_s=0.05)
        pool.start()
        try:
            pool.poll(timeout=0.2)
            time.sleep(0.3)
            pool.poll(timeout=0.2)  # absorb heartbeats
            assert pool.health()[0]["last_seen_s"] < 0.3
        finally:
            pool.stop()


class TestDispatch:
    def test_job_runs_and_returns_done_event(self):
        pool = WorkerPool(1)
        pool.start()
        try:
            pool.dispatch(0, queued("one"))
            events = []
            assert wait_for(
                lambda: events.extend(pool.poll(timeout=0.2)) or
                any(e.kind == "done" for e in events)
            )
            done = next(e for e in events if e.kind == "done")
            assert done.result.job_id == "one"
            assert done.result.status == "done"
            assert pool.in_flight() == 0
        finally:
            pool.stop()

    def test_double_dispatch_to_busy_worker_rejected(self):
        pool = WorkerPool(1)
        pool.start()
        try:
            pool.dispatch(0, queued("first"))
            with pytest.raises(ServeError, match="in flight"):
                pool.dispatch(0, queued("second"))
            assert wait_for(
                lambda: any(e.kind == "done"
                            for e in pool.poll(timeout=0.2))
            )
        finally:
            pool.stop()


class TestCrashRecovery:
    def test_crashed_worker_respawns_and_surfaces_lost_job(self):
        pool = WorkerPool(1)
        pool.start()
        try:
            pool.dispatch(0, queued("victim", fault_crash_attempts=1))
            events = []
            assert wait_for(
                lambda: events.extend(pool.poll(timeout=0.2)) or
                any(e.kind == "crash" for e in events)
            )
            crash = next(e for e in events if e.kind == "crash")
            assert crash.job.spec.job_id == "victim"
            assert wait_for(lambda: pool.alive_count() == 1)
            assert pool.health()[0]["incarnation"] == 2
            # The respawned worker serves the rerun normally.
            crash.job.attempt += 1
            pool.dispatch(0, crash.job)
            events.clear()
            assert wait_for(
                lambda: events.extend(pool.poll(timeout=0.2)) or
                any(e.kind == "done" for e in events)
            )
            done = next(e for e in events if e.kind == "done")
            assert done.result.attempts == 2
        finally:
            pool.stop()

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc wchan"
    )
    def test_worker_killed_inside_a_blocked_put_cannot_wedge_the_pool(self):
        # Left unpolled, a fast-heartbeating worker fills its result pipe
        # and blocks inside a put.  Killing it there is the moment a
        # cross-process write lock on the result channel would be orphaned
        # and the respawned worker's first message would hang forever.
        pool = WorkerPool(1, heartbeat_s=1.0e-4)
        pool.start()
        try:
            victim = pool.health()[0]["pid"]
            assert wait_for(lambda: blocked_writing_a_pipe(victim))
            os.kill(victim, signal.SIGKILL)
            events = []
            assert wait_for(
                lambda: events.extend(pool.poll(timeout=0.2)) or
                any(e.kind == "crash" for e in events)
            )
            assert pool.health()[0]["incarnation"] == 2
            pool.dispatch(0, queued("after-kill"))
            assert wait_for(
                lambda: events.extend(pool.poll(timeout=0.2)) or
                any(e.kind == "done" for e in events)
            )
        finally:
            pool.stop()
