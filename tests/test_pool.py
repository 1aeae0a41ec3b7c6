"""Tests for the fork pool's contract: job order, errors, dead workers and clean-up."""

from __future__ import annotations

import os
import signal
import time

import pytest

from forumlens import pool

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or not os.path.isdir("/proc/self/fd"),
    reason="the pool is Linux-only",
)


def _scaled(shared: int, job: int) -> int:
    return shared * job


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _where(shared: int, job: int) -> tuple[int, int]:
    """The job and the pid of the process that ran it; job ``shared`` kills that process."""
    if job == shared:
        os.kill(os.getpid(), signal.SIGKILL)
    if job % 3 == 0:
        time.sleep(0.02)  # some jobs finish after later ones
    return job, os.getpid()


def _fails(shared: int, job: int) -> int:
    if job == shared:
        raise ValueError(f"job {job} is bad")
    return job


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def forked(monkeypatch):
    """The pids ``os.fork`` gives the pool, in order."""
    real_fork, pids = os.fork, []

    def fork() -> int:
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_results_come_back_in_job_order_across_two_workers(two_cpus, forked):
    before = _open_fds()
    results, procs = pool.map_jobs(_where, -1, list(range(9)), True)
    got = list(results)
    assert procs == 2
    assert [job for job, _ in got] == list(range(9))
    # job i ran in worker i % 2, never in the caller
    assert [pid for _, pid in got] == [forked[i % 2] for i in range(9)]
    assert all(map(_reaped, forked)) and _open_fds() == before


def test_a_jobs_exception_reaches_the_caller_with_its_type_and_message(two_cpus, forked):
    before = _open_fds()
    results, _ = pool.map_jobs(_fails, 3, list(range(6)), True)
    assert [next(results) for _ in range(3)] == [0, 1, 2]
    with pytest.raises(ValueError, match=r"^job 3 is bad$"):
        next(results)
    assert all(map(_reaped, forked)) and _open_fds() == before


def test_a_worker_killed_mid_run_raises_that_it_died(two_cpus, forked):
    before = _open_fds()
    # job 2 is the second job of worker 0, which dies in it
    results, _ = pool.map_jobs(_where, 2, list(range(6)), True)
    assert [job for job, _ in (next(results), next(results))] == [0, 1]
    with pytest.raises(RuntimeError) as exc:
        next(results)
    assert str(exc.value) == f"pool worker {forked[0]} died"
    assert all(map(_reaped, forked)) and _open_fds() == before


def test_a_worker_killed_mid_write_raises_that_it_died(two_cpus, forked, monkeypatch):
    parent, real_write = os.getpid(), os.write

    def write(fd: int, data) -> int:
        if os.getpid() != parent:  # a worker: half of its first result, then death
            real_write(fd, bytes(data[:len(data) // 2]))
            os.kill(os.getpid(), signal.SIGKILL)
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", write)
    before = _open_fds()
    results, _ = pool.map_jobs(_scaled, 3, [1, 2, 3, 4], True)
    # a truncated pickle, not only an empty pipe, is a dead worker's
    with pytest.raises(RuntimeError) as exc:
        next(results)
    assert str(exc.value) == f"pool worker {forked[0]} died"
    assert all(map(_reaped, forked)) and _open_fds() == before


def test_closing_after_the_first_result_reaps_every_worker(two_cpus, forked):
    before = _open_fds()
    results, procs = pool.map_jobs(_where, -1, list(range(8)), True)
    assert next(results) == (0, forked[0])
    results.close()
    assert procs == len(forked) == 2
    assert all(map(_reaped, forked)) and _open_fds() == before


def test_without_the_pool_every_job_runs_in_the_caller(two_cpus, forked):
    results, procs = pool.map_jobs(_where, -1, list(range(5)), False)
    assert procs == 1
    assert list(results) == [(job, os.getpid()) for job in range(5)]
    assert forked == []


def test_a_failed_fork_closes_its_pipe_and_reaps_the_workers_started(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    real_fork, forked = os.fork, []

    def fork() -> int:
        if forked:  # the second slot
            raise OSError(11, "Resource temporarily unavailable")
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    before = _open_fds()
    results, procs = pool.map_jobs(_scaled, 3, [1, 2, 3, 4], True)
    assert procs == 2
    with pytest.raises(OSError, match="Resource temporarily unavailable"):
        next(results)
    assert len(forked) == 1
    with pytest.raises(ChildProcessError):  # already reaped
        os.waitpid(forked[0], os.WNOHANG)
    assert _open_fds() == before
