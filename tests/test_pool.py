"""Tests for the fork pool's clean-up."""

from __future__ import annotations

import os

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
