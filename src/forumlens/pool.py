"""One ``fork`` pool for seeded jobs that share nothing: Leiden restarts, k-means
fits and the byte ranges of a post file.

Each job carries its own seed or range, so it gives the same result in any
process, and the results come back in job order. The shared input reaches the
workers through ``fork``, never through pickling; only jobs and results are
pickled, over one pipe each way per worker. Each caller decides from its own
measured threshold whether its input is large enough to pay for the pool's
start-up.
"""

from __future__ import annotations

import fcntl
import os
import pickle
import signal
from contextlib import suppress
from typing import Any, BinaryIO, Callable, Iterator, Sequence


def _serve(fn: Callable[[Any, Any], Any], shared: Any, jobs: Sequence[Any], results: int,
           parent: int) -> None:
    """A worker: ``fn(shared, job)`` for each of its jobs, each result sent in turn."""
    import ctypes

    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    # PR_SET_PDEATHSIG: die with the parent, or a killed run's workers keep its workspace lock
    prctl(1, signal.SIGKILL)
    if os.getppid() != parent:  # it died before prctl took effect
        return
    for job in jobs:
        try:
            done = True, fn(shared, job)
        except Exception as exc:  # raised again in the parent
            done = False, exc
        data = memoryview(pickle.dumps(done, pickle.HIGHEST_PROTOCOL))
        while data:  # a write into a pipe may take part of it
            data = data[os.write(results, data):]


def _pooled(fn: Callable[[Any, Any], Any], shared: Any, jobs: Sequence[Any], procs: int
            ) -> Iterator:
    """Job ``i`` runs in forked worker ``i % procs``, which runs its jobs in turn and
    blocks while its pipe is full."""
    workers: list[tuple[int, BinaryIO]] = []  # pid and result pipe
    try:
        for slot in range(procs):
            results_in, results_out = os.pipe()
            # room for a few results, so a worker runs on while the caller joins the last;
            # above /proc/sys/fs/pipe-max-size the default stays
            with suppress(OSError):
                fcntl.fcntl(results_out, fcntl.F_SETPIPE_SZ, 1 << 20)
            parent, pid = os.getpid(), os.fork()
            if pid == 0:
                try:
                    _serve(fn, shared, jobs[slot::procs], results_out, parent)
                finally:
                    os._exit(0)  # the parent's state is the parent's to clean up
            os.close(results_out)
            workers.append((pid, open(results_in, "rb")))
        for i in range(len(jobs)):
            pid, results = workers[i % procs]
            try:
                ok, value = pickle.load(results)
            except EOFError:
                raise RuntimeError(f"pool worker {pid} died") from None
            if not ok:
                raise value
            yield value
    finally:
        for pid, results in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            results.close()


def map_jobs(
    fn: Callable[[Any, Any], Any], shared: Any, jobs: Sequence[Any], pool: bool
) -> tuple[Iterator, int]:
    """``fn(shared, job)`` for every job, in order as they are taken, and how many
    processes run them.

    With ``pool`` set, the jobs are dealt in turn to one forked process per CPU
    in ``os.sched_getaffinity``, which inherits its share and sends each
    result through a pipe of 1 MiB; a worker blocks while its pipe is full, so
    a result not yet taken waits in its worker or its pipe, and the caller
    holds one at a time. The workers start at the first result taken and are killed
    after the last, or when the iterator is closed. Only Linux has that call,
    and with it ``fork`` and ``prctl``; elsewhere, and on one CPU, the caller
    runs each job as its result is taken.
    """
    procs = 1
    if pool and hasattr(os, "sched_getaffinity"):
        procs = min(len(os.sched_getaffinity(0)), len(jobs))
    if procs < 2:
        return (fn(shared, job) for job in jobs), 1
    return _pooled(fn, shared, jobs, procs), procs
