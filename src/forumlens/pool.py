"""One ``fork`` pool for seeded jobs that share nothing: Leiden restarts and k-means fits.

Each job carries its own seed, so it gives the same result in any process and
the results come back in job order. The shared input reaches the workers
through ``fork``, never through pickling; only jobs and results are pickled.
Each caller decides from its own measured threshold whether its input is
large enough to pay for the pool's start-up.
"""

from __future__ import annotations

import os
import signal
from typing import Any, Callable, Sequence

_work: tuple[Callable[[Any, Any], Any], Any] | None = None  # a worker's (function, shared input)


def _init(fn: Callable[[Any, Any], Any], shared: Any, parent: int) -> None:
    import ctypes

    global _work
    _work = fn, shared
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    # PR_SET_PDEATHSIG: die with the parent, or a killed run's workers keep its workspace lock
    prctl(1, signal.SIGKILL)
    if os.getppid() != parent:  # it died before prctl took effect
        os._exit(1)


def _call(job: Any) -> Any:
    fn, shared = _work
    return fn(shared, job)


def map_jobs(
    fn: Callable[[Any, Any], Any], shared: Any, jobs: Sequence[Any], pool: bool
) -> tuple[list, int]:
    """``fn(shared, job)`` for every job, in order, and how many processes ran them.

    With ``pool`` set, the jobs are handed out one by one to a pool of one
    process per CPU in ``os.sched_getaffinity``. Only Linux has that call, and
    with it ``fork`` and ``prctl``; elsewhere, on one CPU, and inside a
    daemonic process (which may not start children) they run in-process.
    """
    procs = 1
    if pool and hasattr(os, "sched_getaffinity"):
        import multiprocessing

        if not multiprocessing.current_process().daemon:
            procs = min(len(os.sched_getaffinity(0)), len(jobs))
    if procs < 2:
        return [fn(shared, job) for job in jobs], 1
    with multiprocessing.get_context("fork").Pool(procs, _init, (fn, shared, os.getpid())) as workers:
        return workers.map(_call, jobs, chunksize=1), procs
