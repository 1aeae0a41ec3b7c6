"""A run killed in the middle of a stage leaves a workspace the next run recovers.

For each stage from ``graph`` to ``report`` a child process runs the stage
and dies through ``os._exit`` (no cleanup, like a kill) at one of two points:
between the temp write and the rename of the stage's last artifact, or after
all its writes but before ``record_stage``. Afterwards no artifact name may
hold a partial file, no lock may block, the next plain run must either run or
name the stage to re-run, and re-running that stage must give the bytes of an
uninterrupted run. A ``communities`` or ``cluster`` run SIGKILLed while its
job pool (Leiden restarts, k-means fits) is up must free the lock within
seconds and leave no worker behind, and so must an ``ingest`` run SIGKILLed
while its post-file ranges are on the pool.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import forumlens
from forumlens import ingest
from forumlens.cli import PIPELINE, main
from forumlens.community import POOL_MIN_NODES
from forumlens.workspace import STAGE_ARTIFACTS, Workspace, WorkspaceLockedError, read_json

KILLED = 70

# Runs that write bytes other than the base workspace holds, so that a
# partial or mixed state would show. ``report`` takes no flags: a re-run
# ``cluster`` makes its output change. All but the last run go uninterrupted.
RUNS = {
    "graph": [["graph", "--capec-threshold", "5"]],
    "communities": [["communities", "--seed", "1"]],
    "expertise": [["expertise", "--min-posts", "8"]],
    "cluster": [["cluster", "--seed", "1"]],
    "report": [["cluster", "--seed", "1"], ["report"]],
}

_CHILD = f"""
import os, sys
from forumlens import cli, workspace

point, argv = sys.argv[1], sys.argv[2:]
if point == "rename":
    real, left = os.replace, len(workspace.STAGE_ARTIFACTS[argv[0]])

    def replace(src, dst):
        global left
        left -= 1
        if left == 0:  # the stage's last artifact
            os._exit({KILLED})
        real(src, dst)

    os.replace = replace
else:
    workspace.Workspace.record_stage = lambda *args: os._exit({KILLED})
sys.exit(cli.main(argv))
"""


def _artifacts(ws: Path) -> dict[str, bytes | None]:
    names = [name for stage in PIPELINE for name in STAGE_ARTIFACTS[stage]]
    return {name: (ws / name).read_bytes() if (ws / name).exists() else None for name in names}


def _run(ws: Path, argv: list[str]) -> int:
    return main([*argv, "--workspace", str(ws)])


def _downstream(stage: str) -> list[list[str]]:
    return [[s] for s in PIPELINE[PIPELINE.index(stage) + 1 :]]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("recovery")
    inputs = root / "inputs"
    synth = ["synth", "--workspace", str(root / "scratch"), "--out", str(inputs), "--seed", "3"]
    assert main(synth + ["--communities", "3", "--actors", "8", "--capecs", "6"]) == 0
    ws = root / "base"
    run_all = ["run-all", "--posts", str(inputs / "posts.jsonl")]
    catalog = ["--cve-cwe", str(inputs / "cve_cwe.csv"), "--capec-json", str(inputs / "capec.json")]
    assert _run(ws, run_all + catalog) == 0
    return ws


@pytest.mark.parametrize("point", ["rename", "record"])
@pytest.mark.parametrize("stage", list(RUNS))
def test_killed_stage_recovers_by_rerunning_it(base, tmp_path, caplog, stage, point):
    *prep, killed = RUNS[stage]

    # the uninterrupted run: the stage alone, then the stage and all after it
    reference = tmp_path / "reference"
    shutil.copytree(base, reference)
    for argv in prep:
        assert _run(reference, argv) == 0
    before = _artifacts(reference)
    assert _run(reference, killed) == 0
    written = _artifacts(reference)
    assert any(before[n] != written[n] for n in STAGE_ARTIFACTS[stage])
    for argv in _downstream(stage):
        assert _run(reference, argv) == 0
    expected = _artifacts(reference)

    ws = tmp_path / "ws"
    shutil.copytree(base, ws)
    for argv in prep:
        assert _run(ws, argv) == 0
    src = str(Path(forumlens.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, point, *killed, "--workspace", str(ws)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == KILLED, child.stderr

    # every artifact name holds a whole file: the one before or the one written
    for name, data in _artifacts(ws).items():
        assert data in (before[name], written[name]), name
    with Workspace(ws).lock():
        pass

    # the next plain run runs, or refuses and names the stage to re-run
    caplog.clear()
    code = _run(ws, (_downstream(stage) or [[stage]])[0])
    assert code == 0 or f"re-run {stage!r}" in caplog.text, caplog.text
    if point == "record" and _downstream(stage):
        assert code != 0  # written but unrecorded artifacts read as stale

    for argv in [killed, *_downstream(stage)]:
        assert _run(ws, argv) == 0
    assert _artifacts(ws) == expected
    assert sorted(ws.rglob("*.tmp")) == []


def _stat(pid: int) -> list[str] | None:
    """The fields after the command name in /proc/<pid>/stat (state, ppid, ...)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def _children(pid: int) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _stat(int(entry.name))
            if fields is not None and int(fields[1]) == pid:
                found.append(int(entry.name))
    return found


# A ``communities`` run whose restarts each sleep first: the kill then lands
# while every pool worker is inside a restart, however fast the machine.
_SLOW_RESTARTS = """
import sys, time
from forumlens import cli, community

real = community._restart

def slow(g, job):
    time.sleep(60)
    return real(g, job)

community._restart = slow
sys.exit(cli.main(sys.argv[1:]))
"""

# The same for a ``cluster`` run's k-means fits, with the pool taken at any
# sample size, since this workspace's sample is smaller than ``POOL_MIN_ROWS``.
_SLOW_FITS = """
import sys, time
from forumlens import cli, cluster

real = cluster._fit

def slow(rows, job):
    time.sleep(60)
    return real(rows, job)

cluster._fit, cluster.POOL_MIN_ROWS = slow, 0
sys.exit(cli.main(sys.argv[1:]))
"""

# The same for an ``ingest`` run's post-file ranges, with the pool taken at any file
# size.
_SLOW_RANGES = """
import sys, time
from forumlens import cli, ingest

real = ingest._read_range

def slow(reader, span):
    time.sleep(60)
    return real(reader, span)

ingest._read_range, ingest.POOL_MIN_BYTES = slow, 0
sys.exit(cli.main(sys.argv[1:]))
"""

_needs_pool = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the job pool runs only on Linux with two or more CPUs",
)


@pytest.fixture(scope="module")
def pool_graph(tmp_path_factory):
    """A workspace through ``graph`` whose graph reaches ``POOL_MIN_NODES``."""
    root = tmp_path_factory.mktemp("pool")
    inputs, ws = root / "inputs", root / "ws"
    synth = ["synth", "--workspace", str(root / "scratch"), "--out", str(inputs), "--seed", "5"]
    assert main(synth + ["--communities", "4", "--actors", "250"]) == 0
    assert _run(ws, ["ingest", "--posts", str(inputs / "posts.jsonl")]) == 0
    catalog = ["--cve-cwe", str(inputs / "cve_cwe.csv"), "--capec-json", str(inputs / "capec.json")]
    assert _run(ws, ["convert-catalog", *catalog]) == 0
    assert _run(ws, ["graph"]) == 0
    assert len(Workspace(ws).load("graph.json", read_json)["actors"]) >= POOL_MIN_NODES
    return ws


def _kill_with_pool_up(ws: Path, script: str, argv: list[str]) -> None:
    """SIGKILL the stage run ``argv`` through ``script`` once its pool is up; then the
    lock must free within 5 s, no worker may be left, and a re-run must write the
    bytes of an uninterrupted run and leave no temp file."""
    stage = argv[0]
    reference = ws.parent / "reference"
    shutil.copytree(ws, reference)
    assert _run(reference, argv) == 0
    expected = _artifacts(reference)

    src = str(Path(forumlens.__file__).resolve().parents[1])
    child = subprocess.Popen(
        [sys.executable, "-c", script, *argv, "--workspace", str(ws)],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        workers: list[int] = []
        while not workers and child.poll() is None and time.monotonic() < deadline:
            workers = _children(child.pid)
            time.sleep(0.005)
        assert workers, f"the {stage} run never started its pool"
        time.sleep(0.2)  # each worker takes a job
        os.kill(child.pid, signal.SIGKILL)
    finally:
        child.kill()
        child.wait(timeout=60)

    # the workers inherited the flocked descriptor; they must die with their parent
    deadline = time.monotonic() + 5
    while True:
        try:
            with Workspace(ws).lock():
                break
        except WorkspaceLockedError:
            assert time.monotonic() < deadline, "the lock was still held 5 s after the kill"
            time.sleep(0.01)
    # an exiting worker closes its files, and so frees the lock, a moment before
    # it reads as a zombie (Z or X) or is reaped, so each gets the same deadline
    for pid in workers:
        while (fields := _stat(pid)) is not None and fields[0] not in "ZX":
            assert time.monotonic() < deadline, f"worker {pid} still {fields[0]} 5 s after the kill"
            time.sleep(0.01)

    assert _run(ws, argv) == 0
    assert _artifacts(ws) == expected
    assert sorted(ws.rglob("*.tmp")) == []


@_needs_pool
def test_killed_leiden_pool_frees_the_lock_and_leaves_no_worker(pool_graph, tmp_path):
    ws = tmp_path / "ws"
    shutil.copytree(pool_graph, ws)
    _kill_with_pool_up(ws, _SLOW_RESTARTS, ["communities"])


@_needs_pool
def test_killed_cluster_pool_frees_the_lock_and_leaves_no_worker(pool_graph, tmp_path):
    ws = tmp_path / "ws"
    shutil.copytree(pool_graph, ws)
    assert _run(ws, ["communities"]) == 0
    assert _run(ws, ["expertise"]) == 0
    _kill_with_pool_up(ws, _SLOW_FITS, ["cluster"])


@_needs_pool
def test_killed_ingest_pool_frees_the_lock_and_leaves_no_worker(pool_graph, tmp_path):
    ws = tmp_path / "ws"
    shutil.copytree(pool_graph, ws)
    posts = pool_graph.parent / "inputs" / "posts.jsonl"
    assert posts.stat().st_size > 2 * ingest._RANGE_BYTES  # so the pool has ranges to deal
    _kill_with_pool_up(ws, _SLOW_RANGES, ["ingest", "--posts", str(posts)])
