"""A run killed in the middle of a stage leaves a workspace the next run recovers.

For each stage from ``graph`` to ``report`` a child process runs the stage
and dies through ``os._exit`` (no cleanup, like a kill) at one of two points:
between the temp write and the rename of the stage's last artifact, or after
all its writes but before ``record_stage``. Afterwards no artifact name may
hold a partial file, no lock may block, the next plain run must either run or
name the stage to re-run, and re-running that stage must give the bytes of an
uninterrupted run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import forumlens
from forumlens.cli import main
from forumlens.workspace import STAGE_ARTIFACTS, Workspace

PIPELINE = ("ingest", "convert-catalog", "graph", "communities", "expertise", "cluster", "report")
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
