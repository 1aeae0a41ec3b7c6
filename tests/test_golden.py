"""Golden digests: the artifact bytes of a fixed synthetic run are pinned.

``synth`` and ``run-all`` at seed 41 on S (4x25) and on M (8x250), then
``export-graph`` in every format; the SHA-256 of each of the 15 pipeline
artifacts, the 4 ``synth/`` files and the 3 export files must equal
``golden_digests.json``. M runs twice: once as the CLI runs it, where its
graph (about 2,080 nodes) and sample (2,000 rows) reach the Leiden and k-sweep
pools, and once with both pools off.

A change that means to alter an artifact regenerates the table with
``PYTHONPATH=src python tests/test_golden.py`` and says which files changed
and why; the script prints one ``scale name: old → new`` line (12-hex-digit
prefixes) per digest it changes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from forumlens import cluster, community, graph
from forumlens.cli import PIPELINE, main
from forumlens.workspace import STAGE_ARTIFACTS, sha256_file

TABLE = Path(__file__).with_name("golden_digests.json")
SEED = "41"
SCALES = {"S": ("4", "25"), "M": ("8", "250")}
EXPORTS = tuple(f"graph.{fmt}" for fmt in graph.EXPORT_FORMATS)


def _digests(ws: Path, scale: str) -> dict[str, str]:
    """Run the pinned commands in ``ws`` and hash every file they write."""
    communities, actors = SCALES[scale]
    steps = [
        ["synth", "--seed", SEED, "--communities", communities, "--actors", actors],
        [
            "run-all",
            "--posts", str(ws / "synth" / "posts.jsonl"),
            "--cve-cwe", str(ws / "synth" / "cve_cwe.csv"),
            "--capec-json", str(ws / "synth" / "capec.json"),
            "--seed", SEED, "--cluster-seed", SEED,
        ],
        *(["export-graph", "--format", fmt] for fmt in graph.EXPORT_FORMATS),
    ]
    for argv in steps:
        assert main([argv[0], "--workspace", str(ws), *argv[1:]]) == 0, argv
    stages = ("synth", *PIPELINE)
    names = [*(name for stage in stages for name in STAGE_ARTIFACTS[stage]), *EXPORTS]
    return {name: sha256_file(ws / name) for name in names}


@pytest.mark.parametrize(
    "scale, pooled", [("S", True), ("M", True), ("M", False)], ids=["S", "M-pooled", "M-in-process"]
)
def test_artifacts_match_the_golden_digests(scale, pooled, tmp_path, monkeypatch):
    if not pooled:
        monkeypatch.setattr(community, "POOL_MIN_NODES", 10**9)
        monkeypatch.setattr(cluster, "POOL_MIN_ROWS", 10**9)
    expected = json.loads(TABLE.read_text(encoding="utf-8"))[scale]
    found = _digests(tmp_path / "ws", scale)
    changed = sorted(name for name in expected if found[name] != expected[name])
    assert found.keys() == expected.keys()
    assert not changed, (
        f"{scale}: {TABLE.name} has other digests for {', '.join(changed)} "
        f"(numpy {np.__version__})"
    )


if __name__ == "__main__":
    import contextlib
    import tempfile

    old = json.loads(TABLE.read_text(encoding="utf-8"))
    # the runs' own lines go to stderr, so stdout lists only the changed digests
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        table = {scale: _digests(Path(tmp) / scale, scale) for scale in SCALES}
    for scale, digests in table.items():
        before = old.get(scale, {})
        for name in sorted(digests.keys() | before.keys()):
            was, now = before.get(name, "none"), digests.get(name, "none")
            if was != now:
                print(f"{scale} {name}: {was[:12]} → {now[:12]}")
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {TABLE}", file=sys.stderr)
