"""Tests for the staged workspace: manifest hashes, gating, and locking."""

from __future__ import annotations

import hashlib
import json

import pytest

from forumlens.errors import MissingUpstreamError, StaleArtifactError
from forumlens.workspace import (
    STAGE_ARTIFACTS,
    STAGE_UPSTREAM,
    Workspace,
    WorkspaceLockedError,
    default_root,
    sha256_file,
)


def _ws_with_stage(tmp_path, stage="ingest", names=("corpus.jsonl",)):
    ws = Workspace(tmp_path)
    ws.root.mkdir(exist_ok=True)
    for name in names:
        ws.path(name).write_text(f"content of {name}\n")
    ws.record_stage(stage, {"flag": 1}, names)
    return ws


def test_sha256_file(tmp_path):
    target = tmp_path / "blob"
    target.write_bytes(b"hello workspace")
    assert sha256_file(target) == hashlib.sha256(b"hello workspace").hexdigest()


def test_record_stage_writes_manifest(tmp_path):
    ws = _ws_with_stage(tmp_path)
    manifest = json.loads(ws.manifest_path.read_text())
    assert manifest["version"] == 1
    entry = manifest["stages"]["ingest"]
    assert entry["config"] == {"flag": 1}
    assert entry["artifacts"]["corpus.jsonl"] == sha256_file(ws.path("corpus.jsonl"))
    assert ws.stage_entry("ingest") == entry
    assert ws.stage_entry("graph") is None


def test_interrupted_manifest_write_keeps_previous_manifest(tmp_path, monkeypatch):
    ws = _ws_with_stage(tmp_path, "ingest", ("corpus.jsonl",))
    _ws_with_stage(tmp_path, "convert-catalog", ("cve_cwe.csv", "capec.json"))
    previous = ws.manifest_path.read_bytes()

    def dump_part_then_fail(obj, handle, **kwargs):
        handle.write('{"stages": {"ingest"')
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dump", dump_part_then_fail)
    ws.path("graph.json").write_text("{}\n")
    with pytest.raises(OSError):
        ws.record_stage("graph", {}, ("graph.json",))
    monkeypatch.undo()

    assert ws.manifest_path.read_bytes() == previous
    assert set(ws.load_manifest()["stages"]) == {"ingest", "convert-catalog"}
    assert sorted(p.name for p in tmp_path.iterdir() if "manifest" in p.name) == ["manifest.json"]


def test_require_missing_stage(tmp_path):
    ws = Workspace(tmp_path)
    with pytest.raises(MissingUpstreamError) as exc:
        ws.require("ingest", needed_by="graph")
    assert exc.value.stage == "ingest"


def test_require_missing_artifact_file(tmp_path):
    ws = _ws_with_stage(tmp_path)
    ws.path("corpus.jsonl").unlink()
    with pytest.raises(MissingUpstreamError):
        ws.require("ingest", needed_by="graph")


def test_require_stale_artifact(tmp_path):
    ws = _ws_with_stage(tmp_path)
    ws.path("corpus.jsonl").write_text("tampered\n")
    with pytest.raises(StaleArtifactError):
        ws.require("ingest", needed_by="graph")


def test_require_force_rebaselines(tmp_path):
    ws = _ws_with_stage(tmp_path)
    ws.path("corpus.jsonl").write_text("tampered\n")
    ws.require("ingest", needed_by="graph", force=True)
    # The manifest now matches the file on disk; a plain require passes.
    ws.require("ingest", needed_by="graph")
    entry = ws.stage_entry("ingest")
    assert entry["artifacts"]["corpus.jsonl"] == sha256_file(ws.path("corpus.jsonl"))


def test_require_upstream_walks_dependencies(tmp_path):
    ws = Workspace(tmp_path)
    with pytest.raises(MissingUpstreamError):
        ws.require_upstream("graph")
    _ws_with_stage(tmp_path, "ingest", ("corpus.jsonl",))
    _ws_with_stage(tmp_path, "convert-catalog", ("cve_cwe.csv", "capec.json"))
    ws.require_upstream("graph")


def test_stage_tables_consistent():
    # Every stage with upstreams must itself have declared artifacts, except
    # the export, which writes a caller-chosen file.
    for stage in STAGE_UPSTREAM:
        if stage == "export-graph":
            continue
        assert stage in STAGE_ARTIFACTS
    for stage, ups in STAGE_UPSTREAM.items():
        for upstream in ups:
            assert upstream in STAGE_ARTIFACTS


def test_lock_lifecycle(tmp_path):
    ws = Workspace(tmp_path)
    with ws.lock():
        assert (tmp_path / ".lock").exists()
        with pytest.raises(WorkspaceLockedError):
            with ws.lock():
                pass
    assert not (tmp_path / ".lock").exists()


def test_lock_released_on_error(tmp_path):
    ws = Workspace(tmp_path)
    with pytest.raises(RuntimeError):
        with ws.lock():
            raise RuntimeError("boom")
    assert not (tmp_path / ".lock").exists()
    with ws.lock():
        pass


def test_json_round_trip(tmp_path):
    ws = Workspace(tmp_path)
    payload = {"alpha": 1, "nested": {"b": [1, 2, 3]}}
    path = ws.write_json("sub/dir/data.json", payload)
    assert path.is_file()
    assert ws.read_json("sub/dir/data.json") == payload


def test_default_root_env_var(monkeypatch, tmp_path):
    monkeypatch.delenv("FORUMLENS_WORKSPACE", raising=False)
    assert str(default_root()) == "workspace"
    monkeypatch.setenv("FORUMLENS_WORKSPACE", str(tmp_path / "elsewhere"))
    assert default_root() == tmp_path / "elsewhere"
