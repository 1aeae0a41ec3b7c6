"""Tests for the staged workspace: manifest hashes, gating, and locking."""

from __future__ import annotations

import hashlib
import json

import pytest

from forumlens.errors import MissingUpstreamError, StaleArtifactError
from forumlens.workspace import (
    STAGE_ARTIFACTS,
    Workspace,
    WorkspaceLockedError,
    default_root,
    sha256_file,
)


def _ws_with_stage(tmp_path, stage="ingest"):
    ws = Workspace(tmp_path)
    ws.root.mkdir(exist_ok=True)
    for name in STAGE_ARTIFACTS[stage]:
        ws.path(name).write_text(f"content of {name}\n")
    ws.record_stage(stage, {"flag": 1})
    return ws


def _graph_built_from_ingest(tmp_path):
    """A workspace whose graph stage opened corpus.jsonl and capec.json."""
    _ws_with_stage(tmp_path, "ingest")
    _ws_with_stage(tmp_path, "convert-catalog")
    ws = Workspace(tmp_path)
    ws.require("corpus.jsonl")
    ws.require("capec.json")
    for name in STAGE_ARTIFACTS["graph"]:
        ws.path(name).write_text(f"content of {name}\n")
    ws.record_stage("graph", {})
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
    assert entry["artifacts"] == {
        name: sha256_file(ws.path(name)) for name in STAGE_ARTIFACTS["ingest"]
    }
    assert entry["inputs"] == {}
    assert ws.load_manifest()["stages"] == {"ingest": entry}


def test_record_stage_stores_the_digests_require_checked(tmp_path):
    ws = _graph_built_from_ingest(tmp_path)
    assert ws.load_manifest()["stages"]["graph"]["inputs"] == {
        "corpus.jsonl": sha256_file(ws.path("corpus.jsonl")),
        "capec.json": sha256_file(ws.path("capec.json")),
    }
    # the reads are consumed: the next stage starts from none
    assert ws.record_stage("graph", {})["inputs"] == {}


def test_interrupted_manifest_write_keeps_previous_manifest(tmp_path, monkeypatch):
    ws = _ws_with_stage(tmp_path, "ingest")
    _ws_with_stage(tmp_path, "convert-catalog")
    previous = ws.manifest_path.read_bytes()

    def dump_part_then_fail(obj, handle, **kwargs):
        handle.write('{"stages": {"ingest"')
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dump", dump_part_then_fail)
    for name in STAGE_ARTIFACTS["graph"]:
        ws.path(name).write_text("{}\n")
    with pytest.raises(OSError):
        ws.record_stage("graph", {})
    monkeypatch.undo()

    assert ws.manifest_path.read_bytes() == previous
    assert set(ws.load_manifest()["stages"]) == {"ingest", "convert-catalog"}
    assert sorted(p.name for p in tmp_path.iterdir() if "manifest" in p.name) == ["manifest.json"]


def test_require_missing_stage(tmp_path):
    ws = Workspace(tmp_path)
    with pytest.raises(MissingUpstreamError) as exc:
        ws.require("corpus.jsonl")
    assert exc.value.stage == "ingest"


def test_require_missing_artifact_file(tmp_path):
    ws = _ws_with_stage(tmp_path)
    ws.path("corpus.jsonl").unlink()
    with pytest.raises(MissingUpstreamError) as exc:
        ws.require("corpus.jsonl")
    assert exc.value.stage == "ingest"


def test_require_stale_artifact(tmp_path):
    ws = _ws_with_stage(tmp_path)
    ws.path("corpus.jsonl").write_text("tampered\n")
    with pytest.raises(StaleArtifactError):
        ws.require("corpus.jsonl")


def test_require_checks_only_the_artifact_it_opens(tmp_path):
    ws = _ws_with_stage(tmp_path)
    ws.path("corpus_stats.json").write_text("tampered\n")
    assert ws.require("corpus.jsonl") == ws.path("corpus.jsonl")
    with pytest.raises(StaleArtifactError):
        ws.require("corpus_stats.json")


def test_require_force_rebaselines(tmp_path):
    ws = _ws_with_stage(tmp_path)
    ws.path("corpus.jsonl").write_text("tampered\n")
    Workspace(tmp_path, force=True).require("corpus.jsonl")
    # The manifest now matches the file on disk; a plain require passes.
    ws.require("corpus.jsonl")
    entry = ws.load_manifest()["stages"]["ingest"]
    assert entry["artifacts"]["corpus.jsonl"] == sha256_file(ws.path("corpus.jsonl"))


def test_require_refuses_a_stage_built_from_changed_inputs(tmp_path, caplog):
    ws = _graph_built_from_ingest(tmp_path)
    ws.path("corpus.jsonl").write_text("re-ingested\n")
    ws.record_stage("ingest", {})
    with pytest.raises(StaleArtifactError, match="stage 'graph' was built from artifacts of 'ingest'"):
        ws.require("graph.json")

    Workspace(tmp_path, force=True).require("graph.json")
    assert "force: accepting stage graph built from since-changed ingest" in caplog.text
    inputs = ws.load_manifest()["stages"]["graph"]["inputs"]
    assert inputs["corpus.jsonl"] == sha256_file(ws.path("corpus.jsonl"))
    ws.require("graph.json")


def test_require_refuses_inputs_keyed_by_stage(tmp_path):
    # the earlier manifest layout kept inputs per upstream stage; its keys
    # name no artifact, so they read as changed
    ws = _graph_built_from_ingest(tmp_path)
    manifest = ws.load_manifest()
    stages = manifest["stages"]
    stages["graph"]["inputs"] = {s: stages[s]["artifacts"] for s in ("ingest", "convert-catalog")}
    ws.save_manifest(manifest)
    with pytest.raises(StaleArtifactError, match="re-run 'graph'"):
        ws.require("graph.json")
    Workspace(tmp_path, force=True).require("graph.json")
    ws.require("graph.json")


def test_every_artifact_has_one_writing_stage(tmp_path):
    names = [name for artifacts in STAGE_ARTIFACTS.values() for name in artifacts]
    assert len(names) == len(set(names))
    ws = Workspace(tmp_path)
    for stage, artifacts in STAGE_ARTIFACTS.items():
        for name in artifacts:
            with pytest.raises(MissingUpstreamError) as exc:
                ws.require(name)
            assert exc.value.stage == stage


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
    assert json.loads(path.read_text()) == payload
    ws.write_json("communities.json", payload)
    # reads are gated: an artifact no stage recorded is refused
    with pytest.raises(MissingUpstreamError):
        ws.read_json("communities.json")
    ws.record_stage("communities", {})
    assert ws.read_json("communities.json") == payload


def test_default_root_env_var(monkeypatch, tmp_path):
    monkeypatch.delenv("FORUMLENS_WORKSPACE", raising=False)
    assert str(default_root()) == "workspace"
    monkeypatch.setenv("FORUMLENS_WORKSPACE", str(tmp_path / "elsewhere"))
    assert default_root() == tmp_path / "elsewhere"
