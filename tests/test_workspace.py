"""Tests for the staged workspace: manifest hashes, gating, locking, writes."""

from __future__ import annotations

import ast
import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import pytest

import forumlens
from forumlens.errors import MissingUpstreamError, StaleArtifactError
from forumlens.expertise import ActorProfile, save_profiles
from forumlens.ingest import PostRecord, build_corpus, save_corpus
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
    # released: the next holder gets it, through the same file
    with Workspace(tmp_path).lock():
        assert (tmp_path / ".lock").exists()


def test_lock_released_on_error(tmp_path):
    ws = Workspace(tmp_path)
    with pytest.raises(RuntimeError):
        with ws.lock():
            raise RuntimeError("boom")
    with Workspace(tmp_path).lock():
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


class _Fails:
    """A record whose every field raises, like a serializer failing midway."""

    def __getattr__(self, name):
        raise OSError("no space left on device")


def _post(post_id: str) -> PostRecord:
    when = datetime(2021, 1, 1, tzinfo=timezone.utc)
    return PostRecord(post_id, "alice", "f1", when, f"{post_id} on CVE-2021-1111")


def _profile(actor_id: str) -> ActorProfile:
    return ActorProfile(actor_id, 0, (2,), 2.0, 5, 4, 80.0, None, None, 10, 0.5)


def _write_communities(ws: Workspace, payload) -> None:
    ws.write_json("communities.json", payload)


def _write_corpus(ws: Workspace, posts) -> None:
    save_corpus(SimpleNamespace(posts=posts), ws.path("corpus.jsonl"))


def _write_profiles(ws: Workspace, profiles) -> None:
    save_profiles(profiles, ws.path("profiles.csv"))


@pytest.mark.parametrize(
    "name, write, complete, failing",
    [
        ("communities.json", _write_communities, {"modularity": 0.5}, {"modularity": _Fails()}),
        (
            "corpus.jsonl",
            _write_corpus,
            build_corpus([_post("p1")]).posts,
            [*build_corpus([_post("p1"), _post("p2")]).posts, _Fails()],
        ),
        ("profiles.csv", _write_profiles, [_profile("a")], [_profile("a"), _profile("b"), _Fails()]),
    ],
    ids=["write_json", "save_corpus", "save_profiles"],
)
def test_interrupted_artifact_write_keeps_previous_bytes(tmp_path, name, write, complete, failing):
    ws = Workspace(tmp_path)
    write(ws, complete)
    previous = ws.path(name).read_bytes()
    # a value json cannot encode raises TypeError; a record's field, OSError
    with pytest.raises((OSError, TypeError)):
        write(ws, failing)
    assert ws.path(name).read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


# --- one writer ---------------------------------------------------------------

_PACKAGE = Path(forumlens.__file__).parent


def _write_calls(source: str) -> list[str]:
    """Calls in ``source`` that write a file, rename one, or may open one for writing."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        owner = getattr(func.value, "id", None) if isinstance(func, ast.Attribute) else None
        if name in ("write_text", "write_bytes") or (
            owner == "os" and name in ("replace", "rename", "open")
        ):
            found.append(f"line {node.lineno}: {owner + '.' if owner else ''}{name}")
        elif name == "open":
            # builtin open(path, mode) or Path.open(mode)
            pos = 1 if isinstance(func, ast.Name) else 0
            mode = next((k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is None and len(node.args) > pos:
                mode = node.args[pos]
            read_only = mode is None or (
                isinstance(mode, ast.Constant) and not set("wax+") & set(mode.value)
            )
            if not read_only:
                found.append(f"line {node.lineno}: open for writing")
    return found


@pytest.mark.parametrize(
    "snippet",
    [
        "p.write_text(s)",
        "Path(p).write_bytes(b)",
        "os.replace(a, b)",
        "os.open(p, flags)",
        "open(p, 'w')",
        "open(p, mode='ab')",
        "p.open('r+')",
        "p.open(mode)",
    ],
)
def test_write_scan_flags_each_way_to_write(snippet):
    assert _write_calls(snippet)


def test_write_scan_passes_reads():
    assert _write_calls("open(p)\nopen(p, 'rb')\np.open('r', encoding='utf-8')\ns.replace('a', 'b')") == []


def test_only_workspace_module_writes_files():
    sources = sorted(_PACKAGE.glob("*.py"))
    assert _PACKAGE / "workspace.py" in sources
    offenders = {
        path.name: calls
        for path in sources
        if path.name != "workspace.py" and (calls := _write_calls(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}, "write files through forumlens.workspace.replacing"
