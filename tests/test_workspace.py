"""Tests for the staged workspace: manifest hashes, gating, locking, writes."""

from __future__ import annotations

import ast
import hashlib
import json
import tempfile
import weakref
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

import forumlens
from forumlens.cli import PIPELINE
from forumlens.errors import (
    ForumlensError, MissingUpstreamError, StaleArtifactError, ValidationError,
)
from forumlens.expertise import ActorProfile, save_profiles
from forumlens.ingest import PostRecord, build_corpus, save_corpus
from forumlens.workspace import (
    STAGE_ARTIFACTS,
    STAGE_INPUTS,
    Workspace,
    WorkspaceLockedError,
    default_root,
    read_json,
    read_json_items,
    read_json_object,
    sha256_file,
    write_json,
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


class _Held:
    """A handed-off object a weak reference can watch."""


def _handed_off(tmp_path, held, stage="ingest", name="corpus.jsonl"):
    """A workspace whose ``stage`` offered ``held`` for ``name`` and recorded, with
    the stages after it in run-all to come."""
    ws = Workspace(tmp_path)
    ws.root.mkdir(exist_ok=True)
    for artifact in STAGE_ARTIFACTS[stage]:
        ws.path(artifact).write_text(f"content of {artifact}\n")
    ws.to_come = PIPELINE[PIPELINE.index(stage) + 1:]
    ws.hand_off(name, held)
    ws.record_stage(stage, {})
    return ws


def _read_text(path):
    return Path(path).read_text()


def test_load_hands_the_object_to_each_reader_to_come_and_releases_it_at_the_last(tmp_path):
    held = _Held()
    ref = weakref.ref(held)
    ws = _handed_off(tmp_path, held, "graph", "capec_posts.json")
    del held
    ws.to_come = ("expertise", "cluster", "report")  # communities runs; expertise reads later
    assert ws.load("capec_posts.json", _read_text) is ref()
    assert ref() is not None  # still held for expertise
    ws.to_come = ("cluster", "report")  # expertise, the last reader, runs
    assert ws.load("capec_posts.json", _read_text) is ref()
    assert ref() is None  # released inside that load: only its caller kept it
    assert ws.load("capec_posts.json", _read_text) == "content of capec_posts.json\n"
    # load checks what require checks, and records the digest it read
    for artifact in STAGE_ARTIFACTS["expertise"]:
        ws.path(artifact).write_text(f"content of {artifact}\n")
    assert ws.record_stage("expertise", {})["inputs"] == {
        "capec_posts.json": sha256_file(ws.path("capec_posts.json"))
    }


def test_an_offer_no_stage_to_come_opens_is_not_held(tmp_path):
    held = _Held()
    ref = weakref.ref(held)
    ws = Workspace(tmp_path)
    ws.root.mkdir(exist_ok=True)
    for artifact in STAGE_ARTIFACTS["graph"]:
        ws.path(artifact).write_text(f"content of {artifact}\n")
    ws.to_come = ("cluster", "report")  # neither opens capec_posts.json
    ws.hand_off("capec_posts.json", held)
    del held
    ws.record_stage("graph", {})
    assert ref() is None
    ws.to_come = ()
    assert ws.load("capec_posts.json", _read_text) == "content of capec_posts.json\n"


def test_load_reads_an_edited_file_under_force_and_refuses_it_without(tmp_path):
    ws = _handed_off(tmp_path, object())
    ws.path("corpus.jsonl").write_text("edited\n")
    with pytest.raises(StaleArtifactError):
        ws.load("corpus.jsonl", _read_text)

    held = _Held()
    ref = weakref.ref(held)
    ws = _handed_off(tmp_path / "forced", held, "graph", "capec_posts.json")
    del held
    ws.path("capec_posts.json").write_text("edited\n")
    ws.force = True
    ws.to_come = ("expertise",)  # a later reader, which gets the file too
    assert ws.load("capec_posts.json", _read_text) == "edited\n"
    assert ref() is None  # the object no longer matches the file, so it is dropped


def test_load_does_not_hand_over_an_object_whose_stage_never_recorded(tmp_path):
    ws = _ws_with_stage(tmp_path, "ingest")
    ws.to_come = ("graph",)
    # offered, but the stage ended without recording, and another stage recorded next
    ws.hand_off("corpus.jsonl", object())
    _ws_with_stage(tmp_path, "convert-catalog")
    ws.record_stage("convert-catalog", {})
    assert ws.load("corpus.jsonl", _read_text) == "content of corpus.jsonl\n"

    # offered and never recorded at all
    ws.hand_off("corpus.jsonl", object())
    assert ws.load("corpus.jsonl", _read_text) == "content of corpus.jsonl\n"


def test_stage_inputs_declares_every_stage_and_only_artifacts():
    assert STAGE_INPUTS.keys() == STAGE_ARTIFACTS.keys()
    written = {name for names in STAGE_ARTIFACTS.values() for name in names}
    for stage, names in STAGE_INPUTS.items():
        assert set(names) <= written, stage
        assert not set(names) & set(STAGE_ARTIFACTS[stage]), stage  # no stage opens its own


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


@pytest.mark.parametrize(
    "stage, edit, problem",
    [
        ("convert-catalog", lambda entry: "x", "convert-catalog: expected a JSON object, got str"),
        ("graph", lambda entry: {**entry, "inputs": [1]}, "graph: inputs: expected a JSON object"),
        ("graph", lambda entry: {**entry, "artifacts": None}, "graph: artifacts: expected a JSON object"),
        ("ingest", lambda entry: {"config": {}}, "ingest: artifacts: expected a JSON object"),
        # every entry records its inputs, so one without them is refused, not left unchecked
        (
            "graph",
            lambda entry: {k: v for k, v in entry.items() if k != "inputs"},
            "graph: inputs: expected a JSON object, got NoneType",
        ),
    ],
    ids=["entry", "inputs", "artifacts", "no-artifacts", "no-inputs"],
)
def test_a_misshapen_manifest_entry_names_the_stage_and_the_key(tmp_path, stage, edit, problem):
    ws = _graph_built_from_ingest(tmp_path)
    manifest = ws.load_manifest()
    manifest["stages"][stage] = edit(manifest["stages"][stage])
    ws.save_manifest(manifest)
    with pytest.raises(ForumlensError) as caught:
        ws.require("graph.json")
    message = str(caught.value)
    assert f"{ws.manifest_path}: {problem}" in message
    assert "is not a valid manifest" in message and "delete it" in message


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
        ws.load("communities.json", read_json)
    ws.record_stage("communities", {})
    assert ws.load("communities.json", read_json) == payload


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_a_non_finite_number_and_keeps_the_previous_file(tmp_path, value):
    path = write_json(tmp_path / "clusters.json", {"silhouette": 0.5})
    before = path.read_bytes()
    with pytest.raises(ValidationError, match=f"^{path}: Out of range float values"):
        write_json(path, {"silhouette": 0.5, "clusters": [{"skill": value}]})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["clusters.json"]


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_read_json_refuses_the_non_standard_constants(tmp_path, constant):
    path = tmp_path / "communities.json"
    path.write_text(f'{{"modularity": {constant}}}\n')
    with pytest.raises(ValidationError) as excinfo:
        read_json(path)
    assert str(excinfo.value) == f"{path}: invalid JSON: {constant} is not a JSON value"


@contextmanager
def _json_file(data: bytes):
    """A temporary file holding ``data``; safe inside a hypothesis test, unlike ``tmp_path``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "capec_posts.json")
        path.write_bytes(data)
        yield path


def _whole_file_fault(path: Path) -> str:
    """The message of a whole-file parse of ``path`` by ``json.loads``, then of the check
    that it is an object: the faults the object reader must name as they always were."""
    def refuse(name):
        raise ValueError(f"{name} is not a JSON value")

    try:
        payload = json.loads(path.read_text(encoding="utf-8-sig"), parse_constant=refuse)
    except (ValueError, RecursionError) as exc:
        return f"{path}: invalid JSON: {exc}"
    assert not isinstance(payload, dict), "the text is a JSON object"
    return f"{path}: expected a JSON object, got {type(payload).__name__}"


_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
_SPACE = st.text(" \t\n\r", max_size=2)


@st.composite
def _object_texts(draw):
    """An object and a JSON text of it: spacing and separators drawn around every top-level
    token, values dumped with or without unicode escapes and indents, maybe after a BOM."""
    obj = draw(st.dictionaries(st.text(), _VALUES, max_size=5))
    ascii_only, indent = draw(st.booleans()), draw(st.sampled_from([None, 0, 2]))
    separators = draw(st.sampled_from([None, (",", ":"), (" , ", " : ")]))

    def dump(value):
        return json.dumps(value, ensure_ascii=ascii_only, indent=indent, separators=separators)

    pairs = [draw(_SPACE) + dump(k) + draw(_SPACE) + ":" + draw(_SPACE) + dump(v) + draw(_SPACE)
             for k, v in obj.items()]
    text = draw(_SPACE) + "{" + (",".join(pairs) or draw(_SPACE)) + "}" + draw(_SPACE)
    return obj, draw(st.sampled_from(["", "\ufeff"])) + text


@given(_object_texts())
def test_read_json_items_yields_the_pairs_json_loads_reads(case):
    obj, text = case
    with _json_file(text.encode("utf-8")) as path:
        assert list(read_json_items(path)) == list(json.loads(text.lstrip("\ufeff")).items())
        assert read_json_object(path) == obj


def test_read_json_items_yields_a_repeated_key_each_time_and_the_object_keeps_the_last(tmp_path):
    path = tmp_path / "capec_posts.json"
    path.write_text('{"a": 1, "b": {"a": 2}, "a": [3]}')
    assert list(read_json_items(path)) == [("a", 1), ("b", {"a": 2}), ("a", [3])]
    assert read_json_object(path) == json.loads(path.read_text()) == {"a": [3], "b": {"a": 2}}


_MALFORMED = [
    b"", b"{", b'{"a"', b'{"a":', b'{"a": 1', b'{"a": [1, 2', b'{"a": "open',  # truncated
    b'{"a": 1} x', b'{"a": 1}{}', b"{} []",  # trailing data
    b'{"a": NaN}', b'{"a": [1, -Infinity]}', b'{"a": {"b": Infinity}}',  # constants
    b"[1, 2]", b'"text"', b"3", b"null",  # not an object
    b"\xef\xbb\xbfgarbage", b"\xef\xbb\xbf\xef\xbb\xbf{}", b"\xef\xbb\xbf[]",  # BOM first
    b'{"a": 1,}', b'{,}', b'{"a" 1}', b'{1: 2}', b'{"a": 1 "b": 2}', b"{'a': 1}",  # grammar
    b'{"a": "\xff"}', b'{"a": "tab\tin a string"}', b'{"a": "\\x"}',  # bytes and escapes
    b'{"a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",  # nesting past the recursion limit
]


@pytest.mark.parametrize("data", _MALFORMED, ids=range(len(_MALFORMED)))
def test_read_json_items_names_a_fault_as_the_whole_file_parse_does(data):
    with _json_file(data) as path:
        for read in (lambda p: list(read_json_items(p)), read_json_object):
            with pytest.raises(ValidationError) as exc:
                read(path)
            assert str(exc.value) == _whole_file_fault(path)


@given(_object_texts(), st.data())
def test_read_json_items_names_a_cut_or_extended_text_as_the_whole_file_parse_does(case, data):
    _, text = case
    end = text.rstrip(" \t\n\r").rfind("}")
    cut = text[:data.draw(st.integers(0, end), label="cut")]
    extended = text + data.draw(st.sampled_from(["x", "{}", "0", '"', ",", "]"]), label="tail")
    for broken in (cut, extended):
        with _json_file(broken.encode("utf-8")) as path:
            with pytest.raises(ValidationError) as exc:
                list(read_json_items(path))
            assert str(exc.value) == _whole_file_fault(path)


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
