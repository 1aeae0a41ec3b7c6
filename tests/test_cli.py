"""End-to-end tests of the command-line pipeline and its exit codes."""

from __future__ import annotations

import argparse
import ast
import gc
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import pytest

import forumlens
from forumlens import catalog, cli, expertise, graph, ingest, synth, workspace
from forumlens.cli import main
from forumlens.errors import ValidationError
from forumlens.graph import load_graph
from forumlens.workspace import STAGE_ARTIFACTS, STAGE_INPUTS, Workspace, sha256_file

from conftest import read_export


def _synth_inputs(root, seed=3, scale=(3, 8, 6)):
    """Generate small synthetic inputs outside any pipeline workspace.

    ``scale`` is (communities, actors per community, CAPECs per community).
    """
    out = root / "inputs"
    communities, actors, capecs = map(str, scale)
    code = main(
        [
            "synth",
            "--workspace", str(root / "synth-scratch"),
            "--out", str(out),
            "--seed", str(seed),
            "--communities", communities,
            "--actors", actors,
            "--capecs", capecs,
        ]
    )
    assert code == 0
    return out


def _run_all(ws, inputs, *extra):
    return main(
        [
            "run-all",
            "--workspace", str(ws),
            "--posts", str(inputs / "posts.jsonl"),
            "--cve-cwe", str(inputs / "cve_cwe.csv"),
            "--capec-json", str(inputs / "capec.json"),
            *extra,
        ]
    )


@pytest.fixture(scope="module")
def pipeline_ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    inputs = _synth_inputs(root)
    ws = root / "ws"
    assert _run_all(ws, inputs) == 0
    return ws


def test_run_all_produces_all_artifacts(pipeline_ws):
    manifest = json.loads((pipeline_ws / "manifest.json").read_text())
    for stage in manifest["stages"]:
        for name in STAGE_ARTIFACTS[stage]:
            assert (pipeline_ws / name).is_file(), name
    assert "capec_posts.json" in STAGE_ARTIFACTS["graph"]


def test_communities_and_expertise_do_not_load_the_corpus(pipeline_ws, tmp_path, monkeypatch):
    ws = tmp_path / "ws"
    shutil.copytree(pipeline_ws, ws)
    rerun = STAGE_ARTIFACTS["communities"] + STAGE_ARTIFACTS["expertise"]
    before = {name: (ws / name).read_bytes() for name in rerun}

    def refuse(path):
        raise AssertionError(f"corpus loaded from {path}")

    for reader in ("load_corpus", "load_post_table"):
        monkeypatch.setattr(ingest, reader, refuse)
    assert main(["communities", "--workspace", str(ws)]) == 0
    assert main(["expertise", "--workspace", str(ws)]) == 0
    assert {name: (ws / name).read_bytes() for name in rerun} == before


def _artifacts(ws):
    names = [name for stage in cli.PIPELINE for name in STAGE_ARTIFACTS[stage]]
    return {name: (ws / name).read_bytes() for name in names}


def _counting(calls, name, real):
    def wrapper(*args):
        calls[name] += 1
        return real(*args)
    return wrapper


def test_run_all_hands_each_artifact_to_every_later_stage_that_opens_it(
    pipeline_ws, tmp_path, monkeypatch
):
    def refuse(path):
        raise AssertionError(f"corpus loaded from {path}")

    def refuse_graph(path):
        raise AssertionError(f"graph loaded from {path}")

    calls = Counter()
    # graph takes the post table ingest built
    for reader in ("load_corpus", "load_post_table"):
        monkeypatch.setattr(ingest, reader, refuse)
    # communities and expertise derive the graph from capec_posts.json
    monkeypatch.setattr(graph, "load_graph", refuse_graph)
    monkeypatch.setattr(graph, "load_posts", _counting(calls, "load_posts", graph.load_posts))
    ws = tmp_path / "ws"
    assert _run_all(ws, pipeline_ws.parent / "inputs") == 0
    # communities and expertise both take the table graph wrote; neither reads the file
    assert calls == {}
    assert _artifacts(ws) == _artifacts(pipeline_ws)


class _Table(dict):
    """A resolved-post table a weak reference can watch."""


def test_run_all_releases_the_post_table_before_cluster(pipeline_ws, tmp_path, monkeypatch):
    refs, seen = [], {}
    surviving, build, cluster = graph.surviving_posts, expertise.build_profiles, cli.cmd_cluster

    def watched(*args):
        table = _Table(surviving(*args))
        refs.append(weakref.ref(table))
        return table

    def building(posts, *args, **kwargs):
        seen["expertise took it"] = posts is refs[0]()
        return build(posts, *args, **kwargs)

    def clustering(ws, args):
        seen["alive at cluster"] = refs[0]() is not None
        return cluster(ws, args)

    monkeypatch.setattr(graph, "surviving_posts", watched)
    monkeypatch.setattr(expertise, "build_profiles", building)
    monkeypatch.setattr(cli, "cmd_cluster", clustering)
    assert _run_all(tmp_path / "ws", pipeline_ws.parent / "inputs") == 0
    assert len(refs) == 1
    assert seen == {"expertise took it": True, "alive at cluster": False}


def test_expertise_reads_capec_posts_on_its_own_and_after_an_edit(
    pipeline_ws, tmp_path, monkeypatch
):
    calls = Counter()
    monkeypatch.setattr(graph, "load_posts", _counting(calls, "load_posts", graph.load_posts))
    ws = tmp_path / "ws"
    shutil.copytree(pipeline_ws, ws)
    assert main(["expertise", "--workspace", str(ws)]) == 0
    assert calls == {"load_posts": 1}

    # in run-all, capec_posts.json is rewritten (same table, other bytes) after communities
    communities = cli.cmd_communities

    def then_edit(ws, args):
        facts = communities(ws, args)
        path = ws.path("capec_posts.json")
        path.write_text(json.dumps(json.loads(path.read_text()), indent=1))
        return facts

    monkeypatch.setattr(cli, "cmd_communities", then_edit)
    calls.clear()
    ws = tmp_path / "forced"
    assert _run_all(ws, pipeline_ws.parent / "inputs", "--force") == 0
    # the held table no longer matches the file, so expertise reads the file
    assert calls == {"load_posts": 1}
    for name in STAGE_ARTIFACTS["expertise"]:
        assert (ws / name).read_bytes() == (pipeline_ws / name).read_bytes(), name


def _declared_inputs_hold(ws):
    manifest = json.loads((ws / "manifest.json").read_text())
    for stage, entry in manifest["stages"].items():
        assert set(entry["inputs"]) == set(STAGE_INPUTS[stage]), stage
    return set(manifest["stages"])


def test_each_stage_records_the_inputs_workspace_declares_for_it(pipeline_ws, tmp_path):
    # require records what a stage opens; STAGE_INPUTS, which decides how long a
    # handed-off object is held, must name the same artifacts
    assert _declared_inputs_hold(pipeline_ws) == set(cli.PIPELINE)  # written by run-all
    ws = tmp_path / "each"
    assert main(["synth", "--workspace", str(ws)]) == 0
    assert _declared_inputs_hold(ws) == {"synth"}
    for stage, *flags in _stage_argvs(pipeline_ws.parent / "inputs"):
        assert main([stage, "--workspace", str(ws), *flags]) == 0, stage
        assert stage in _declared_inputs_hold(ws)
    assert _declared_inputs_hold(ws) == set(STAGE_INPUTS)


def _stage_argvs(inputs, *graph_flags):
    return [
        ["ingest", "--posts", str(inputs / "posts.jsonl")],
        [
            "convert-catalog",
            "--cve-cwe", str(inputs / "cve_cwe.csv"),
            "--capec-json", str(inputs / "capec.json"),
        ],
        ["graph", *graph_flags],
        ["communities"], ["expertise"], ["cluster"], ["report"],
    ]


def _run_stages(ws, inputs, *graph_flags):
    for stage, *flags in _stage_argvs(inputs, *graph_flags):
        assert main([stage, "--workspace", str(ws), *flags]) == 0, stage


def _unions(run) -> int:
    """How many post tables ``run()`` unites: its calls of ``graph.actor_capecs``,
    through any binding of the name; ``run()`` must return exit code 0."""
    union, calls = graph.actor_capecs.__code__, 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is union

    sys.setprofile(count)
    try:
        assert run() == 0
    finally:
        sys.setprofile(None)
    return calls


def test_each_stage_unites_each_post_table_it_computes_on_once(pipeline_ws, tmp_path):
    # graph unites the full table and the cut one; communities and expertise unite
    # capec_posts.json once and hand that one union to every user of it
    inputs = pipeline_ws.parent / "inputs"
    ws = tmp_path / "each"
    unions = {
        stage: _unions(lambda: main([stage, "--workspace", str(ws), *flags]))
        for stage, *flags in _stage_argvs(inputs)
    }
    assert unions == {
        "ingest": 0, "convert-catalog": 0, "graph": 2, "communities": 1, "expertise": 1,
        "cluster": 0, "report": 0,
    }
    assert _unions(lambda: _run_all(tmp_path / "one", inputs)) == 4


@pytest.fixture(scope="module")
def inputs_s(tmp_path_factory):
    """Synthetic inputs at scale S (4 communities of 25 actors, 10 CAPECs each)."""
    return _synth_inputs(tmp_path_factory.mktemp("synth-s"), scale=(4, 25, 10))


# 21 removes every Medium-skill CAPEC of inputs_s and keeps the 28 others
@pytest.mark.parametrize("graph_flags", [(), ("--capec-threshold", "21")], ids=["default", "21"])
def test_run_all_writes_what_the_stages_run_one_by_one_write(inputs_s, tmp_path, graph_flags):
    assert _run_all(tmp_path / "one", inputs_s, *graph_flags) == 0
    _run_stages(tmp_path / "each", inputs_s, *graph_flags)
    assert _artifacts(tmp_path / "one") == _artifacts(tmp_path / "each")
    removed = json.loads((tmp_path / "one" / "removal.json").read_text())["n_removed_capecs"]
    assert removed == (12 if graph_flags else 0)
    # the graph communities and expertise derive from the post table is the one graph.json holds
    one = tmp_path / "one"
    snapshot = catalog.load_snapshot(one / "cve_cwe.csv", one / "capec.json")
    adjacency = graph.actor_capecs(graph.load_posts(one / "capec_posts.json", snapshot))
    assert graph.graph_of(adjacency) == load_graph(one / "graph.json")


def test_small_random_pipelines_exit_0_or_1_and_rerun_to_the_same_bytes(tmp_path, caplog):
    # random small inputs and flags through run-all, each run twice in fresh workspaces
    rng = random.Random(2026)
    names = [name for stage in cli.PIPELINE for name in STAGE_ARTIFACTS[stage]]
    for trial in range(8):
        scale = (rng.randint(2, 4), rng.randint(3, 12), 10)
        inputs = _synth_inputs(tmp_path / str(trial), seed=rng.randrange(1000), scale=scale)
        flags = [
            "--capec-threshold", str(rng.randint(1, 500)), "--min-posts", str(rng.randint(1, 8)),
            "--skill-percentile", str(rng.randint(1, 100)),
        ]
        runs = []
        for ws in (tmp_path / str(trial) / "one", tmp_path / str(trial) / "two"):
            caplog.clear()
            code = _run_all(ws, inputs, *flags)
            errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
            assert (code, len(errors)) in ((0, 0), (1, 1)), (scale, flags, code, errors)
            runs.append((code, {n: (ws / n).is_file() and sha256_file(ws / n) for n in names}))
        assert runs[0] == runs[1], (scale, flags)
        clusters = tmp_path / str(trial) / "one" / "clusters.json"
        if clusters.is_file() and not json.loads(clusters.read_text()).get("skipped"):
            shares = [c["pct_of_sample"] for c in json.loads(clusters.read_text())["clusters"]]
            assert abs(sum(shares) - 100.0) <= 1e-9, (scale, flags, shares)


# sha256_file calls per file in one run-all: each artifact once when its stage
# records it, and once more each time a later stage opens it
RUN_ALL_HASHES = {
    "corpus.jsonl": 2, "corpus_stats.json": 2, "cve_cwe.csv": 4, "capec.json": 4,
    "graph.json": 1, "graph_stats.json": 2, "removal.json": 2, "capec_posts.json": 3,
    "communities.json": 3, "profiles.csv": 1, "sample.csv": 2, "sample_stats.json": 2,
    "clusters.json": 2, "report.json": 1, "report.txt": 1,
}


def test_run_all_hashes_each_file_it_opens_as_the_stages_do(pipeline_ws, tmp_path, monkeypatch):
    ws = tmp_path / "ws"
    hashed = Counter()
    real = workspace.sha256_file

    def recording(path):
        hashed[Path(path).relative_to(ws).as_posix()] += 1
        return real(path)

    monkeypatch.setattr(workspace, "sha256_file", recording)
    assert _run_all(ws, pipeline_ws.parent / "inputs") == 0
    assert hashed == RUN_ALL_HASHES


def _error_after_edit(pipeline_ws, tmp_path, caplog, name, edit, argv):
    """The one error line of ``argv`` run with ``--force`` after ``edit`` rewrote
    artifact ``name`` (given its bytes, it returns the new bytes); exit must be 1."""
    ws = tmp_path / "ws"
    shutil.copytree(pipeline_ws, ws)
    (ws / name).write_bytes(edit((ws / name).read_bytes()))
    caplog.clear()
    assert main([*argv, "--workspace", str(ws), "--force"]) == 1
    [error] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert not re.match(r"error: \w+:", error)
    return ws / name, error


def _json_edit(change):
    def edit(data):
        payload = json.loads(data)
        change(payload)
        return json.dumps(payload).encode()
    return edit


@pytest.mark.parametrize(
    "argv, name, edit",
    [
        (["graph"], "capec.json", lambda data: data[: len(data) // 2]),
        (["graph"], "capec.json", lambda data: b"\xff" + data),
        (["communities"], "capec_posts.json", lambda data: data[: len(data) // 2]),
        (["expertise"], "communities.json", lambda data: data[: len(data) // 2]),
        (["report"], "communities.json", lambda data: data[: len(data) // 2]),
        (["export-graph"], "graph.json", lambda data: data[: len(data) // 2]),
    ],
    ids=[
        "graph-truncated-capec", "graph-non-utf8-capec", "communities", "expertise", "report",
        "export-graph",
    ],
)
def test_an_unreadable_json_input_exits_1_naming_it(
    pipeline_ws, tmp_path, caplog, argv, name, edit
):
    path, error = _error_after_edit(pipeline_ws, tmp_path, caplog, name, edit, argv)
    assert error.startswith(f"{path}: invalid JSON: ")


@pytest.mark.parametrize("value", ["x", 2.7, "3", True], ids=["word", "float", "digits", "bool"])
@pytest.mark.parametrize("command", ["expertise", "export-graph"])
def test_a_non_integer_community_id_names_the_file_and_the_key(
    pipeline_ws, tmp_path, caplog, command, value
):
    # int() would take "3" and true, and silently move a node at 2.7 to community 2
    def change(payload):
        payload["assignment"][min(payload["assignment"])] = value

    path, error = _error_after_edit(
        pipeline_ws, tmp_path, caplog, "communities.json", _json_edit(change), [command]
    )
    assert error == f"{path}: assignment: expected an integer community id, got {value!r}"


@pytest.mark.parametrize("value", [True, "0.5"])
def test_a_non_numeric_modularity_names_the_file_and_the_key(pipeline_ws, tmp_path, caplog, value):
    def change(payload):
        payload["modularity"] = value

    path, error = _error_after_edit(
        pipeline_ws, tmp_path, caplog, "communities.json", _json_edit(change), ["expertise"]
    )
    assert error == f"{path}: modularity: expected a number, got {value!r}"


@pytest.mark.parametrize(
    "change, problem",
    [
        (lambda rows: rows[0].__setitem__(1, []), "CAPEC ids must be a list of one or more"),
        (lambda rows: rows.clear(), "expected a list of one or more [timestamp, [CAPEC ids]] rows"),
    ],
    ids=["row-without-capecs", "actor-without-rows"],
)
def test_communities_refuses_a_post_table_graph_never_writes(
    pipeline_ws, tmp_path, caplog, change, problem
):
    # communities derives its graph from capec_posts.json, so load_posts guards every row
    def edit(payload):
        change(payload["a00000"])

    path, error = _error_after_edit(
        pipeline_ws, tmp_path, caplog, "capec_posts.json", _json_edit(edit), ["communities"]
    )
    assert error.startswith(f"{path}: a00000: {problem}")


# a post row naming CAPEC 1, and a catalog whose CAPEC 1000 is renumbered
_LACKED_CAPEC = {
    "posts-row": ("capec_posts.json", lambda payload: payload["a00000"][0].__setitem__(1, [1]), 1),
    "catalog-entry": ("capec.json", lambda payload: payload[0].update(id=999999), 1000),
}


@pytest.mark.parametrize("edit", sorted(_LACKED_CAPEC))
@pytest.mark.parametrize("stage", ["communities", "expertise"])
def test_a_capec_the_catalog_lacks_is_refused_in_one_message(
    pipeline_ws, tmp_path, caplog, stage, edit
):
    # both stages read the post table through load_posts, which checks it against the
    # catalog before they compute; the first actor in file order with the id is named
    name, change, lacked = _LACKED_CAPEC[edit]
    path, error = _error_after_edit(
        pipeline_ws, tmp_path, caplog, name, _json_edit(change), [stage]
    )
    ws = path.parent
    posts = json.loads((ws / "capec_posts.json").read_text())
    actor = next(a for a, rows in posts.items() if any(lacked in ids for _, ids in rows))
    assert error == f"{ws / 'capec_posts.json'}: {actor}: CAPEC ids the catalog lacks: [{lacked}]"
    before = {n: (pipeline_ws / n).read_bytes() for n in STAGE_ARTIFACTS[stage]}
    assert {n: (ws / n).read_bytes() for n in before} == before
    # --force re-baselined the edited file; the refusal itself records and writes nothing
    manifest = (ws / "manifest.json").read_bytes()
    recorded = json.loads((pipeline_ws / "manifest.json").read_text())["stages"][stage]
    assert json.loads(manifest)["stages"][stage] == recorded
    assert main([stage, "--workspace", str(ws)]) == 1
    assert (ws / "manifest.json").read_bytes() == manifest
    assert {n: (ws / n).read_bytes() for n in before} == before


def test_expertise_names_the_artifacts_that_disagree(pipeline_ws, tmp_path, caplog):
    # each file reads well on its own; together they break what expertise relies on
    def change(payload):
        payload["assignment"].pop(min(payload["assignment"]))

    path, error = _error_after_edit(
        pipeline_ws, tmp_path, caplog, "communities.json", _json_edit(change), ["expertise"]
    )
    assert error == (
        f"capec_posts.json and communities.json in {path.parent} disagree: "
        "partition does not assign node 'actor:a00000'"
    )


@pytest.mark.parametrize(
    "name, change, problem",
    [
        ("clusters.json", lambda payload: payload.pop("silhouette"), "silhouette: missing"),
        (
            "sample_stats.json",
            lambda payload: payload["skill_score"].update(mean=None),
            "float() argument must be a string or a real number, not 'NoneType'",
        ),
        (
            "communities.json",
            lambda payload: payload.update(communities=7),
            "'int' object is not iterable",
        ),
        ("removal.json", lambda payload: payload.pop("threshold"), "threshold: missing"),
    ],
    ids=["clusters-missing-key", "sample-stats-null", "communities-wrong-type", "removal-missing"],
)
def test_report_names_the_input_that_lacks_a_key_or_has_a_wrong_type(
    pipeline_ws, tmp_path, caplog, name, change, problem
):
    path, error = _error_after_edit(
        pipeline_ws, tmp_path, caplog, name, _json_edit(change), ["report"]
    )
    assert error == f"{path}: {problem}"
    # nothing is written before every input is read
    for report in STAGE_ARTIFACTS["report"]:
        assert (path.parent / report).read_bytes() == (pipeline_ws / report).read_bytes()


@pytest.mark.parametrize("threshold, emptied", [("7", ["Medium"]), ("8", []), ("500", [])])
def test_graph_warns_once_per_skill_level_the_filter_empties(
    pipeline_ws, tmp_path, caplog, threshold, emptied
):
    ws = tmp_path / "ws"
    shutil.copytree(pipeline_ws, ws)
    caplog.clear()
    assert main(["graph", "--workspace", str(ws), "--capec-threshold", threshold]) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    # the Medium CAPECs of pipeline_ws have 8, 10, 11, 11, 12 and 14 actors
    expected = {
        "Medium": "--capec-threshold 7 removes every Medium-skill CAPEC: "
        "6 CAPECs carrying 66 edges",
    }
    assert warnings == [expected[level] for level in emptied]


def test_run_all_manifest_records_every_stage(pipeline_ws):
    manifest = json.loads((pipeline_ws / "manifest.json").read_text())
    assert set(manifest["stages"]) == {
        "ingest", "convert-catalog", "graph", "communities", "expertise", "cluster", "report",
    }
    assert manifest["stages"]["graph"]["config"]["capec_threshold"] == 500


def test_run_all_report_sections(pipeline_ws):
    text = (pipeline_ws / "report.txt").read_text()
    for heading in (
        "== Corpus ==",
        "== Bimodal graph and popularity filter ==",
        "== Communities of interest ==",
        "== Analysis sample ==",
        "== Clusters ==",
    ):
        assert heading in text
    report = json.loads((pipeline_ws / "report.json").read_text())
    assert report["corpus"]["posts"] > 0
    assert report["communities"]["count"] >= 2
    assert not report["clusters"].get("skipped")


def test_report_sums_the_sample_share_of_each_quadrant_in_table_order(pipeline_ws):
    shares: dict[str, float] = {}
    for row in json.loads((pipeline_ws / "clusters.json").read_text())["clusters"]:
        shares[row["quadrant"]] = shares.get(row["quadrant"], 0.0) + row["pct_of_sample"]
    assert json.loads((pipeline_ws / "report.json").read_text())["quadrant_shares"] == shares
    line = ", ".join(f"{quadrant} {pct:.1f}%" for quadrant, pct in shares.items())
    assert f"\nquadrant shares: {line}\n" in (pipeline_ws / "report.txt").read_text()


def test_export_graph_round_trip(pipeline_ws, tmp_path):
    out = tmp_path / "exported.dot"
    code = main(
        ["export-graph", "--workspace", str(pipeline_ws), "--format", "dot", "--out", str(out)]
    )
    assert code == 0
    assert read_export(out, "dot") == load_graph(pipeline_ws / "graph.json")


def _inputs_with_posts(pipeline_ws, tmp_path, lines):
    """The pipeline's inputs under ``tmp_path / "inputs"``, the post file replaced by ``lines``."""
    inputs = tmp_path / "inputs"
    shutil.copytree(pipeline_ws.parent / "inputs", inputs)
    (inputs / "posts.jsonl").write_text("".join(line + "\n" for line in lines))
    return inputs


def test_byte_order_marks_on_the_three_inputs_change_no_artifact(pipeline_ws, tmp_path):
    plain, inputs = pipeline_ws.parent / "inputs", tmp_path / "inputs"
    inputs.mkdir()
    for name in ("posts.jsonl", "cve_cwe.csv", "capec.json"):
        (inputs / name).write_bytes(b"\xef\xbb\xbf" + (plain / name).read_bytes())
    assert _run_all(tmp_path / "ws", inputs) == 0
    manifest = json.loads((tmp_path / "ws" / "manifest.json").read_text())
    assert manifest["stages"]["ingest"]["config"]["skipped_lines"] == 0
    assert _artifacts(tmp_path / "ws") == _artifacts(pipeline_ws)


def test_a_lone_surrogate_actor_id_is_a_skipped_line_for_run_all(pipeline_ws, tmp_path):
    lines = (pipeline_ws.parent / "inputs" / "posts.jsonl").read_text().splitlines()
    # the first post again under a new id, by an actor id JSON allows and UTF-8 cannot hold
    bad = json.loads(lines[0]) | {"post_id": "surrogate", "actor_id": "\ud800x"}
    ws = tmp_path / "ws"
    assert _run_all(ws, _inputs_with_posts(pipeline_ws, tmp_path, [*lines, json.dumps(bad)])) == 0
    manifest = json.loads((ws / "manifest.json").read_text())
    assert manifest["stages"]["ingest"]["config"]["skipped_lines"] == 1
    actors = [row.split(",")[0] for row in (ws / "profiles.csv").read_text().splitlines()]
    assert "\ud800x" not in actors
    assert _artifacts(ws) == _artifacts(pipeline_ws)


def _rename_actor_in_capec_posts(ws, old, new):
    path = ws / "capec_posts.json"
    posts = json.loads(path.read_text())
    posts[new] = posts.pop(old)
    path.write_text(json.dumps(posts))
    path = ws / "communities.json"
    part = json.loads(path.read_text())
    part["assignment"][f"actor:{new}"] = part["assignment"].pop(f"actor:{old}")
    path.write_text(json.dumps(part))
    return ws / "capec_posts.json"


def _rename_actor_in_graph(ws, old, new):
    path = ws / "graph.json"
    payload = json.loads(path.read_text())
    payload["actors"] = [new if a == old else a for a in payload["actors"]]
    payload["edges"] = [[new if a == old else a, c] for a, c in payload["edges"]]
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("argv, rename", [
    (["expertise"], _rename_actor_in_capec_posts),
    (["export-graph", "--format", "dot"], _rename_actor_in_graph),
], ids=["expertise", "export-graph-dot"])
def test_a_lone_surrogate_actor_id_in_an_artifact_is_refused_by_its_reader(
    pipeline_ws, tmp_path, caplog, argv, rename
):
    # a hand edit JSON allows; the first file written with the id could not encode it
    ws = tmp_path / "ws"
    shutil.copytree(pipeline_ws, ws)
    actor = json.loads((ws / "graph.json").read_text())["actors"][0]
    path = rename(ws, actor, "b\ud800b")
    caplog.clear()
    assert main([*argv, "--workspace", str(ws), "--force"]) == 1
    [error] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert error.getMessage() == (
        f"{path}: b\ud800b: actor id does not encode as UTF-8: surrogates not allowed"
    )
    assert error.exc_info is None
    assert list(ws.rglob("*.tmp")) == []


def test_export_graph_refuses_an_actor_id_that_is_no_string(pipeline_ws, tmp_path, caplog):
    # a number once reached node_table's sort and failed there as a TypeError
    ws = tmp_path / "ws"
    shutil.copytree(pipeline_ws, ws)
    path = _rename_actor_in_graph(ws, json.loads((ws / "graph.json").read_text())["actors"][0], 5)
    caplog.clear()
    assert main(["export-graph", "--workspace", str(ws), "--format", "dot", "--force"]) == 1
    [error] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert error.getMessage() == f"{path}: 5: actor id must be a string, got int"
    assert error.exc_info is None
    assert not (ws / "graph.dot").exists()
    assert list(ws.rglob("*.tmp")) == []


def test_run_all_where_no_post_maps_to_a_capec_records_no_graph(pipeline_ws, tmp_path, caplog):
    post = {"forum_id": "f", "timestamp": "2021-01-01T00:00:00Z", "content": "CVE-2020-0001",
            "mentions": ["CVE-2020-0001"]}  # a CVE the catalog lacks
    lines = [json.dumps({**post, "post_id": f"p{i}", "actor_id": f"a{i}"}) for i in range(3)]
    ws = tmp_path / "ws"
    caplog.clear()
    assert _run_all(ws, _inputs_with_posts(pipeline_ws, tmp_path, lines)) == 1
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
        "no post mentions a CVE that maps to any catalog CAPEC"
    ]
    assert not [name for name in STAGE_ARTIFACTS["graph"] if (ws / name).exists()]
    manifest = json.loads((ws / "manifest.json").read_text())
    assert set(manifest["stages"]) == {"ingest", "convert-catalog"}


def test_export_graph_refuses_graphml_for_a_node_xml_cannot_carry(pipeline_ws, tmp_path, caplog):
    lines = (pipeline_ws.parent / "inputs" / "posts.jsonl").read_text().splitlines()
    posts = [json.loads(line) for line in lines]
    for post in posts[::10]:
        post["actor_id"] = "\x01" + post["actor_id"]
    ws = tmp_path / "ws"
    assert _run_all(ws, _inputs_with_posts(pipeline_ws, tmp_path, map(json.dumps, posts))) == 0
    before = sorted(path.name for path in ws.iterdir())
    assert main(["export-graph", "--workspace", str(ws), "--format", "graphml"]) == 1
    assert sorted(path.name for path in ws.iterdir()) == before
    refusal = r"node 'actor:\\x01[^']*' holds a character XML 1.0 cannot carry; use dot or csv"
    assert re.search(refusal, caplog.text)
    for fmt in ("dot", "csv"):
        assert main(["export-graph", "--workspace", str(ws), "--format", fmt]) == 0
        assert read_export(ws / f"graph.{fmt}", fmt) == load_graph(ws / "graph.json")


def test_missing_upstream_exits_2(tmp_path):
    assert main(["graph", "--workspace", str(tmp_path / "fresh")]) == 2
    assert main(["communities", "--workspace", str(tmp_path / "fresh")]) == 2
    assert main(["report", "--workspace", str(tmp_path / "fresh")]) == 2


def test_stale_artifact_exits_1_then_force_recovers(tmp_path):
    inputs = _synth_inputs(tmp_path)
    ws = tmp_path / "ws"
    assert _run_all(ws, inputs) == 0

    # Out-of-band edit: hash no longer matches what the manifest recorded.
    with (ws / "corpus.jsonl").open("a") as handle:
        handle.write("\n")
    assert main(["graph", "--workspace", str(ws)]) == 1
    assert main(["graph", "--workspace", str(ws), "--force"]) == 0
    assert main(["graph", "--workspace", str(ws)]) == 0


def test_reingest_makes_later_stages_refuse_the_stale_graph(tmp_path, caplog):
    first, second = (_synth_inputs(tmp_path / f"seed{seed}", seed=seed) for seed in (1, 2))
    ws = tmp_path / "ws"
    assert _run_all(ws, first) == 0
    assert main(["ingest", "--workspace", str(ws), "--posts", str(second / "posts.jsonl")]) == 0
    forced = tmp_path / "forced"
    shutil.copytree(ws, forced)

    # graph.json and capec_posts.json still come from the first corpus
    for stage in ("communities", "expertise", "report"):
        caplog.clear()
        assert main([stage, "--workspace", str(ws)]) == 1
        assert "stage 'graph' was built from artifacts of 'ingest'" in caplog.text
        assert "re-run 'graph'" in caplog.text
    assert main(["graph", "--workspace", str(ws)]) == 0
    for stage in ("communities", "expertise", "cluster", "report"):
        assert main([stage, "--workspace", str(ws)]) == 0

    caplog.clear()
    assert main(["communities", "--workspace", str(forced), "--force"]) == 0
    assert "force: accepting stage graph built from since-changed ingest" in caplog.text
    assert main(["expertise", "--workspace", str(forced)]) == 0


@pytest.mark.parametrize(
    "bad_line",
    [
        '{"post_id": "broken',
        json.dumps(
            {
                "post_id": "extra",
                "actor_id": "a",
                "forum_id": "f",
                "timestamp": "2021-01-01T00:00:00Z",
                "content": "",
                "mentions": ["CVE-21-1"],
            }
        ),
    ],
    ids=["json", "mention"],
)
def test_graph_on_malformed_corpus_exits_1_with_one_line(pipeline_ws, tmp_path, bad_line):
    ws = tmp_path / "ws"
    shutil.copytree(pipeline_ws, ws)
    with (ws / "corpus.jsonl").open("a", encoding="utf-8") as handle:
        handle.write(bad_line + "\n")

    src = str(Path(forumlens.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "forumlens", "graph", "--workspace", str(ws), "--force"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    errors = [line for line in result.stderr.splitlines() if line.startswith("ERROR")]
    assert errors == [f"ERROR forumlens.cli: {ws / 'corpus.jsonl'}: 1 malformed line(s)"]
    for name in STAGE_ARTIFACTS["graph"]:
        assert (ws / name).read_bytes() == (pipeline_ws / name).read_bytes(), name


def test_locked_workspace_exits_3(tmp_path):
    ws = tmp_path / "ws"
    posts = tmp_path / "posts.jsonl"
    posts.write_text("")
    with Workspace(ws).lock():
        assert main(["ingest", "--workspace", str(ws), "--posts", str(posts)]) == 3


def test_lock_of_a_killed_process_does_not_block(tmp_path):
    ws = tmp_path / "ws"
    posts = tmp_path / "posts.jsonl"
    posts.write_text("")
    argv = ["ingest", "--workspace", str(ws), "--posts", str(posts)]
    holder = (
        "import sys, time\n"
        "from forumlens.workspace import Workspace\n"
        "with Workspace(sys.argv[1]).lock():\n"
        "    print('locked', flush=True)\n"
        "    time.sleep(60)\n"
    )
    src = str(Path(forumlens.__file__).resolve().parents[1])
    child = subprocess.Popen(
        [sys.executable, "-c", holder, str(ws)],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE, text=True,
    )
    try:
        assert child.stdout.readline() == "locked\n"
        assert main(argv) == 3
    finally:
        child.kill()
        child.wait(timeout=60)
        child.stdout.close()
    assert child.returncode == -signal.SIGKILL
    assert main(argv) == 0


def test_leftover_lock_file_naming_a_dead_pid_does_not_block(tmp_path):
    ws = tmp_path / "ws"
    ws.mkdir()
    dead = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"], capture_output=True, text=True
    )
    (ws / ".lock").write_text(dead.stdout)
    posts = tmp_path / "posts.jsonl"
    posts.write_text("")
    assert main(["ingest", "--workspace", str(ws), "--posts", str(posts)]) == 0


def test_unreadable_input_exits_3(tmp_path):
    code = main(
        ["ingest", "--workspace", str(tmp_path / "ws"), "--posts", str(tmp_path / "absent.jsonl")]
    )
    assert code == 3


def test_convert_catalog_argument_validation(tmp_path, caplog):
    ws = str(tmp_path / "ws")
    # Neither input pair, or a mixed pair, is a usage error.
    assert main(["convert-catalog", "--workspace", ws]) == 1
    assert main(["convert-catalog", "--workspace", ws, "--nvd-json", "x", "--cve-cwe", "y"]) == 1
    # A malformed id exits 1 with a message naming the file and the attack pattern.
    (tmp_path / "cve_cwe.csv").write_text("cve_id,cwe_id\n")
    (tmp_path / "capec.json").write_text(json.dumps([{"id": "CAPEC-66", "name": "SQL Injection"}]))
    caplog.clear()
    pair = ["--cve-cwe", str(tmp_path / "cve_cwe.csv"), "--capec-json", str(tmp_path / "capec.json")]
    assert main(["convert-catalog", "--workspace", ws, *pair]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert "capec.json" in errors[0] and "CAPEC-66" in errors[0]


def test_convert_catalog_takes_a_deep_hierarchy(tmp_path):
    # a parent chain deeper than Python's default recursion limit, deepest first
    depth = 1500
    rows = [{"id": i, "name": f"c{i}", "parents": [i - 1]} for i in range(depth, 1, -1)]
    rows.append({"id": 1, "name": "root", "skill_scenarios": ["Low"]})
    (tmp_path / "capec.json").write_text(json.dumps(rows))
    (tmp_path / "cve_cwe.csv").write_text("cve_id,cwe_id\n")
    ws = tmp_path / "ws"
    argv = ["convert-catalog", "--workspace", str(ws)]
    argv += ["--cve-cwe", str(tmp_path / "cve_cwe.csv"), "--capec-json", str(tmp_path / "capec.json")]
    assert main(argv) == 0
    snapshot = catalog.load_snapshot(ws / "cve_cwe.csv", ws / "capec.json")
    assert catalog.effective_skill(snapshot, depth) == catalog.SkillLevel.LOW


def test_graph_refuses_a_threshold_that_removes_every_capec(pipeline_ws, tmp_path, caplog):
    ws = tmp_path / "ws"
    shutil.copytree(pipeline_ws, ws)
    before = {name: (ws / name).read_bytes() for name in STAGE_ARTIFACTS["graph"]}
    recorded = json.loads((ws / "manifest.json").read_text())["stages"]["graph"]

    caplog.clear()
    assert main(["graph", "--workspace", str(ws), "--capec-threshold", "3"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "--capec-threshold 3 removes every CAPEC" in errors[0]
    assert {name: (ws / name).read_bytes() for name in before} == before
    assert json.loads((ws / "manifest.json").read_text())["stages"]["graph"] == recorded

    # the threshold the message names keeps a CAPEC
    least = re.search(r"has (\d+) actors", errors[0]).group(1)
    assert main(["graph", "--workspace", str(ws), "--capec-threshold", least]) == 0
    assert load_graph(ws / "graph.json").capec_ids


def test_unknown_command_exits_1(capsys):
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_version_exits_0(capsys):
    assert main(["--version"]) == 0
    assert "forumlens" in capsys.readouterr().out


def test_workspace_env_var(monkeypatch, tmp_path):
    inputs = _synth_inputs(tmp_path)
    target = tmp_path / "env-ws"
    monkeypatch.setenv("FORUMLENS_WORKSPACE", str(target))
    code = main(["ingest", "--posts", str(inputs / "posts.jsonl")])
    assert code == 0
    assert (target / "corpus.jsonl").is_file()


def test_synth_into_workspace_records_stage(tmp_path):
    ws = tmp_path / "ws"
    assert main(["synth", "--workspace", str(ws), "--seed", "1", "--communities", "2",
                 "--actors", "4", "--capecs", "6"]) == 0
    manifest = json.loads((ws / "manifest.json").read_text())
    assert {stage: entry["config"] for stage, entry in manifest["stages"].items()} == {
        "synth": {"synth_seed": 1, "communities": 2, "actors": 4, "capecs": 6, "noise": 0.05},
    }
    assert (ws / "synth" / "posts.jsonl").is_file()

    # Writing elsewhere records nothing: the workspace gets no manifest.
    elsewhere = tmp_path / "elsewhere"
    ws2 = tmp_path / "ws2"
    assert main(["synth", "--workspace", str(ws2), "--out", str(elsewhere), "--seed", "1",
                 "--communities", "2", "--actors", "4", "--capecs", "6"]) == 0
    assert (elsewhere / "posts.jsonl").is_file()
    assert not (ws2 / "manifest.json").exists()


def test_synth_out_naming_the_workspace_synth_dir_records_stage(tmp_path, monkeypatch):
    flags = ["--seed", "1", "--communities", "2", "--actors", "4", "--capecs", "6"]
    assert main(["synth", "--workspace", str(tmp_path / "default"), *flags]) == 0
    default = json.loads((tmp_path / "default" / "manifest.json").read_text())["stages"]["synth"]
    assert len(default["artifacts"]) == 4

    # a relative --out, from the directory that holds the workspace, is its synth/ all the same
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--workspace", str(tmp_path / "ws"), "--out", "ws/synth", *flags]) == 0
    manifest = json.loads((tmp_path / "ws" / "manifest.json").read_text())
    assert list(manifest["stages"]) == ["synth"]
    assert manifest["stages"]["synth"]["artifacts"] == default["artifacts"]

    # an --out outside the workspace still records nothing
    assert main(["synth", "--workspace", str(tmp_path / "ws2"), "--out", "elsewhere", *flags]) == 0
    assert (tmp_path / "elsewhere" / "posts.jsonl").is_file()
    assert not (tmp_path / "ws2" / "manifest.json").exists()


def test_cluster_skips_tiny_sample(tmp_path):
    # Two committed actors: enough posts to survive sampling, too few actors
    # to cluster. The stage must succeed and record the skip.
    posts = tmp_path / "posts.jsonl"
    rows = []
    for actor, cve in (("ann", "CVE-2021-0001"), ("ben", "CVE-2021-0002")):
        for i in range(5):
            rows.append(
                json.dumps(
                    {
                        "post_id": f"{actor}-{i}",
                        "actor_id": actor,
                        "forum_id": "f1",
                        "timestamp": f"2021-02-0{i + 1}T12:00:00Z",
                        "content": f"notes on {cve}",
                    }
                )
            )
    posts.write_text("\n".join(rows) + "\n")

    cve_cwe = tmp_path / "cve_cwe.csv"
    cve_cwe.write_text(
        "cve_id,cwe_id\nCVE-2021-0001,CWE-79\nCVE-2021-0002,CWE-89\n"
    )
    capec_json = tmp_path / "capec.json"
    capec_json.write_text(
        json.dumps(
            [
                {"id": 63, "name": "XSS", "related_cwes": ["CWE-79"],
                 "skill_scenarios": ["Low"]},
                {"id": 66, "name": "SQLi", "related_cwes": ["CWE-89"],
                 "skill_scenarios": ["High"]},
            ]
        )
    )

    ws = tmp_path / "ws"
    code = main(
        [
            "run-all",
            "--workspace", str(ws),
            "--posts", str(posts),
            "--cve-cwe", str(cve_cwe),
            "--capec-json", str(capec_json),
        ]
    )
    assert code == 0
    clusters = json.loads((ws / "clusters.json").read_text())
    assert clusters["skipped"] is True
    assert clusters["n_sample"] == 2
    assert "clustering skipped" in (ws / "report.txt").read_text()
    assert json.loads((ws / "report.json").read_text())["quadrant_shares"] == {}


def _sample(rows: list[str]) -> bytes:
    return ("actor_id,community_id,skill_score,commitment_pct,n_posts,activity_days,"
            "activity_rate,one_timer\n" + "".join(f"{row}\n" for row in rows)).encode()


@pytest.mark.parametrize(
    "rows, flags, reason",
    [
        (
            [f"a{i},0,3.0,50.0,5,10,0.5,false" for i in range(4)], [],
            "no k in range produced 2 or more distinct clusters",
        ),
        (
            [f"a{i},0,{i % 3 + 1}.0,50.0,{i + 4},10,0.5,false" for i in range(4)], ["--k-min", "5"],
            "sample of 4 actor(s) is too small to cluster",
        ),
    ],
    ids=["identical-rows", "below-k-min"],
)
def test_cluster_skips_a_sample_it_cannot_split(pipeline_ws, tmp_path, rows, flags, reason):
    ws = tmp_path / "ws"
    shutil.copytree(pipeline_ws, ws)
    (ws / "sample.csv").write_bytes(_sample(rows))
    assert main(["cluster", "--workspace", str(ws), "--force", *flags]) == 0
    assert (ws / "clusters.json").read_text() == (
        '{\n  "n_sample": 4,\n  "reason": "' + reason + '",\n  "skipped": true\n}\n'
    )


def test_cluster_exits_1_on_any_other_fault(pipeline_ws, tmp_path, caplog, monkeypatch):
    # only sweep_k's verdict that no k splits the sample is a skip
    from forumlens import cluster

    def fails(*args, **kwargs):
        raise ValidationError("restarts must be >= 1: 0")

    monkeypatch.setattr(cluster, "sweep_k", fails)
    ws = tmp_path / "ws"
    shutil.copytree(pipeline_ws, ws)
    before = (ws / "clusters.json").read_bytes()
    caplog.clear()
    assert main(["cluster", "--workspace", str(ws)]) == 1
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
        "restarts must be >= 1: 0"
    ]
    assert (ws / "clusters.json").read_bytes() == before


RUN_ALL = ["run-all", "--posts", "p.jsonl", "--cve-cwe", "c.csv", "--capec-json", "c.json"]

# each refused flag, by test id: the command line and the one error line it gives
BAD_FLAGS = {
    "capec-threshold-0": (["graph", "--capec-threshold", "0"],
                          "--capec-threshold must be >= 1: 0"),
    "restarts-0": (["communities", "--restarts", "0"], "--restarts must be >= 1: 0"),
    "min-posts-0": (["expertise", "--min-posts", "0"], "--min-posts must be >= 1: 0"),
    "skill-percentile-0": (["expertise", "--skill-percentile", "0"],
                           "--skill-percentile must be in (0, 100]: 0"),
    "skill-percentile-101": (["expertise", "--skill-percentile", "101"],
                             "--skill-percentile must be in (0, 100]: 101"),
    "k-min-1": (["cluster", "--k-min", "1"], "--k-min must be >= 2: 1"),
    "k-max-below-k-min": (["cluster", "--k-min", "3", "--k-max", "2"],
                          "--k-max must be >= --k-min: 2"),
    "cluster-restarts-0": (["cluster", "--cluster-restarts", "0"],
                           "--cluster-restarts must be >= 1: 0"),
    "cluster-seed-negative": (["cluster", "--seed", "-1"], "--seed must be >= 0: -1"),
    "communities-seed-negative": (["communities", "--seed", "-7"], "--seed must be >= 0: -7"),
    "run-all-capec-threshold-0": ([*RUN_ALL, "--capec-threshold", "0"],
                                  "--capec-threshold must be >= 1: 0"),
    "run-all-restarts-0": ([*RUN_ALL, "--restarts", "0"], "--restarts must be >= 1: 0"),
    "run-all-min-posts-0": ([*RUN_ALL, "--min-posts", "0"], "--min-posts must be >= 1: 0"),
    "run-all-skill-percentile-101": ([*RUN_ALL, "--skill-percentile", "101"],
                                     "--skill-percentile must be in (0, 100]: 101"),
    "run-all-k-min-1": ([*RUN_ALL, "--k-min", "1"], "--k-min must be >= 2: 1"),
    "run-all-k-max-below-k-min": ([*RUN_ALL, "--k-min", "3", "--k-max", "2"],
                                  "--k-max must be >= --k-min: 2"),
    "run-all-cluster-restarts-0": ([*RUN_ALL, "--cluster-restarts", "0"],
                                   "--cluster-restarts must be >= 1: 0"),
    "run-all-cluster-seed-negative": ([*RUN_ALL, "--cluster-seed", "-1"],
                                      "--cluster-seed must be >= 0: -1"),
    "run-all-seed-negative": ([*RUN_ALL, "--seed", "-7"], "--seed must be >= 0: -7"),
    "run-all-half-catalog-pair": (RUN_ALL[:5], "--cve-cwe and --capec-json must be given together"),
}


@pytest.mark.parametrize("case", list(BAD_FLAGS))
def test_bad_flag_exits_1_before_anything_is_read(tmp_path, monkeypatch, caplog, case):
    argv, message = BAD_FLAGS[case]
    opened = []
    monkeypatch.setattr(Workspace, "require", lambda self, name: opened.append(name))
    monkeypatch.setattr(ingest, "ingest_posts", lambda path, out: opened.append(path))
    ws = tmp_path / "ws"
    assert main([argv[0], "--workspace", str(ws), *argv[1:]]) == 1
    assert opened == []
    assert not ws.exists()  # the lock was never taken
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [message]


def _options(parser: argparse.ArgumentParser) -> list[tuple]:
    """Each option of a subcommand's parser, as (names, dest, default, type, required, help)."""
    return [
        (tuple(a.option_strings), a.dest, a.default, a.type, a.required, a.help)
        for a in parser._actions if a.dest != "help"
    ]


def test_run_all_takes_every_pipeline_stage_option_and_each_command_prints_help(capsys):
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    commands = sub.choices
    common = _options(commands["report"])  # report takes only the flags every command takes
    # cluster's --seed is --cluster-seed in run-all, where communities' --seed keeps its name
    renamed = {("--seed", "cluster_seed"): ("--cluster-seed",)}
    expected = common + [
        (renamed.get((names[0], dest), names), dest, *rest)
        for stage in cli.PIPELINE
        for names, dest, *rest in _options(commands[stage]) if (names, dest, *rest) not in common
    ]
    assert _options(commands["run-all"]) == expected
    assert len({dest for _, dest, *_ in expected}) == len(expected)
    for name in [None, *commands]:
        assert main([name, "--help"] if name else ["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: forumlens")


@pytest.mark.parametrize(
    "flags",
    [["--noise", "0.9"], ["--noise", "-0.1"], ["--actors", "0"], ["--communities", "1"],
     ["--capecs", "5"], ["--seed", "-3"]],
    ids=["noise-0.9", "noise-negative", "actors-0", "communities-1", "capecs-5", "seed-negative"],
)
def test_bad_synth_flag_exits_1_before_the_lock_is_taken(tmp_path, monkeypatch, caplog, flags):
    monkeypatch.setattr(synth, "generate", lambda config: pytest.fail("generate was called"))
    ws = tmp_path / "new"
    assert main(["synth", "--workspace", str(ws), *flags]) == 1
    assert not ws.exists()  # no lock file left behind
    [error] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert flags[1] in error.getMessage()


def test_corrupt_manifest_exits_1_without_traceback(tmp_path, caplog):
    ws = tmp_path / "ws"
    posts = tmp_path / "posts.jsonl"
    posts.write_text("")
    assert main(["ingest", "--workspace", str(ws), "--posts", str(posts)]) == 0
    manifest = ws / "manifest.json"
    manifest.write_bytes(manifest.read_bytes()[:50])

    src = str(Path(forumlens.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "forumlens", "ingest", "--workspace", str(ws), "--posts", str(posts)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "manifest.json" in result.stderr and "re-run" in result.stderr
    # valid JSON without a "stages" object is just as unusable
    manifest.write_text("[]\n")
    assert main(["graph", "--workspace", str(ws)]) == 1
    assert "manifest.json is not a valid manifest" in caplog.text


@pytest.mark.parametrize("verbose", [False, True])
def test_unexpected_error_exits_1_with_one_line(monkeypatch, caplog, tmp_path, verbose):
    def broken_stage(ws, args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_report", broken_stage)
    argv = ["report", "--workspace", str(tmp_path)] + (["-v"] if verbose else [])
    assert main(argv) == 1
    assert "error: RuntimeError: boom" in caplog.text
    # the traceback is logged only under -v
    assert ("Traceback" in caplog.text) == verbose


@pytest.mark.parametrize("token", ["CVE-2021-0000", "CVE-0999-1234"])
def test_ingest_skips_an_invalid_cve_token_in_content(tmp_path, token):
    posts = tmp_path / "posts.jsonl"
    rows = [
        {"post_id": "p1", "actor_id": "a", "forum_id": "f",
         "timestamp": "2021-01-01T00:00:00Z", "content": "see CVE-2021-1234"},
        {"post_id": "p2", "actor_id": "b", "forum_id": "f",
         "timestamp": "2021-01-02T00:00:00Z", "content": f"typo {token}"},
    ]
    posts.write_text("".join(json.dumps(row) + "\n" for row in rows))
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--posts", str(posts)]) == 0
    assert json.loads((ws / "corpus_stats.json").read_text())["posts"] == 1


@pytest.mark.parametrize("change", ["edit", "regraph"])
def test_export_graph_refuses_a_stale_partition(pipeline_ws, tmp_path, caplog, change):
    ws = tmp_path / "ws"
    shutil.copytree(pipeline_ws, ws)
    if change == "edit":
        data = json.loads((ws / "communities.json").read_text())
        data["modularity"] = 0.0
        (ws / "communities.json").write_text(json.dumps(data))
    else:
        assert main(["graph", "--workspace", str(ws), "--capec-threshold", "5"]) == 0
    out = tmp_path / "exported.csv"
    argv = ["export-graph", "--workspace", str(ws), "--format", "csv", "--out", str(out)]

    caplog.clear()
    assert main(argv) == 1
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "'communities'" in errors[0].getMessage()
    assert not out.exists()
    assert main(argv + ["--force"]) == 0
    assert out.is_file()


# the artifacts each downstream stage opens
STAGE_READS = {
    "communities": {"capec_posts.json", "cve_cwe.csv", "capec.json"},
    "expertise": {"capec_posts.json", "communities.json", "cve_cwe.csv", "capec.json"},
    "cluster": {"sample.csv"},
    "report": {
        "corpus_stats.json", "graph_stats.json", "removal.json", "communities.json",
        "sample_stats.json", "clusters.json",
    },
}


@pytest.mark.parametrize("stage", list(STAGE_READS))
def test_stage_hashes_only_what_it_opens_and_writes(pipeline_ws, tmp_path, monkeypatch, stage):
    ws = tmp_path / "ws"
    shutil.copytree(pipeline_ws, ws)
    hashed = []
    real = workspace.sha256_file

    def recording(path):
        hashed.append(Path(path).relative_to(ws).as_posix())
        return real(path)

    monkeypatch.setattr(workspace, "sha256_file", recording)
    assert main([stage, "--workspace", str(ws)]) == 0
    assert sorted(hashed) == sorted(STAGE_READS[stage] | set(STAGE_ARTIFACTS[stage]))
    assert "corpus.jsonl" not in hashed
    inputs = json.loads((ws / "manifest.json").read_text())["stages"][stage]["inputs"]
    assert set(inputs) == STAGE_READS[stage]


def test_corpus_edit_leaves_communities_running_and_graph_refusing(pipeline_ws, tmp_path):
    ws = tmp_path / "ws"
    shutil.copytree(pipeline_ws, ws)
    before = (ws / "communities.json").read_bytes()
    with (ws / "corpus.jsonl").open("a") as handle:
        handle.write("\n")
    assert main(["communities", "--workspace", str(ws)]) == 0
    assert (ws / "communities.json").read_bytes() == before
    assert main(["graph", "--workspace", str(ws)]) == 1


@pytest.mark.parametrize("state", ["recorded-but-missing", "unrecorded-stray-file"])
def test_export_graph_takes_the_partition_from_the_manifest(pipeline_ws, tmp_path, caplog, state):
    ws = tmp_path / "ws"
    shutil.copytree(pipeline_ws, ws)
    argv = ["export-graph", "--workspace", str(ws), "--format", "csv", "--out"]
    if state == "recorded-but-missing":
        (ws / "communities.json").unlink()
        caplog.clear()
        assert main(argv + [str(tmp_path / "out.csv")]) == 2
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "'communities'" in errors[0].getMessage()
        assert not (tmp_path / "out.csv").exists()
    else:
        # the graph alone, then a communities.json that no recorded stage wrote
        workspace = Workspace(ws)
        manifest = workspace.load_manifest()
        del manifest["stages"]["communities"]
        workspace.save_manifest(manifest)
        stray = (ws / "communities.json").read_bytes()
        (ws / "communities.json").unlink()
        assert main(argv + [str(tmp_path / "plain.csv")]) == 0
        (ws / "communities.json").write_bytes(stray)
        assert main(argv + [str(tmp_path / "out.csv")]) == 0
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_run_all_holds_one_lock_from_first_stage_to_last(tmp_path, monkeypatch):
    inputs = _synth_inputs(tmp_path)
    ws = tmp_path / "ws"
    probe = (
        "import fcntl, sys\n"
        "with open(sys.argv[1], 'a') as handle:\n"
        "    try:\n"
        "        fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)\n"
        "    except BlockingIOError:\n"
        "        sys.exit(7)\n"
    )
    real, codes = cli.cmd_graph, []

    def graph_stage(stage_ws, args):
        # between convert-catalog and graph another process tries to take the lock
        child = subprocess.run([sys.executable, "-c", probe, str(ws / ".lock")], timeout=60)
        codes.append(child.returncode)
        return real(stage_ws, args)

    monkeypatch.setattr(cli, "cmd_graph", graph_stage)
    assert _run_all(ws, inputs) == 0
    assert codes == [7]


def test_run_all_records_each_stage_config_and_prints_one_line_per_stage(tmp_path, capsys):
    inputs = _synth_inputs(tmp_path)
    capsys.readouterr()
    ws = tmp_path / "ws"
    assert _run_all(
        ws, inputs, "--capec-threshold", "6", "--seed", "2", "--restarts", "3",
        "--min-posts", "2", "--skill-percentile", "50", "--k-min", "2", "--k-max", "4",
        "--cluster-seed", "5", "--cluster-restarts", "2",
    ) == 0
    manifest = json.loads((ws / "manifest.json").read_text())
    assert {stage: entry["config"] for stage, entry in manifest["stages"].items()} == {
        "ingest": {"posts": str(inputs / "posts.jsonl"), "skipped_lines": 0},
        "convert-catalog": {
            "cve_cwe": str(inputs / "cve_cwe.csv"), "capec_json": str(inputs / "capec.json"),
        },
        "graph": {"capec_threshold": 6},
        "communities": {"seed": 2, "restarts": 3},
        "expertise": {"min_posts": 2, "skill_percentile": 50},
        "cluster": {"k_min": 2, "k_max": 4, "cluster_seed": 5, "cluster_restarts": 2},
        "report": {},
    }
    assert capsys.readouterr().out.splitlines() == [
        "ingested 294 posts from 24 actors (3 forums, 54 distinct CVEs)",
        "catalog snapshot: 54 CVEs, 18 CAPECs",
        "graph: 24 actors, 10 CAPECs, 57 edges (removed 8 CAPECs, 0 actors)",
        "communities: 4 at modularity 0.5766",
        "profiles: 24 actors, sample keeps 24",
        "clusters: k=4, silhouette 0.7881",
        "  cluster 0: 7 actors, Professional (Active)",
        "  cluster 1: 10 actors, AverageCareerCriminal (Active)",
        "  cluster 2: 5 actors, Professional (Active)",
        "  cluster 3: 2 actors, Amateur (Discrete)",
        f"report written: {ws / 'report.json'} and {ws / 'report.txt'}",
    ]


def _own_dests() -> dict[str, list[str]]:
    """Each command's own flag dests, as ``build_parser`` declares them: all but the common ones."""
    common = argparse.ArgumentParser()
    for names, _, spec in cli.COMMON:
        common.add_argument(*names, **spec)
    skip = {action.dest for action in common._actions}
    [commands] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [action.dest for action in parser._actions if action.dest not in skip]
        for name, parser in commands.choices.items()
    }


def test_each_stage_records_the_dests_of_its_own_flags_that_are_set(pipeline_ws, tmp_path):
    own, inputs = _own_dests(), pipeline_ws.parent / "inputs"

    def recorded(ws: Path) -> dict[str, dict]:
        manifest = json.loads((ws / "manifest.json").read_text())
        return {stage: entry["config"] for stage, entry in manifest["stages"].items()}

    def expected(argv: list[str], stages) -> dict[str, dict]:
        given = vars(cli.build_parser().parse_args(argv))
        return {
            stage: {dest: given[dest] for dest in own[stage] if given[dest] is not None}
            | ({"skipped_lines": 0} if stage == "ingest" else {})
            for stage in stages
        }

    run_all = recorded(pipeline_ws)
    assert run_all == expected([
        "run-all", "--posts", str(inputs / "posts.jsonl"),
        "--cve-cwe", str(inputs / "cve_cwe.csv"), "--capec-json", str(inputs / "capec.json"),
    ], cli.PIPELINE)

    ws, want = tmp_path / "each", {}
    argvs = [
        ["synth", "--seed", "1", "--communities", "2", "--actors", "4", "--capecs", "6"],
        *_stage_argvs(inputs, "--capec-threshold", "6"),
    ]
    for argv in argvs:
        assert main([*argv, "--workspace", str(ws)]) == 0, argv
        want |= expected(argv, [argv[0]])
    each = recorded(ws)
    assert each == want
    # cluster's --seed is --cluster-seed under run-all, and both record cluster_seed
    assert {stage: sorted(config) for stage, config in run_all.items()} == {
        stage: sorted(each[stage]) for stage in cli.PIPELINE
    }


def _lock_and_record_calls(source: str) -> list[tuple[str, str]]:
    """(top-level definition, method) of each ``.lock(`` or ``.record_stage(`` call."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("lock", "record_stage")
            ):
                found.append((getattr(top, "name", "<module>"), node.func.attr))
    return found


def test_only_main_locks_the_workspace_and_records_stages():
    package = Path(forumlens.__file__).parent
    sites = [
        (path.name, *call)
        for path in sorted(package.glob("*.py"))
        for call in _lock_and_record_calls(path.read_text(encoding="utf-8"))
    ]
    assert sorted(sites) == [("cli.py", "main", "lock"), ("cli.py", "main", "record_stage")]


@pytest.mark.parametrize("fails", [False, True], ids=["run-all", "failing-stage"])
def test_main_leaves_no_frozen_objects(pipeline_ws, tmp_path, caplog, fails):
    # main switches the collector off for its stages, freezes nothing and restores it
    extra = ("--capec-threshold", "3") if fails else ()
    assert _run_all(tmp_path / "ws", pipeline_ws.parent / "inputs", *extra) == int(fails)
    if fails:
        assert "--capec-threshold 3 removes every CAPEC" in caplog.text
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()


def _cyclic_garbage_per_stage(ws: Path, communities: str, actors: str) -> dict[str, int]:
    """What ``gc.collect()`` finds after each stage, run as its own ``main`` call with
    the collector off: the cycles that stage left behind."""
    inputs = ws / "synth"
    steps = {
        "synth": ["--seed", "41", "--communities", communities, "--actors", actors],
        "ingest": ["--posts", str(inputs / "posts.jsonl")],
        "convert-catalog": ["--cve-cwe", str(inputs / "cve_cwe.csv"),
                            "--capec-json", str(inputs / "capec.json")],
        **dict.fromkeys(cli.PIPELINE[2:], []),
    }
    found = {}
    for stage, flags in steps.items():
        gc.collect()  # what earlier code left is no stage's
        gc.disable()
        try:
            assert main([stage, "--workspace", str(ws), *flags]) == 0, stage
            found[stage] = gc.collect()
        finally:
            gc.enable()
    return found


def test_no_stage_leaves_cyclic_garbage_that_grows_with_its_input(tmp_path):
    # with the collector off for a stage, its cycles stay until the next collection;
    # the few hundred from imports and the CLI are fixed, but a leak of one cycle per
    # actor would grow by 300 from 100 actors to 400
    small = _cyclic_garbage_per_stage(tmp_path / "small", "4", "25")
    large = _cyclic_garbage_per_stage(tmp_path / "large", "4", "100")
    assert max(*small.values(), *large.values()) <= 1000, (small, large)
    assert {s: n for s, n in large.items() if n > small[s] + 50} == {}, (small, large)


def _padded_posts(inputs: Path, path: Path, n: int, pad: int) -> int:
    """Write ``n`` posts that take their actor, time and mentions from the synth posts
    in turn and carry ``pad`` characters of content each; returns the content's size."""
    rows = [json.loads(line) for line in (inputs / "posts.jsonl").read_text().splitlines()]
    with path.open("w", encoding="utf-8") as handle:
        for i in range(n):
            row = dict(rows[i % len(rows)], post_id=f"p{i:05d}")
            row["content"] = f"{row['content']} {'x' * pad}"[:pad]
            handle.write(json.dumps(row) + "\n")
    return n * pad


def _peak_bytes(argv: list[str]) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0, argv
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ingest_and_graph_never_hold_the_corpus_text(pipeline_ws, tmp_path):
    inputs = pipeline_ws.parent / "inputs"
    posts = tmp_path / "posts.jsonl"
    content = _padded_posts(inputs, posts, 2000, 8192)
    ws = str(tmp_path / "ws")
    catalog_flags = [
        "--cve-cwe", str(inputs / "cve_cwe.csv"), "--capec-json", str(inputs / "capec.json"),
    ]
    assert main(["convert-catalog", "--workspace", ws, *catalog_flags]) == 0
    # each stage in its own command, so graph reads corpus.jsonl line by line
    ingest_peak = _peak_bytes(["ingest", "--workspace", ws, "--posts", str(posts)])
    graph_peak = _peak_bytes(["graph", "--workspace", ws])
    assert json.loads((tmp_path / "ws" / "corpus_stats.json").read_text())["posts"] == 2000
    assert ingest_peak < content / 10, ingest_peak
    assert graph_peak < content / 10, graph_peak


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
def test_ingest_from_a_pipe_never_holds_the_corpus_text(pipeline_ws, tmp_path):
    inputs = pipeline_ws.parent / "inputs"
    posts = tmp_path / "posts.jsonl"
    content = _padded_posts(inputs, posts, 2000, 8192)
    fifo = tmp_path / "posts.fifo"
    os.mkfifo(fifo)
    ws = tmp_path / "ws"
    catalog_flags = [
        "--cve-cwe", str(inputs / "cve_cwe.csv"), "--capec-json", str(inputs / "capec.json"),
    ]
    assert main(["convert-catalog", "--workspace", str(ws), *catalog_flags]) == 0

    def write() -> None:  # 64 KiB at a time, so the writer's buffer stays small
        with posts.open("rb") as source, fifo.open("wb") as sink:
            shutil.copyfileobj(source, sink, 1 << 16)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    peak = _peak_bytes(["ingest", "--workspace", str(ws), "--posts", str(fifo)])
    writer.join(timeout=60)
    assert not writer.is_alive()
    assert json.loads((ws / "corpus_stats.json").read_text())["posts"] == 2000
    assert peak < content / 10, peak
    # the same corpus as from the file
    assert main(["ingest", "--workspace", str(tmp_path / "file"), "--posts", str(posts)]) == 0
    assert (ws / "corpus.jsonl").read_bytes() == (tmp_path / "file" / "corpus.jsonl").read_bytes()


def test_ingest_refuses_a_duplicate_post_id_on_the_last_line(pipeline_ws, tmp_path, caplog):
    inputs = pipeline_ws.parent / "inputs"
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--posts", str(inputs / "posts.jsonl")]) == 0
    before = (ws / "corpus.jsonl").read_bytes()
    lines = (inputs / "posts.jsonl").read_text().splitlines(keepends=True)
    posts = tmp_path / "posts.jsonl"
    posts.write_text("".join(lines[1:]) + lines[-1])

    caplog.clear()
    assert main(["ingest", "--workspace", str(ws), "--posts", str(posts)]) == 1
    [error] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error.startswith("duplicate post_id: ")
    assert (ws / "corpus.jsonl").read_bytes() == before
    assert not list(ws.glob("*.tmp"))
