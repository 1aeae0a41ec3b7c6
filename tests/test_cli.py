"""End-to-end tests of the command-line pipeline and its exit codes."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import forumlens
from forumlens import cli, ingest, workspace
from forumlens.cli import main
from forumlens.graph import load_graph
from forumlens.workspace import STAGE_ARTIFACTS, Workspace

from conftest import read_export


def _synth_inputs(root, seed=3):
    """Generate small synthetic inputs outside any pipeline workspace."""
    out = root / "inputs"
    code = main(
        [
            "synth",
            "--workspace", str(root / "synth-scratch"),
            "--out", str(out),
            "--seed", str(seed),
            "--communities", "3",
            "--actors", "8",
            "--capecs", "6",
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

    monkeypatch.setattr(ingest, "load_corpus", refuse)
    assert main(["communities", "--workspace", str(ws)]) == 0
    assert main(["expertise", "--workspace", str(ws)]) == 0
    assert {name: (ws / name).read_bytes() for name in rerun} == before


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


def test_export_graph_round_trip(pipeline_ws, tmp_path):
    out = tmp_path / "exported.dot"
    code = main(
        ["export-graph", "--workspace", str(pipeline_ws), "--format", "dot", "--out", str(out)]
    )
    assert code == 0
    assert read_export(out, "dot") == load_graph(pipeline_ws / "graph.json")


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
    assert len(errors) == 1
    assert "corpus.jsonl has 1 malformed lines" in errors[0]


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


def test_convert_catalog_argument_validation(tmp_path):
    ws = str(tmp_path / "ws")
    # Neither input pair, or a mixed pair, is a usage error.
    assert main(["convert-catalog", "--workspace", ws]) == 1
    assert main(["convert-catalog", "--workspace", ws, "--nvd-json", "x", "--cve-cwe", "y"]) == 1


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
    assert "synth" in manifest["stages"]
    assert (ws / "synth" / "posts.jsonl").is_file()

    # Writing elsewhere leaves the workspace manifest untouched.
    elsewhere = tmp_path / "elsewhere"
    ws2 = tmp_path / "ws2"
    assert main(["synth", "--workspace", str(ws2), "--out", str(elsewhere), "--seed", "1",
                 "--communities", "2", "--actors", "4", "--capecs", "6"]) == 0
    assert (elsewhere / "posts.jsonl").is_file()
    manifest2 = json.loads((ws2 / "manifest.json").read_text()) if (ws2 / "manifest.json").exists() else {"stages": {}}
    assert "synth" not in manifest2["stages"]


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


def test_single_stage_flags_validated(tmp_path):
    ws = str(tmp_path / "ws")
    assert main(["communities", "--workspace", ws, "--restarts", "0"]) == 1
    assert main(["cluster", "--workspace", ws, "--k-min", "1"]) == 1
    assert main(["cluster", "--workspace", ws, "--k-min", "3", "--k-max", "2"]) == 1


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
        assert main(["graph", "--workspace", str(ws), "--capec-threshold", "3"]) == 0
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
    "communities": {"graph.json", "capec_posts.json", "cve_cwe.csv", "capec.json"},
    "expertise": {
        "graph.json", "capec_posts.json", "communities.json", "cve_cwe.csv", "capec.json",
    },
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
