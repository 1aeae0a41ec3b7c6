"""Guards on the shape of the package source."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import forumlens
import test_acceptance
from forumlens.cli import main
from forumlens.ingest import parse_posts
from test_bench_api import RUN_IMPORTS, TRACED

_WINDOW = 3
_MIN_CHARS = 60
_SKIPPED_STARTS = ("#", '"""', "import", "from")


def _windows(path: Path) -> list[tuple[tuple[str, ...], int]]:
    """Every counted window of stripped lines in ``path``, with its first line number."""
    lines = [line.strip() for line in path.read_text(encoding="utf-8").splitlines()]
    found = []
    for start in range(len(lines) - _WINDOW + 1):
        window = tuple(lines[start:start + _WINDOW])
        if any(not line or line.startswith(_SKIPPED_STARTS) for line in window):
            continue
        if sum(len(line) for line in window) < _MIN_CHARS:
            continue
        found.append((window, start + 1))
    return found


def test_no_code_is_cloned_across_modules():
    # the same 3 lines in two modules are one decision coded twice
    first_seen: dict[tuple[str, ...], tuple[str, int]] = {}
    clones = []
    for path in sorted(Path(forumlens.__file__).parent.glob("*.py")):
        for window, line in _windows(path):
            module, first = first_seen.setdefault(window, (path.name, line))
            if module != path.name:
                clones.append(f"{module}:{first} and {path.name}:{line}: {' / '.join(window)}")
    assert clones == []


def _json_parses(path: Path) -> list[str]:
    """``<file>:<top-level name>`` of each line of ``path`` that calls ``json.load(s)``."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    spans = [(n.lineno, n.end_lineno, getattr(n, "name", "<module>")) for n in tree.body]
    return [
        f"{path.name}:{next((name for lo, hi, name in spans if lo <= i <= hi), '<module>')}"
        for i, line in enumerate(source.splitlines(), 1)
        if "json.load(" in line or "json.loads(" in line
    ]


def test_only_the_workspace_parses_json():
    # workspace.read_json is the one JSON-file reader; ingest parses one corpus line at a time
    package = Path(forumlens.__file__).parent
    parses = [p for path in sorted(package.glob("*.py")) for p in _json_parses(path)]
    assert [p for p in parses if not p.startswith("workspace.py:")] == ["ingest.py:_parse_record"]


def _load_graph_uses(path: Path) -> list[str]:
    """``<file>:<top-level name>:def`` or ``:use`` of each ``load_graph`` in ``path``.

    A use is any reference, so ``ws.load("graph.json", graph.load_graph)`` counts.
    """
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if isinstance(node, ast.FunctionDef) and node.name == "load_graph":
                found.append(f"{path.name}:{node.name}:def")
            elif "load_graph" in (getattr(node, "attr", None), getattr(node, "id", None)):
                found.append(f"{path.name}:{getattr(top, 'name', '<module>')}:use")
    return found


def test_only_export_graph_reads_graph_json():
    # communities and expertise derive the graph from capec_posts.json; graph.json is for tools
    package = Path(forumlens.__file__).parent
    uses = [use for path in sorted(package.glob("*.py")) for use in _load_graph_uses(path)]
    assert uses == ["cli.py:cmd_export_graph:use", "graph.py:load_graph:def"]


def test_post_summaries_take_the_post_table_alone():
    # the cut post table, and the one actor_capecs union its stage derives from it,
    # are the inputs of every post summary
    package = Path(forumlens.__file__).parent
    annotations = {}
    for module, function in (
        ("graph.py", "degree_stats"), ("community.py", "summarize_communities"),
        ("graph.py", "members"), ("expertise.py", "build_profiles"),
    ):
        for node in ast.walk(ast.parse((package / module).read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == function:
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                annotations[function] = [ast.unparse(a.annotation) for a in args if a.annotation]
    assert len(annotations) == 4
    assert [f for f, names in annotations.items() if "ActorCapecs" not in names] == []


def test_the_union_is_the_only_graph_form():
    # every layer takes the actor -> CAPEC union; no module names a second graph form
    package = Path(forumlens.__file__).parent
    named = [path.name for path in sorted(package.glob("*.py"))
             if re.search(r"\b(BimodalGraph|graph_of)\b", path.read_text(encoding="utf-8"))]
    assert named == []


def test_cli_catches_no_key_error():
    # a KeyError is a fault inside a computation; caught in cli, it would be relabelled
    # as artifact trouble, so each stage checks its inputs before it computes instead
    tree = ast.parse(Path(forumlens.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    handlers = [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]
    caught = {
        getattr(name, "id", None) or getattr(name, "attr", None)
        for handler in handlers if handler.type is not None for name in ast.walk(handler.type)
    }
    assert "ValidationError" in caught
    assert caught & {"KeyError", "LookupError"} == set()


def _references(package: Path) -> dict[str, set[str]]:
    """Each function, method and class of the package by name, with the names its body uses.

    A use is any name or attribute, so a call through a module (``ingest.load_corpus``),
    a reference passed along (``ws.load(name, ingest.load_corpus)``) and an annotation
    all count; functions of one name in two modules share one entry.
    """
    uses: dict[str, set[str]] = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = uses.setdefault(node.name, set())
                for inner in ast.walk(node):
                    names.add(getattr(inner, "id", None) or getattr(inner, "attr", None))
    return uses


def _reached(uses: dict[str, set[str]], roots: set[str]) -> set[str]:
    """The entries of ``uses`` that ``roots`` use, directly or through each other."""
    reached, todo = set(), [name for name in roots if name in uses]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(n for n in uses[name] if n in uses)
    return reached


def test_ingest_and_graph_never_reach_a_corpus():
    # the post path streams: ingest writes each post as it checks it, and graph
    # gets the (actor, time, mentions) table; a Corpus holds every post's content
    reached = _reached(_references(Path(forumlens.__file__).parent), {"cmd_ingest", "cmd_graph"})
    assert "ingest_posts" in reached and "load_post_table" in reached
    # a PostRecord is the checked parser's row and lives for one line; a Corpus keeps them all
    assert reached & {"build_corpus", "load_corpus", "Corpus"} == set()


# the top-level names the benchmark in perfbench/ wraps or imports, which keep a name
# that no path from cli.main reaches
PINNED = {qualname.split(".")[0] for _, qualname in TRACED + RUN_IMPORTS}

# the other top-level functions and classes that no path from cli.main reaches, each
# with what keeps it; anything else unreached is dead code
UNREACHED = {
    "ParsedPosts": "parse_posts returns it",
    "modularity": "tests/test_acceptance.py's criterion 3 checks it against the oracle",
}


def test_every_top_level_name_cli_main_never_reaches_has_a_reason():
    # module-level code, report._PARTS say, runs on import, so the names it uses are roots too
    package = Path(forumlens.__file__).parent
    top, roots = set(), {"main"}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top.add(node.name)
            else:
                roots.update(getattr(n, "id", None) or getattr(n, "attr", None)
                             for n in ast.walk(node))
    unreached = top - _reached(_references(package), roots)
    assert sorted(unreached - PINNED) == sorted(UNREACHED)
    # each reason holds: parse_posts is pinned and returns ParsedPosts, and criterion 3
    # calls modularity
    assert "parse_posts" in PINNED
    assert parse_posts.__annotations__["return"] == "ParsedPosts"
    assert "modularity" in test_acceptance.test_criterion_3_modularity_oracle.__code__.co_names


def test_ingest_writes_a_corpus_and_refuses_a_duplicate_in_one_place_each():
    # one line writer serves save_corpus and ingest_posts; one keep rule, the one
    # caller of extract_cve_ids, serves build_corpus, ingest_posts and load_post_table
    tree = ast.parse(Path(forumlens.__file__).with_name("ingest.py").read_text(encoding="utf-8"))
    writes = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "replacing"
    ]
    refusals = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and "duplicate post_id" in ast.unparse(node)
    ]
    extractions = [
        top.name for top in tree.body for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "extract_cve_ids"
    ]
    assert (len(writes), len(refusals), extractions) == (1, 1, ["_kept"])


def _import_time_imports(path: Path) -> set[str]:
    """What importing ``path`` imports: ``numpy`` for ``import numpy as np``, ``.graph``
    for a module of this package; function bodies and ``if TYPE_CHECKING:`` are skipped."""
    found: set[str] = set()
    todo = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [a.name for a in node.names]
            found.update(f".{n}" for n in names if path.with_name(f"{n}.py").is_file())
        todo.extend(ast.iter_child_nodes(node))
    return found


def test_only_the_numpy_stages_import_numpy_and_cli_imports_no_stage():
    # a process imports numpy only for Leiden or k-means, and a stage only when it runs
    package = Path(forumlens.__file__).parent
    modules = sorted(package.glob("*.py"))
    numpy_users = [p.name for p in modules if "numpy" in _import_time_imports(p)]
    assert numpy_users == ["cluster.py", "community.py"]
    own = {name for name in _import_time_imports(package / "cli.py") if name.startswith(".")}
    assert own == {".errors", ".workspace"}


_PROBE = """
import json, sys
from forumlens.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith(("numpy", "forumlens.")))]))
"""


def test_the_stages_that_compute_without_numpy_never_import_it(tmp_path):
    src = str(Path(forumlens.__file__).resolve().parents[1])
    ws, synth = tmp_path / "ws", tmp_path / "ws" / "synth"

    def loaded(*argv: str) -> list[str]:
        result = subprocess.run(
            [sys.executable, "-c", _PROBE, *argv, "--workspace", str(ws)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert result.stdout, (argv, result.stderr)
        code, modules = json.loads(result.stdout.splitlines()[-1])
        assert code == 0, (argv, result.stderr)
        assert "numpy" not in modules, argv
        return modules

    loaded("synth", "--seed", "41")
    loaded("ingest", "--posts", str(synth / "posts.jsonl"))
    loaded("convert-catalog", "--cve-cwe", str(synth / "cve_cwe.csv"),
           "--capec-json", str(synth / "capec.json"))
    loaded("graph")
    assert main(["communities", "--workspace", str(ws)]) == 0
    loaded("expertise")
    assert main(["cluster", "--workspace", str(ws)]) == 0
    assert loaded("report") == [
        "forumlens.cli", "forumlens.errors", "forumlens.report", "forumlens.workspace",
    ]
    loaded("export-graph")
