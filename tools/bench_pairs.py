"""Compare the working tree with a parent revision on benchmark workloads.

    python3 tools/bench_pairs.py --parent HEAD --workload full-L --pairs 8 --seed-base 4001
    python3 tools/bench_pairs.py --parent HEAD --workload chatty --workload full-L \
        --workload rerun-M --pairs 10 --seed-base 4001
    python3 tools/bench_pairs.py --parent HEAD --workload full-L --claim full-L:peak_rss_mb \
        --pairs 10 --seed-base 4001

Run from anywhere inside the repository. It copies ``--parent`` (with ``git
archive``) and the working tree (tracked and untracked files, ignored ones
excluded) into a temporary directory, and removes both copies at the end.
For each ``--workload`` in turn, pair ``i`` runs ``perfbench/run.py
--workload NAME --seed S+i --seconds 10 --trace 0`` in each copy, one process
at a time; the parent runs first in even pairs and second in odd ones. Each
run's result is the last line it prints.

Above the summaries it prints the line count of ``src/forumlens/*.py`` in
each copy, the design metric that a change should lower, and beside it the
count of code lines, which an edit to comments or docstrings cannot move,
and below them each module whose code lines changed, as ``ingest.py: 286 ->
267``.
Then, one block per workload, for each end-to-end metric of
``BENCHMARK.json`` it prints the parent's median [Q1, Q3], the change's
median, the pairs the change won (ties count for neither side) and a
verdict, by the metric's ``bound`` (a fraction of the parent's median):

- ``gain``: the change won at least nine tenths of the pairs run, and its
  median is better than the parent's by more than the parent's Q3 - Q1;
- ``worse``: the change's median is worse than the parent's by more than the
  bound;
- ``unresolved``: the parent's Q3 - Q1 is wider than the bound;
- ``no resolved change``: none of these.

A run that exits non-zero, prints no result or reports itself incorrect is
listed by seed and side, and its pair counts as won by neither; its metrics
stay out of the medians. The exit code is 1 when any run of any workload was
listed or any metric's verdict on any workload is ``worse``: a change must be
no worse on every workload. ``--claim WORKLOAD:METRIC`` names a gain the
change claims, a workload and an end-to-end metric of ``BENCHMARK.json``
(the workload is run if ``--workload`` does not give it): its verdict is
printed after the blocks, and the exit code is 1 too unless that verdict is
``gain``. Standard library only; nothing is written inside the repository.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

SIDES = ("parent", "change")

# a run's outcome: its metric values, or the reason it gave none
Outcome = dict[str, float] | str


def _git(repo: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True).stdout


def copy_revision(repo: Path, rev: str, dest: Path) -> None:
    """The files of ``rev`` under ``dest``, as ``git archive`` writes them."""
    archive = dest.with_suffix(".tar")
    _git(repo, "archive", "--format=tar", "-o", str(archive), rev)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def copy_worktree(repo: Path, dest: Path) -> None:
    """The working tree's tracked and untracked files, ignored ones left out."""
    listed = _git(repo, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        source = repo / name
        if source.is_file():  # a tracked file deleted in the tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def src_lines(copy: Path) -> int:
    """The lines of ``src/forumlens/*.py`` under ``copy``, counted as ``wc -l`` does."""
    return sum(path.read_bytes().count(b"\n") for path in (copy / "src" / "forumlens").glob("*.py"))


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def module_code_lines(copy: Path) -> dict[str, int]:
    """The code lines of each ``src/forumlens/*.py`` under ``copy``, by file name: lines
    that are not blank, not comment-only and not inside a module, class or function
    docstring."""
    counts = {}
    for path in (copy / "src" / "forumlens").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        lines: set[int] = set()
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
                lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        counts[path.name] = len(lines)
    return counts


def code_lines(copy: Path) -> int:
    """The code lines of ``src/forumlens/*.py`` under ``copy``, as
    :func:`module_code_lines` counts them."""
    return sum(module_code_lines(copy).values())


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> Outcome:
    """The end-to-end metrics of one benchmark run, or why it gave none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=copy, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0:
        tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return f"exit {done.returncode}: {tail}"
    try:
        result = json.loads(lines[-1])
        values = {name: float(m["value"]) for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError) as exc:
        return f"no result line: {exc!r}"
    if not result.get("correct") or result.get("failed"):
        return f"incorrect: {result.get('failed')}/{result.get('attempted')} operations failed"
    return values


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(parent: list[float], change: list[float], won: int, pairs: int, sign: int,
            bound: float) -> str:
    """The verdict on one metric: ``sign`` is 1 where lower is better and -1 where
    higher is, and ``bound`` the worsening allowed, as a fraction of the parent's median."""
    base = statistics.median(parent)
    better = sign * (base - statistics.median(change))  # > 0 where the change's median is better
    q1, q3 = _quartiles(parent)
    allowed = bound * abs(base)
    if 10 * won >= 9 * pairs and better > q3 - q1:
        return "gain"
    if -better > allowed:
        return "worse"
    if q3 - q1 > allowed:
        return "unresolved"
    return "no resolved change"


def summarize(metrics: list[dict], pairs: list[dict[str, Outcome]], seeds: list[int]) -> list[str]:
    """Report lines for ``pairs``, one ``{"parent": outcome, "change": outcome}`` per seed.

    ``metrics`` are the ``end_to_end`` entries of ``BENCHMARK.json``: a name,
    whether ``lower`` or ``higher`` is better, and the ``bound``.
    """
    lines = []
    for seed, pair in zip(seeds, pairs):
        for side in SIDES:
            if isinstance(pair[side], str):
                lines.append(f"FAILED seed {seed} {side}: {pair[side]}")
    whole = [pair for pair in pairs if not any(isinstance(pair[s], str) for s in SIDES)]
    lines.append(
        f"{len(whole)} of {len(pairs)} pairs complete; parent median [Q1, Q3] -> change median"
    )
    for metric in metrics:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        got = {
            side: [p[side][name] for p in pairs if not isinstance(p[side], str)] for side in SIDES
        }
        if not got["parent"] or not got["change"]:
            lines.append(f"{name}: no runs on one side")
            continue
        won = sum(sign * p["change"][name] < sign * p["parent"][name] for p in whole)
        q1, q3 = _quartiles(got["parent"])
        judged = verdict(got["parent"], got["change"], won, len(pairs), sign, metric["bound"])
        lines.append(
            f"{name}: {statistics.median(got['parent']):.6g} [{q1:.6g}, {q3:.6g}] -> "
            f"{statistics.median(got['change']):.6g}, change won {won}/{len(pairs)}: {judged}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, action="append",
                        help="a workload of BENCHMARK.json; give it again for more")
    parser.add_argument("--pairs", type=int, default=10, help="pairs to run (default 10)")
    parser.add_argument("--seed-base", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="a claimed gain; exit 1 unless its verdict is gain")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1: {args.pairs}")
    repo = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    declared = {w["name"] for w in spec["workloads"]}
    for workload in args.workload:
        if workload not in declared:
            parser.error(f"--workload is not declared in BENCHMARK.json: {workload}")
    if args.claim:
        claimed, _, metric = args.claim.partition(":")
        if claimed not in declared or metric not in {m["name"] for m in spec["end_to_end"]}:
            parser.error(f"--claim is no workload and end-to-end metric of BENCHMARK.json: "
                         f"{args.claim}")
        if claimed not in args.workload:
            args.workload.append(claimed)

    seeds = [args.seed_base + i for i in range(args.pairs)]
    blocks = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        copies = {side: Path(tmp) / side for side in SIDES}
        for path in copies.values():
            path.mkdir()
        copy_revision(repo, args.parent, copies["parent"])
        copy_worktree(repo, copies["change"])
        lines_of = {side: src_lines(path) for side, path in copies.items()}
        code_of = {side: module_code_lines(path) for side, path in copies.items()}
        for workload in args.workload:
            pairs: list[dict[str, Outcome]] = []
            for i, seed in enumerate(seeds):
                pair = {}
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    pair[side] = run_once(copies[side], workload, seed, spec["run_seconds"])
                    shown = pair[side] if isinstance(pair[side], str) else json.dumps(pair[side])
                    print(f"{workload} seed {seed} {side}: {shown}", flush=True)
                pairs.append(pair)
            blocks.append((workload, summarize(spec["end_to_end"], pairs, seeds)))
    print(f"src/forumlens lines: {lines_of['parent']} -> {lines_of['change']}, "
          f"code lines: {sum(code_of['parent'].values())} -> {sum(code_of['change'].values())}")
    for name in sorted(code_of["parent"].keys() | code_of["change"].keys()):
        # a module on one side only counts 0 on the other
        before, after = (code_of[side].get(name, 0) for side in SIDES)
        if before != after:
            print(f"{name}: {before} -> {after}")
    for workload, lines in blocks:
        print(f"{workload}, seeds {seeds[0]}-{seeds[-1]}, parent {args.parent}")
        print("\n".join(lines))
    failed = any(line.startswith("FAILED") or line.endswith(": worse")
                 for _, lines in blocks for line in lines)
    if args.claim:
        lines = next(lines for workload, lines in blocks if workload == claimed)
        judged = next(line.rsplit(": ", 1)[-1] for line in lines if line.startswith(f"{metric}: "))
        print(f"claim {args.claim}: {judged}")
        failed = failed or judged != "gain"
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
