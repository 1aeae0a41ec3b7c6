"""Tests for the summary of tools/bench_pairs.py, on fixed numbers, and for its line count."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "modularity", "better": "higher", "bound": 0.15},
]


def _pair(parent, change):
    return {"parent": parent, "change": change}


def test_summary_gives_medians_quartiles_and_pairs_won():
    pairs = [
        _pair({"wall_s": 1.0, "modularity": 0.5}, {"wall_s": 0.5, "modularity": 0.5}),
        _pair({"wall_s": 2.0, "modularity": 0.4}, {"wall_s": 2.5, "modularity": 0.6}),
        _pair({"wall_s": 3.0, "modularity": 0.6}, {"wall_s": 2.9, "modularity": 0.7}),
        _pair({"wall_s": 4.0, "modularity": 0.5}, {"wall_s": 5.0, "modularity": 0.4}),
    ]
    assert bench_pairs.summarize(METRICS, pairs, [11, 12, 13, 14]) == [
        "4 of 4 pairs complete; parent median [Q1, Q3] -> change median",
        # inclusive quartiles of 1, 2, 3, 4; the first and third pairs ran faster, and
        # a spread of 1.5 is wider than 25% of 2.5
        "wall_s: 2.5 [1.75, 3.25] -> 2.7, change won 2/4: unresolved",
        # higher is better, and the tie in the first pair counts for neither side
        "modularity: 0.5 [0.475, 0.525] -> 0.55, change won 2/4: no resolved change",
    ]


def test_a_failed_run_is_listed_and_its_pair_won_by_neither_side():
    pairs = [
        _pair({"wall_s": 3.0, "modularity": 0.5}, "exit 1: boom"),
        _pair({"wall_s": 2.0, "modularity": 0.5}, {"wall_s": 1.0, "modularity": 0.5}),
        _pair("incorrect: 1/9 operations failed", {"wall_s": 1.0, "modularity": 0.6}),
    ]
    assert bench_pairs.summarize(METRICS, pairs, [7, 8, 9]) == [
        "FAILED seed 7 change: exit 1: boom",
        "FAILED seed 9 parent: incorrect: 1/9 operations failed",
        "1 of 3 pairs complete; parent median [Q1, Q3] -> change median",
        "wall_s: 2.5 [2.25, 2.75] -> 1, change won 1/3: no resolved change",
        "modularity: 0.5 [0.5, 0.5] -> 0.55, change won 0/3: no resolved change",
    ]


# ten parent runs of wall_s: median 2.045, inclusive quartiles 2.0225 and 2.0675 (spread 0.045)
_PARENT = [2.0 + 0.01 * i for i in range(10)]


@pytest.mark.parametrize("change, expected", [
    # every pair won, the median 0.5 lower
    ([x - 0.5 for x in _PARENT], "gain"),
    # nine pairs of ten still make a gain
    ([x - 0.5 for x in _PARENT[:9]] + [3.0], "gain"),
    # eight do not, and the change is no worse than the bound
    ([x - 0.5 for x in _PARENT[:8]] + [3.0, 3.0], "no resolved change"),
    # every pair won, but by less than the parent's own spread
    ([x - 0.01 for x in _PARENT], "no resolved change"),
    # the median 0.6 higher, more than 25% of 2.045
    ([x + 0.6 for x in _PARENT], "worse"),
    # 0.5 higher is inside the bound
    ([x + 0.5 for x in _PARENT], "no resolved change"),
], ids=["gain", "gain-9-of-10", "8-of-10", "inside-spread", "worse", "inside-bound"])
def test_each_verdict_on_canned_pairs(change, expected):
    pairs = [_pair({"wall_s": p}, {"wall_s": c}) for p, c in zip(_PARENT, change)]
    [line] = bench_pairs.summarize(METRICS[:1], pairs, list(range(10)))[1:]
    assert line.endswith(f": {expected}"), line


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # median 2.35, quartiles 1.625 and 3.15: a spread of 1.525 against a bound of 0.5875
    parent = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 1.2, 2.2, 3.2]
    pairs = [_pair({"wall_s": p}, {"wall_s": p + 0.1}) for p in parent]
    [line] = bench_pairs.summarize(METRICS[:1], pairs, list(range(10)))[1:]
    assert line.endswith(": unresolved"), line
    # a change worse than the bound is worse, however wide the spread
    pairs = [_pair({"wall_s": p}, {"wall_s": p + 1.0}) for p in parent]
    [line] = bench_pairs.summarize(METRICS[:1], pairs, list(range(10)))[1:]
    assert line.endswith(": worse"), line


def test_where_higher_is_better_a_rise_is_the_gain_and_a_fall_the_loss():
    assert bench_pairs.verdict([0.5] * 10, [0.6] * 10, 10, 10, -1, 0.15) == "gain"
    assert bench_pairs.verdict([0.5] * 10, [0.4] * 10, 0, 10, -1, 0.15) == "worse"
    assert bench_pairs.verdict([0.5] * 10, [0.45] * 10, 0, 10, -1, 0.15) == "no resolved change"


def test_src_lines_counts_the_package_modules_as_wc_does(tmp_path):
    package = tmp_path / "src" / "forumlens"
    package.mkdir(parents=True)
    (package / "a.py").write_text("one\ntwo\n")
    (package / "b.py").write_text("one\ntwo\nthree")  # no final newline: wc -l says 2
    (package / "notes.txt").write_text("not\ncode\n")
    (package / "sub").mkdir()
    (package / "sub" / "c.py").write_text("a subpackage is not counted\n")
    (tmp_path / "tools.py").write_text("outside the package\n")
    assert bench_pairs.src_lines(tmp_path) == 4


def test_code_lines_leaves_out_blanks_comments_and_docstrings(tmp_path):
    package = tmp_path / "src" / "forumlens"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        '"""Module docstring,\n'
        'over two lines."""\n'
        "\n"
        "# a comment-only line\n"
        "import os  # code with a comment counts\n"
        "\n"
        "\n"
        "class A:\n"
        "    '''Class docstring.'''\n"
        "\n"
        "    def f(self, x):\n"
        '        """Function docstring.\n'
        "\n"
        '        """\n'
        "        text = '''a string that is no docstring\n"
        "# counts on each of its lines'''\n"
        "        return (x,\n"
        "                # a comment inside brackets\n"
        "                text)\n"
        "\n"
        "async def g():\n"
        '    """Async function docstring."""\n'
        "    return 1\n"
    )
    (package / "b.py").write_text("x = 1\n    \n")
    (package / "sub").mkdir()
    (package / "sub" / "c.py").write_text("a = 'a subpackage is not counted'\n")
    (tmp_path / "tools.py").write_text("outside = 'the package'\n")
    # a.py: import, class, def, the string's 2 lines, return's 2 code lines, async def, return
    assert bench_pairs.code_lines(tmp_path) == 9 + 1


_RUN = {"setup_s": 1.0, "wall_s": 2.0, "cpu_s": 2.0, "peak_rss_mb": 50.0, "modularity": 0.5,
        "planted_agreement": 0.9, "silhouette": 0.4}


@pytest.mark.parametrize("change, worse, code", [
    (_RUN, [], 0),
    # 0.4 s slower is inside wall_s's bound of 25%
    ({**_RUN, "wall_s": 2.4}, [], 0),
    # 1 s slower is not
    ({**_RUN, "wall_s": 3.0}, ["wall_s"], 1),
    # where higher is better, a fall is worse
    ({**_RUN, "modularity": 0.3}, ["modularity"], 1),
    # a failed run, as before
    ("exit 1: boom", [], 1),
], ids=["equal", "inside-bound", "worse", "worse-higher-is-better", "failed"])
def test_main_exits_1_on_a_worse_verdict_or_a_failed_run(monkeypatch, capsys, change, worse, code):
    # canned runs: no copy is made and no benchmark runs
    monkeypatch.chdir(_PATH.parents[1])
    monkeypatch.setattr(bench_pairs, "copy_revision", lambda repo, rev, dest: None)
    monkeypatch.setattr(bench_pairs, "copy_worktree", lambda repo, dest: None)
    outcomes = {"parent": _RUN, "change": change}
    monkeypatch.setattr(bench_pairs, "run_once", lambda copy, *args: outcomes[copy.name])
    argv = ["--parent", "HEAD", "--workload", "chatty", "--pairs", "3", "--seed-base", "1"]
    assert bench_pairs.main(argv) == code
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if line.endswith(": worse")] == worse


@pytest.mark.parametrize("slow_on, code", [(None, 0), ("chatty", 1), ("rerun-M", 1)])
def test_main_runs_the_pairs_of_each_workload_and_exits_1_if_any_is_worse(
    monkeypatch, capsys, slow_on, code
):
    monkeypatch.chdir(_PATH.parents[1])
    monkeypatch.setattr(bench_pairs, "copy_revision", lambda repo, rev, dest: None)
    monkeypatch.setattr(bench_pairs, "copy_worktree", lambda repo, dest: None)
    runs = []

    def run_once(copy, workload, seed, seconds):
        runs.append((workload, seed, copy.name))
        worse = copy.name == "change" and workload == slow_on
        return {**_RUN, "wall_s": 3.0} if worse else _RUN

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["--parent", "HEAD", "--workload", "chatty", "--workload", "rerun-M",
            "--pairs", "2", "--seed-base", "5"]
    assert bench_pairs.main(argv) == code
    # every pair of the first workload, then every pair of the second, each side alternating
    assert runs == [
        (w, seed, side) for w in ("chatty", "rerun-M")
        for seed, sides in ((5, ("parent", "change")), (6, ("change", "parent")))
        for side in sides
    ]
    out = capsys.readouterr().out.splitlines()
    heads = [i for i, line in enumerate(out) if line.endswith(", seeds 5-6, parent HEAD")]
    assert [out[i].split(",")[0] for i in heads] == ["chatty", "rerun-M"]
    # each block: its pair count, then one verdict line per metric
    for i in heads:
        assert out[i + 1].startswith("2 of 2 pairs complete")
        assert [line.split(":")[0] for line in out[i + 2:i + 2 + len(_RUN)]] == list(_RUN)
    worse = [(out[max(h for h in heads if h < i)].split(",")[0], line.split(":")[0])
             for i, line in enumerate(out) if line.endswith(": worse")]
    assert worse == ([] if slow_on is None else [(slow_on, "wall_s")])


def test_main_refuses_an_undeclared_workload_among_several(monkeypatch, capsys):
    monkeypatch.chdir(_PATH.parents[1])
    argv = ["--parent", "HEAD", "--workload", "chatty", "--workload", "huge", "--seed-base", "1"]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert "--workload is not declared in BENCHMARK.json: huge" in capsys.readouterr().err
