"""Tests for the summary of tools/bench_pairs.py, on fixed numbers, and for its line count."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "modularity", "better": "higher"}]


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
        # inclusive quartiles of 1, 2, 3, 4; the first and third pairs ran faster
        "wall_s: 2.5 [1.75, 3.25] -> 2.7, change won 2/4",
        # higher is better, and the tie in the first pair counts for neither side
        "modularity: 0.5 [0.475, 0.525] -> 0.55, change won 2/4",
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
        "wall_s: 2.5 [2.25, 2.75] -> 1, change won 1/3",
        "modularity: 0.5 [0.5, 0.5] -> 0.55, change won 0/3",
    ]


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
