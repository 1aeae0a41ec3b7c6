"""Guards on the shape of the package source."""

from __future__ import annotations

import ast
from pathlib import Path

import forumlens

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
