"""Property: a corrupted JSON artifact fails its readers by name, never as an exception.

One synthetic S workspace (4 communities of 25 actors) is built once. Each
example takes one JSON artifact, drops a key, swaps a value's type or
truncates the file, then runs every stage that reads it with ``--force``, each
on its own copy of the workspace. A second property drops or swaps one node of
the partition in ``communities.json``. The stage may succeed (exit 0) or refuse
the file (exit 1) with one error line that names it; it never exits with
another code, prints ``error: <ExceptionName>`` or logs a traceback, and a
truncated file is always refused. A CSV file with a byte that is no UTF-8, or a
field over the csv module's size limit, is always refused the same way.
"""

from __future__ import annotations

import json
import logging
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumlens.cli import main
from forumlens.cluster import feature_matrix
from forumlens.errors import ValidationError
from forumlens.expertise import PROFILE_COLUMNS, load_profiles

# each JSON file a stage opens, and the stages that open it
READERS = {
    "graph.json": ("export-graph",),
    "capec_posts.json": ("communities", "expertise"),
    "capec.json": ("graph", "communities", "expertise"),
    "communities.json": ("expertise", "export-graph", "report"),
    "clusters.json": ("report",),
    "corpus_stats.json": ("report",),
    "graph_stats.json": ("report",),
    "removal.json": ("report",),
    "sample_stats.json": ("report",),
    "manifest.json": ("communities", "report"),
}

# one value of each JSON type; a swap puts one of another type in place
SWAPS = (None, True, 7, 0.5, "x", [1], {"k": 1})


@pytest.fixture(scope="session")
def s_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("corrupt")
    ws = root / "ws"
    assert main(["synth", "--workspace", str(ws), "--seed", "41"]) == 0
    synth = ws / "synth"
    assert main([
        "run-all", "--workspace", str(ws), "--posts", str(synth / "posts.jsonl"),
        "--cve-cwe", str(synth / "cve_cwe.csv"), "--capec-json", str(synth / "capec.json"),
    ]) == 0
    return ws


class _Errors(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


def _run(ws: Path, stage: str) -> tuple[int, list[logging.LogRecord]]:
    """Exit code and error records of ``stage --force`` on ``ws``."""
    handler = _Errors()
    logger = logging.getLogger("forumlens")
    logger.addHandler(handler)
    try:
        return main([stage, "--workspace", str(ws), "--force"]), handler.records
    finally:
        logger.removeHandler(handler)


def _places(holder: dict | list, key: object, depth: int) -> list[tuple[dict | list, object]]:
    """``(holder, key)`` and every place up to ``depth`` levels below ``holder[key]``."""
    value = holder[key]
    places = [(holder, key)]
    if depth and isinstance(value, (dict, list)):
        for inner in value if isinstance(value, dict) else range(len(value)):
            places += _places(value, inner, depth - 1)
    return places


def _corrupt(name: str, original: bytes, how: str, data: st.DataObject) -> bytes:
    if how == "truncate":
        # the file ends with "}\n" or "]\n": every shorter cut is invalid JSON
        return original[: data.draw(st.integers(0, len(original) - 2), label="cut")]
    payload = json.loads(original)
    tops = list(payload.items()) if isinstance(payload, dict) else list(enumerate(payload))
    if how == "drop":
        # a key of the top-level object, or of an element of a top-level list
        holders = [payload] if isinstance(payload, dict) else payload
        holder = data.draw(st.sampled_from([h for h in holders if isinstance(h, dict) and h]))
        del holder[data.draw(st.sampled_from(sorted(holder)), label="key")]
    else:
        # a top-level value, or one level below it; two in the post table, the only
        # graph input of two stages, whose rows hold a timestamp and CAPEC ids
        depth = 2 if name == "capec_posts.json" else 1
        places = [place for key, _ in tops for place in _places(payload, key, depth)]
        holder, key = data.draw(st.sampled_from(places), label="place")
        holder[key] = data.draw(
            st.sampled_from([v for v in SWAPS if type(v) is not type(holder[key])]), label="value"
        )
    return json.dumps(payload).encode()


def _run_readers(
    s_workspace: Path, name: str, corrupted: bytes, stages: tuple[str, ...] | None = None
) -> dict[str, int]:
    """Each reader stage of ``name`` (or each of ``stages``) on its own copy with
    ``corrupted`` in place, by exit code: 0, or 1 with one error line naming the
    file, never an exception."""
    codes = {}
    for stage in stages or READERS[name]:
        with tempfile.TemporaryDirectory() as tmp:
            ws = Path(tmp) / "ws"
            shutil.copytree(s_workspace, ws)
            (ws / name).write_bytes(corrupted)
            code, errors = _run(ws, stage)
        assert code in (0, 1), (stage, [r.getMessage() for r in errors])
        assert all(r.exc_info is None for r in errors), stage
        if code == 1:
            [error] = [r.getMessage() for r in errors]
            assert name in error and not re.match(r"error: \w+", error), (stage, error)
        codes[stage] = code
    return codes


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_corrupted_json_artifact_exits_0_or_1_naming_it(s_workspace, data):
    name = data.draw(st.sampled_from(sorted(READERS)), label="file")
    how = data.draw(st.sampled_from(["drop", "swap", "truncate"]), label="how")
    corrupted = _corrupt(name, (s_workspace / name).read_bytes(), how, data)
    codes = _run_readers(s_workspace, name, corrupted)
    if how == "truncate":
        assert set(codes.values()) == {1}, codes


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_one_corrupted_assignment_node_exits_0_or_1_naming_it(s_workspace, data):
    # the property above drops only top-level keys of communities.json, and a swap
    # there lands on any of its places
    payload = json.loads((s_workspace / "communities.json").read_bytes())
    node = data.draw(st.sampled_from(sorted(payload["assignment"])), label="node")
    swap = data.draw(st.booleans(), label="swap")
    if swap:
        others = [v for v in SWAPS if type(v) is not int]
        payload["assignment"][node] = data.draw(st.sampled_from(others), label="value")
    else:
        del payload["assignment"][node]
    codes = _run_readers(s_workspace, "communities.json", json.dumps(payload).encode())
    if swap:  # int() would move the node at 0.5 or true to another community
        assert codes["expertise"] == codes["export-graph"] == 1, codes


# a row the csv module cannot read: a byte that is no UTF-8, or a field one
# character over its default size limit of 131,072
CSV_FAULTS = {"utf8": b"\xff,x\n", "field": b"x" * 131_073 + b",x\n"}


@pytest.mark.parametrize("fault", sorted(CSV_FAULTS))
def test_a_corrupted_cve_cwe_csv_exits_1_naming_it(s_workspace, tmp_path, fault):
    corrupted = (s_workspace / "cve_cwe.csv").read_bytes() + CSV_FAULTS[fault]
    # the workspace artifact, which --force lets graph read ...
    assert _run_readers(s_workspace, "cve_cwe.csv", corrupted, ("graph",)) == {"graph": 1}
    # ... and the file convert-catalog is given
    given = tmp_path / "given.csv"
    given.write_bytes(corrupted)
    handler = _Errors()
    logging.getLogger("forumlens").addHandler(handler)
    try:
        code = main([
            "convert-catalog", "--workspace", str(tmp_path / "ws"), "--cve-cwe", str(given),
            "--capec-json", str(s_workspace / "capec.json"),
        ])
    finally:
        logging.getLogger("forumlens").removeHandler(handler)
    [error] = [r.getMessage() for r in handler.records]
    assert code == 1 and error.startswith(f"{given}: "), error


# rows save_profiles never writes: a non-finite float, fewer than 1 post or day, a skill
# outside [1, 3], a rate outside (0, n_posts], or a post count too large for a float
PROFILE_ROWS = {
    "inf-commitment": b"zz,0,3.0,inf,5,10,0.5,false\n",
    "huge-commitment": b"zz,0,3.0,1e308,5,10,0.5,false\n",
    "inf-rate": b"zz,0,3.0,50.0,5,10,inf,false\n",
    "nan-skill": b"zz,0,nan,50.0,5,10,0.5,false\n",
    "negative-posts": b"zz,0,3.0,50.0,-5,10,0.5,false\n",
    "zero-days": b"zz,0,3.0,50.0,5,0,0.5,false\n",
    "negative-rate": b"zz,0,3.0,50.0,5,10,-5.0,false\n",
    "zero-rate": b"zz,0,3.0,50.0,5,10,0.0,false\n",
    "rate-above-posts": b"zz,0,3.0,50.0,11,10,1000000.0,false\n",
    "skill-below-1": b"zz,0,0.5,50.0,5,10,0.5,false\n",
    "skill-above-3": b"zz,0,3.5,50.0,5,10,0.5,false\n",
    "posts-too-large-for-a-float": b"zz,0,3.0,50.0,1" + b"0" * 400 + b",10,0.5,false\n",
}
PROFILE_FAULTS = {**CSV_FAULTS, **PROFILE_ROWS}


@pytest.mark.parametrize("fault", sorted(PROFILE_FAULTS))
def test_a_corrupted_sample_csv_exits_1_naming_it(s_workspace, fault):
    corrupted = (s_workspace / "sample.csv").read_bytes() + PROFILE_FAULTS[fault]
    assert _run_readers(s_workspace, "sample.csv", corrupted, ("cluster",)) == {"cluster": 1}


@pytest.mark.parametrize("fault", sorted(PROFILE_FAULTS))
def test_a_corrupted_profiles_csv_is_refused_naming_it(s_workspace, tmp_path, fault):
    # no stage reads profiles.csv back; load_profiles is its reader
    original = (s_workspace / "profiles.csv").read_bytes()
    path = tmp_path / "profiles.csv"
    path.write_bytes(original + PROFILE_FAULTS[fault])
    # a row's fault names its line: the header is line 1
    lines = original.count(b"\n")
    line = f"line {lines + 1}: " if fault in PROFILE_ROWS else ""
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: {line}"):
        load_profiles(path)


def test_a_sample_too_large_to_standardize_exits_1_and_keeps_clusters_json(s_workspace, recwarn):
    # load_profiles accepts a rate of 1e200 from 10**201 posts; its square overflows the std
    header, first, *rest = (s_workspace / "sample.csv").read_bytes().splitlines(keepends=True)
    cells = first.split(b",")
    cells[PROFILE_COLUMNS.index("n_posts")] = b"1" + b"0" * 201
    cells[PROFILE_COLUMNS.index("activity_rate")] = b"1e200"
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp) / "ws"
        shutil.copytree(s_workspace, ws)
        (ws / "sample.csv").write_bytes(b"".join([header, b",".join(cells), *rest]))
        code, errors = _run(ws, "cluster")
        assert (ws / "clusters.json").read_bytes() == (s_workspace / "clusters.json").read_bytes()
    assert code == 1
    assert [r.getMessage() for r in errors] == [
        f"{ws / 'sample.csv'}: feature activity_rate: values too large to standardize"
    ]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_a_repeated_actor_in_sample_csv_exits_1_and_keeps_clusters_json(s_workspace):
    # accepted, ten repeated rows gave clusters whose members summed to 110 of 100 actors
    header, *rows = (s_workspace / "sample.csv").read_bytes().splitlines(keepends=True)
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp) / "ws"
        shutil.copytree(s_workspace, ws)
        (ws / "sample.csv").write_bytes(b"".join([header, *rows, *rows[:10]]))
        code, errors = _run(ws, "cluster")
        assert (ws / "clusters.json").read_bytes() == (s_workspace / "clusters.json").read_bytes()
    actor = rows[0].split(b",")[0].decode()
    assert code == 1
    # the header is line 1, so the first repeat is line len(rows) + 2
    assert [r.getMessage() for r in errors] == [
        f"{ws / 'sample.csv'}: line {len(rows) + 2}: actor_id {actor!r} repeats line 2"
    ]


def test_a_huge_finite_rate_leaves_every_raw_centroid_its_members_mean(s_workspace):
    # a rate of 1e150 (from 10**151 posts) standardizes; mapped back as z * std + mean,
    # the other 99 rates' centroid cancels to -7.1e132, while their mean is about 0.53
    header, first, *rest = (s_workspace / "sample.csv").read_bytes().splitlines(keepends=True)
    cells = first.split(b",")
    cells[PROFILE_COLUMNS.index("n_posts")] = b"1" + b"0" * 151
    cells[PROFILE_COLUMNS.index("activity_rate")] = b"1e150"
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp) / "ws"
        shutil.copytree(s_workspace, ws)
        (ws / "sample.csv").write_bytes(b"".join([header, b",".join(cells), *rest]))
        code, errors = _run(ws, "cluster")
        sample = load_profiles(ws / "sample.csv")
        clusters = json.loads((ws / "clusters.json").read_text())
    assert (code, errors) == (0, [])
    X = feature_matrix(sample)
    labels = np.array([clusters["assignments"][p.actor_id] for p in sample])
    rates = [c["centroid_raw"]["activity_rate"] for c in clusters["clusters"]]
    assert rates == [X[labels == c].mean(axis=0)[2] for c in range(len(rates))]
    assert min(rates) >= 0.0


# the constants json.loads accepts but JSON has not, where a reader wants a number
NON_FINITE = {
    "communities.json": ("modularity", ("expertise", "export-graph", "report")),
    "clusters.json": ("silhouette", ("report",)),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE))
@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_a_non_finite_number_in_a_json_artifact_exits_1_naming_it(s_workspace, name, constant):
    key, stages = NON_FINITE[name]
    original = (s_workspace / name).read_text()
    corrupted = re.sub(f'"{key}": [^,\n]+', f'"{key}": {constant}', original, count=1)
    assert corrupted != original
    codes = _run_readers(s_workspace, name, corrupted.encode(), stages)
    assert set(codes.values()) == {1}, codes
