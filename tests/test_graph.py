"""Tests for the bimodal graph, the popularity filter, and serialization."""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from collections import Counter
from datetime import timedelta, timezone
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, strategies as st

import forumlens
from forumlens.community import _index_graph, leiden
from forumlens.errors import ValidationError
from forumlens.graph import (
    Partition,
    actor_capecs,
    build_graph,
    degree_stats,
    export_graph,
    filter_popular_capecs,
    load_graph,
    load_posts,
    node_table,
    post_capec_sets,
    removal_by_skill,
    save_graph,
    save_posts,
    surviving_post_counts,
    surviving_posts,
)
from forumlens.ingest import Corpus, CveId, build_corpus, parse_posts, save_corpus
from forumlens.synth import SynthConfig, generate

from conftest import (
    bigraph, capecs_of, filtered, lines_file, post, post_capec_oracle, read_export, snapshot_from,
    ts,
)


def _star(capec: int, n_actors: int, prefix: str) -> list[tuple[str, int]]:
    return [(f"{prefix}{i}", capec) for i in range(n_actors)]


@pytest.fixture
def corpus_and_snapshot():
    snapshot = snapshot_from(
        cve_to_cwes={
            "CVE-2021-0001": ["CWE-79"],
            "CVE-2021-0002": ["CWE-89"],
            "CVE-2021-0003": [],
        },
        capecs=[(63, "XSS", ["CWE-79"]), (66, "SQLi", ["CWE-89"])],
    )
    corpus = build_corpus(
        [
            post("p1", "alice", "2021-01-01", "poc for CVE-2021-0001"),
            post("p2", "alice", "2021-01-02", "CVE-2021-0002 dump"),
            post("p3", "bob", "2021-01-03", "CVE-2021-0001 again"),
            post("p4", "carol", "2021-01-04", "CVE-2021-0003 unmapped"),
        ]
    )
    return corpus, snapshot


def test_build_graph_set_semantics(corpus_and_snapshot):
    corpus, snapshot = corpus_and_snapshot
    graph = build_graph(corpus, snapshot)
    # carol's only CVE maps to nothing, so she is not a node at all.
    assert graph == {"alice": {63, 66}, "bob": {63}}


def test_build_graph_repeat_mentions_collapse():
    snapshot = snapshot_from(
        cve_to_cwes={"CVE-2021-0001": ["CWE-79"]},
        capecs=[(63, "XSS", ["CWE-79"])],
    )
    corpus = build_corpus(
        [
            post("p1", "alice", "2021-01-01", "CVE-2021-0001"),
            post("p2", "alice", "2021-01-02", "CVE-2021-0001 once more"),
        ]
    )
    graph = build_graph(corpus, snapshot)
    assert graph == {"alice": {63}}


def test_post_capec_sets(corpus_and_snapshot):
    corpus, snapshot = corpus_and_snapshot
    posts = post_capec_sets(corpus.table(), snapshot)
    # carol's p4 resolves to no CAPEC, so neither the post nor carol is listed
    assert posts == {
        "alice": [(ts("2021-01-01"), {63}), (ts("2021-01-02"), {66})],
        "bob": [(ts("2021-01-03"), {63})],
    }
    assert actor_capecs(posts) == build_graph(corpus, snapshot)


_CVE_CWES = {
    "CVE-2021-0001": ["CWE-79"],
    "CVE-2021-0002": ["CWE-89"],
    "CVE-2021-0003": [],
    "CVE-2021-0004": ["CWE-79", "CWE-20"],
}
_CAPEC_CWES = {63: ["CWE-79"], 66: ["CWE-89"], 88: ["CWE-20", "CWE-89"]}

# mention string -> the canonical id it parses to, or None when it does not parse
_MENTIONS = {
    "CVE-2021-0001": "CVE-2021-0001",
    "cve-2021-0001": "CVE-2021-0001",
    "CVE-2021-0002": "CVE-2021-0002",
    "Cve-2021-0002": "CVE-2021-0002",
    "CVE-2021-0003": "CVE-2021-0003",
    "CVE-2021-00004": "CVE-2021-0004",
    " CVE-2021-0004": "CVE-2021-0004",
    "CVE-2020-0009": "CVE-2020-0009",
    "CVE-21-0001": None,
    "CVE-2021-0000": None,
    "not a cve": None,
    "": None,
}


def _interning_snapshot():
    return snapshot_from(_CVE_CWES, [(c, f"capec {c}", cwes) for c, cwes in _CAPEC_CWES.items()])


def _post_line(i: int, actor: str, day: int, mentions: list[str]) -> str:
    record = {
        "post_id": f"p{i}",
        "actor_id": actor,
        "forum_id": "f1",
        "timestamp": f"2021-01-{day:02d}T00:00:00Z",
        "content": "no id in the text",
        "mentions": mentions,
    }
    return json.dumps(record)


_POSTS = st.lists(
    st.tuples(
        st.sampled_from(["alice", "bob", "carol"]),
        st.integers(1, 9),
        st.lists(st.sampled_from(sorted(_MENTIONS)), max_size=4),
    ),
    max_size=25,
)


@given(_POSTS)
def test_post_capec_sets_matches_per_post_oracle(posts):
    lines = [_post_line(i, actor, day, mentions) for i, (actor, day, mentions) in enumerate(posts)]
    with lines_file(lines) as path:
        parsed = parse_posts(path)
    got = post_capec_sets(build_corpus(parsed.records).table(), _interning_snapshot())

    valid = [p for p in posts if all(_MENTIONS[m] is not None for m in p[2])]
    records = [(actor, ts(f"2021-01-{day:02d}"), {_MENTIONS[m] for m in ms}) for actor, day, ms in valid]
    assert parsed.skipped == len(posts) - len(valid)
    assert got == post_capec_oracle(records, _CVE_CWES, _CAPEC_CWES)


def test_post_path_parses_and_resolves_each_distinct_value_once(monkeypatch):
    snapshot = _interning_snapshot()
    mention_lists = [
        ["CVE-2021-0001"],
        ["CVE-2021-0001", "CVE-2021-0002"],
        ["CVE-2021-0002", "CVE-2021-0001", "CVE-2021-0001"],
        ["cve-2021-0001"],
        ["CVE-2021-0004", "CVE-2020-0009"],
        ["CVE-2021-0001"],
        ["not a cve"],
        ["CVE-2021-0002", "not a cve"],
    ]
    lines = [_post_line(i, "alice", 1, ms) for i, ms in enumerate(mention_lists)]
    parse, resolve = CveId.parse, forumlens.graph.map_cve_to_capecs
    parsed_texts: Counter[str] = Counter()
    resolved: Counter[CveId] = Counter()

    def counting_parse(text):
        parsed_texts[text] += 1
        return parse(text)

    def counting_resolve(snap, cve):
        resolved[cve] += 1
        return resolve(snap, cve)

    monkeypatch.setattr(CveId, "parse", staticmethod(counting_parse))
    monkeypatch.setattr(forumlens.graph, "map_cve_to_capecs", counting_resolve)
    with lines_file(lines) as path:
        parsed = parse_posts(path)
    corpus = build_corpus(parsed.records)
    table = post_capec_sets(corpus.table(), snapshot)

    # a failing string is parsed again on each line, so each such line is skipped
    valid_strings = {m for ms in mention_lists for m in ms} - {"not a cve"}
    assert parsed_texts == Counter({**dict.fromkeys(valid_strings, 1), "not a cve": 2})
    assert parsed.skipped == 2
    assert len({id(c) for p in corpus.posts for c in p.mentions}) <= len(valid_strings)
    # each distinct CVE is resolved once, though two distinct mention sets hold
    # CVE-2021-0001, and each set's posts share one result
    mention_sets = {p.mentions for p in corpus.posts}
    assert len(mention_sets) == 3
    assert resolved == Counter({cve for mentions in mention_sets for cve in mentions})
    assert len(resolved) == 4
    capec_sets = [capecs for actor_posts in table.values() for _, capecs in actor_posts]
    assert len(capec_sets) == 6
    assert len({id(capecs) for capecs in capec_sets}) == len(mention_sets)


def test_filter_strictly_greater_than_threshold():
    edges = _star(1, 3, "x") + _star(2, 4, "y")
    graph = bigraph(edges)
    report = filter_popular_capecs(graph, threshold=3)
    assert report.removed_capecs == {2: 4}
    # The y actors only touched the removed CAPEC and cascade out.
    assert report.removed_actors == {f"y{i}" for i in range(4)}
    assert filtered(graph, report) == bigraph(_star(1, 3, "x"))


def test_filter_keeps_degree_equal_to_threshold():
    graph = bigraph(_star(1, 5, "a"))
    report = filter_popular_capecs(graph, threshold=5)
    assert filtered(graph, report) == graph
    assert report.removed_capecs == {}
    assert report.removed_actors == frozenset()


def test_filter_actor_survives_via_other_capec():
    edges = _star(9, 4, "m") + [("m0", 7)]
    graph = bigraph(edges)
    report = filter_popular_capecs(graph, threshold=3)
    assert filtered(graph, report) == {"m0": {7}}
    assert report.removed_actors == {"m1", "m2", "m3"}


def test_filter_threshold_validation():
    graph = bigraph([("a", 1)])
    with pytest.raises(ValidationError):
        filter_popular_capecs(graph, threshold=0)


def test_removal_by_skill_counts_each_level_and_the_unknown_one():
    # CAPECs 1, 2 Low; 3 High; 4, 5 without a level; no CAPEC is Medium
    snapshot = snapshot_from(
        {}, [(c, f"pattern {c}", []) for c in range(1, 6)],
        skills={1: "Low", 2: "Low", 3: "High"},
    )
    edges = _star(1, 4, "a") + _star(2, 1, "b") + _star(3, 2, "c") + _star(4, 5, "d")
    full = bigraph(edges + _star(5, 1, "e"))
    report = filter_popular_capecs(full, threshold=3)
    assert removal_by_skill(full, report, snapshot) == [
        {"level": "Low", "capecs": 2, "removed_capecs": 1, "removed_edges": 4},
        {"level": "High", "capecs": 1, "removed_capecs": 0, "removed_edges": 0},
        {"level": "unknown", "capecs": 2, "removed_capecs": 1, "removed_edges": 5},
    ]


def test_filter_idempotent():
    edges = _star(1, 6, "a") + _star(2, 2, "b")
    full = bigraph(edges)
    once = filtered(full, filter_popular_capecs(full, threshold=4))
    report = filter_popular_capecs(once, threshold=4)
    assert filtered(once, report) == once
    assert not report.removed_capecs and not report.removed_actors


def _table(*rows: tuple[str, set[int]]) -> dict:
    """A resolved-post table with one post per (actor, CAPEC ids) row, all on one day."""
    table: dict = {}
    for actor, capecs in rows:
        table.setdefault(actor, []).append((ts("2021-01-01"), frozenset(capecs)))
    return table


def _degree_stats(table):
    return degree_stats(table, actor_capecs(table))


def test_degree_stats_densities():
    # edges a-1, a-2 and b-1; a posts twice
    stats = _degree_stats(_table(("a", {1}), ("a", {2, 1}), ("b", {1})))
    assert stats["n_actors"] == 2 and stats["n_capecs"] == 2 and stats["n_edges"] == 3
    assert stats["density"] == pytest.approx(3 / 4)
    assert stats["density_all_pairs"] == pytest.approx(3 / 6)
    assert stats["actor_degree"]["mean"] == pytest.approx(1.5)
    assert stats["capec_degree"]["mean"] == pytest.approx(1.5)


def test_degree_stats_one_timer_block():
    stats = _degree_stats(_table(("a", {1}), *[("b", {1})] * 4, ("c", {2})))
    assert stats["one_timer_share"] == pytest.approx(2 / 3)
    assert stats["posts"]["count"] == 3
    assert stats["posts_non_one_timers"]["count"] == 1
    assert stats["posts_non_one_timers"]["mean"] == pytest.approx(4.0)

    # no actor posts twice: the non-one-timer block is empty, written as zeros
    stats = _degree_stats(_table(("a", {1}), ("b", {1}), ("c", {2})))
    assert json.dumps(stats["posts_non_one_timers"], sort_keys=True) == (
        '{"count": 0, "max": 0.0, "mean": 0.0, "median": 0.0, "min": 0.0, "p75": 0.0, "std": 0.0}'
    )


_DEGREE_STATS_SCRIPT = textwrap.dedent(
    """
    import random
    from datetime import datetime, timezone
    from forumlens.catalog import CapecEntry, build_snapshot
    from forumlens.community import summarize_communities
    from forumlens.graph import Partition, actor_capecs, degree_stats
    rng = random.Random(2)
    when = datetime(2021, 1, 1, tzinfo=timezone.utc)
    rows = {
        f"a{i}": [(when, frozenset({rng.randrange(40)})) for _ in range(rng.randrange(1, 12))]
        for i in range(300)
    }
    posts = {a: rows[a] for a in set(rows)}  # actors in the hash seed's set order
    adjacency = actor_capecs(posts)
    stats = degree_stats(posts, adjacency)
    print(repr(stats["actor_degree"]), repr(stats["capec_degree"]))
    # a community's actors come as a frozenset, also in the hash seed's order
    assignment = {f"actor:a{i}": i % 3 for i in range(300)}
    assignment |= {f"capec:{c}": c % 3 for c in range(40)}
    snapshot = build_snapshot([], [CapecEntry(c, f"pattern {c}") for c in range(40)])
    for row in summarize_communities(Partition(assignment, 0.0), posts, adjacency, snapshot):
        print(repr(row["out_degree"]), repr(row["specialized_posts"]))
    """
)


def test_degree_stats_independent_of_hash_seed():
    # Set iteration order follows PYTHONHASHSEED; summing degrees or post counts
    # in that order made std differ in the last digits from one interpreter to
    # the next, in graph_stats.json and in communities.json.
    src = str(Path(forumlens.__file__).resolve().parents[1])
    outputs = set()
    for hash_seed in range(8):
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c", _DEGREE_STATS_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1


def test_surviving_post_counts(corpus_and_snapshot):
    corpus, snapshot = corpus_and_snapshot
    report = filter_popular_capecs(build_graph(corpus, snapshot), threshold=1)
    # CAPEC 63 (degree 2) is removed; only alice's p2 still maps into the graph.
    posts = post_capec_sets(corpus.table(), snapshot)
    counts = surviving_post_counts(surviving_posts(posts, report.removed_capecs))
    assert counts == {"alice": 1}


def test_surviving_posts_cuts_drops_posts_and_actors():
    t1, t2, t3 = ts("2021-01-01"), ts("2021-01-02"), ts("2021-01-03")
    posts = {
        "alice": [(t1, frozenset({1, 2})), (t2, frozenset({2})), (t3, frozenset({3}))],
        "bob": [(t1, frozenset({2}))],
        "carol": [(t2, frozenset({3}))],
    }
    assert surviving_posts(posts, {2}) == {
        # {1, 2} is cut to {1}; {2} is left empty and dropped; order is kept
        "alice": [(t1, {1}), (t3, {3})],
        # bob's only post is dropped, and bob with it
        "carol": [(t2, {3})],
    }
    assert surviving_posts(posts, {1, 2}) == {"alice": [(t3, {3})], "carol": [(t2, {3})]}
    # the filter's ledger maps each removed CAPEC to its degree
    assert surviving_posts(posts, {3: 2}) == {
        "alice": [(t1, {1, 2}), (t2, {2})], "bob": [(t1, {2})],
    }


def test_surviving_posts_cuts_each_distinct_capec_set_once():
    cuts: Counter[frozenset[int]] = Counter()

    class Counted(frozenset):
        def difference(self, *others):
            cuts[frozenset(self)] += 1
            return frozenset.difference(self, *others)

    # equal sets are distinct objects, so only a memo keyed by value shares the cut
    t1, t2 = ts("2021-01-01"), ts("2021-01-02")
    posts = {
        "alice": [(t1, Counted({1, 2})), (t2, Counted({2, 1})), (t2, Counted({3}))],
        "bob": [(t1, Counted({1, 2})), (t2, Counted({2}))],
    }
    cut = surviving_posts(posts, {2: 3})
    assert cuts == Counter({frozenset({1, 2}): 1, frozenset({3}): 1, frozenset({2}): 1})
    assert cut == {"alice": [(t1, {1}), (t2, {1}), (t2, {3})], "bob": [(t1, {1})]}
    assert cut["alice"][0][1] is cut["alice"][1][1] is cut["bob"][0][1]


def test_write_corpus_names_each_distinct_cve_once(tmp_path, monkeypatch):
    named: Counter[CveId] = Counter()
    name = CveId.__str__

    def counting_name(cve):
        named[cve] += 1
        return name(cve)

    monkeypatch.setattr(CveId, "__str__", counting_name)
    # a fresh CveId per mention: only a memo keyed by value names each once
    mention_sets = [
        [(2021, 1)], [(2021, 2), (2021, 1)], [(2021, 1), (2021, 2)], [(2020, 9), (2021, 2)],
        [(2021, 1)],
    ]
    posts = [
        post(f"p{i}", "alice", "2021-01-01")._replace(
            mentions=frozenset(CveId(*m) for m in ms)
        )
        for i, ms in enumerate(mention_sets)
    ]
    path = tmp_path / "corpus.jsonl"
    save_corpus(Corpus(posts), path)
    assert named == Counter({CveId(2021, 1): 1, CveId(2021, 2): 1, CveId(2020, 9): 1})
    written = [json.loads(line)["mentions"] for line in path.read_text().splitlines()]
    assert written == [sorted(name(CveId(*m)) for m in ms) for ms in mention_sets]


_TABLES = st.dictionaries(
    st.sampled_from(["alice", "bob", "carol", "dave"]),
    st.lists(
        st.tuples(st.integers(1, 9), st.frozensets(st.integers(1, 6), min_size=1)),
        min_size=1, max_size=4,
    ),
)


@given(_TABLES)
def test_the_filtered_graph_is_the_graph_of_its_surviving_posts(table):
    # communities and expertise rebuild the filtered graph from capec_posts.json this way
    posts = {a: [(ts(f"2021-01-0{d}"), capecs) for d, capecs in rows] for a, rows in table.items()}
    full = actor_capecs(posts)
    # past the number of actors no threshold removes anything
    for threshold in range(1, len(full) + 2):
        report = filter_popular_capecs(full, threshold=threshold)
        cut = actor_capecs(surviving_posts(posts, report.removed_capecs))
        assert cut == filtered(full, report)
        # an actor the filter names as removed is one the cut table lost
        assert report.removed_actors == full.keys() - cut.keys()


def _catalog(*ids):
    """A catalog of the CAPECs ``ids``, with no CVE mapped to any."""
    return snapshot_from({}, [(c, f"pattern {c}", []) for c in ids])


def test_posts_table_round_trip(tmp_path):
    posts = {
        'quo"te, comma': [
            (ts("2021-05-01T10:00:00"), frozenset({66, 7})),
            (ts("2021-05-01T10:00:00"), frozenset({7})),
            (ts("2021-05-01T10:00:00"), frozenset({120, 3, 66})),
        ],
        "m\u00fcller-\u0416": [(ts("2021-01-01"), frozenset({1}))],
    }
    path = tmp_path / "capec_posts.json"
    save_posts(posts, path)
    loaded = load_posts(path, _catalog(1, 3, 7, 66, 120))
    assert loaded == posts
    assert [capecs for _, capecs in loaded['quo"te, comma']] == [{7, 66}, {7}, {3, 66, 120}]
    save_posts(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


_MINUS_3H = timezone(timedelta(hours=-3))


@given(
    st.dictionaries(
        st.text(st.characters(exclude_categories=()) | st.sampled_from('"\\\n\ud800')),
        st.lists(
            st.tuples(
                st.datetimes(timezones=st.sampled_from([timezone.utc, _MINUS_3H])),
                st.frozensets(st.integers(1, 10**6), min_size=1),
            ),
            max_size=3,
        ),
        max_size=4,
    )
)
def test_save_posts_writes_what_json_dumps_writes(posts):
    # save_posts writes one actor at a time; the bytes are those of one json.dumps
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "capec_posts.json")
        save_posts(posts, path)
        table = {a: [[t.isoformat(), sorted(cs)] for t, cs in rows] for a, rows in posts.items()}
        expected = json.dumps(table, sort_keys=True, separators=(",", ":")) + "\n"
        assert path.read_text(encoding="utf-8") == expected


def test_load_posts_shares_each_capec_set(tmp_path):
    posts = {
        "alice": [(ts("2021-01-01"), frozenset({3, 7})), (ts("2021-01-02"), frozenset({7}))],
        "bob": [(ts("2021-01-03"), frozenset({7, 3})), (ts("2021-01-04"), frozenset({3, 7}))],
    }
    path = tmp_path / "capec_posts.json"
    save_posts(posts, path)
    loaded = load_posts(path, _catalog(3, 7))
    assert loaded == posts
    sets = [capecs for a_posts in loaded.values() for _, capecs in a_posts]
    assert len({id(capecs) for capecs in sets}) == 2
    assert sets[0] is sets[2] is sets[3] and sets[1] is not sets[0]


def test_load_posts_holds_little_beside_the_table_it_returns(tmp_path):
    corpus, snapshot, _ = generate(SynthConfig(seed=7, n_communities=4, actors_per_community=40))
    path = tmp_path / "capec_posts.json"
    save_posts(post_capec_sets(corpus.table(), snapshot), path)
    tracemalloc.start()
    try:
        table = load_posts(path, snapshot)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table
    # measured on this 86 kB file: the peak is 1.3 times the file above the table when
    # each actor is read as it arrives, 7.1 times when the whole document is parsed first
    assert peak - kept <= 2 * path.stat().st_size


def test_graph_json_round_trip(tmp_path):
    graph = bigraph([("a", 1), ("b", 2), ("a", 2)])
    path = tmp_path / "graph.json"
    save_graph(graph, path)
    assert load_graph(path) == graph


def test_graph_rejects_dangling_edges(tmp_path):
    path = tmp_path / "graph.json"
    save_graph(bigraph([("alice", 1), ("bob", 2), ("alice", 2), ("bob", 3)]), path)
    payload = json.loads(path.read_text())
    for edge, named in ((["ghost", 1], "('ghost', 1)"), (["alice", 9], "('alice', 9)")):
        path.write_text(json.dumps({**payload, "edges": payload["edges"] + [edge]}))
        with pytest.raises(ValidationError) as exc:
            load_graph(path)
        assert str(exc.value) == f"{path}: edges: edge {named} references unknown node"


@pytest.mark.parametrize(
    "nodes, problem",
    [
        ({"actors": ["alice", "bob", "carol"], "capecs": [1, 2]}, "carol: actor has no edge"),
        ({"actors": ["", "alice", "bob"], "capecs": [1, 2, 7]}, ": actor has no edge"),
        ({"actors": ["alice", "bob"], "capecs": [1, 2, 7]}, "capecs: CAPEC 7 has no edge"),
        ({"actors": ["alice", "bob"], "capecs": [1, 2, 12, 7]}, "capecs: CAPEC 7 has no edge"),
    ],
    ids=["actor", "empty-actor-id-before-capec", "capec", "lowest-capec"],
)
def test_load_graph_refuses_a_listed_node_with_no_edge(tmp_path, nodes, problem):
    # save_graph lists the nodes of a union, which holds no node without an edge
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({**nodes, "edges": [["alice", 1], ["bob", 2]]}))
    with pytest.raises(ValidationError) as exc:
        load_graph(path)
    assert str(exc.value) == f"{path}: {problem}"


@pytest.mark.parametrize(
    "text, problem",
    [
        ('{"actors": ["a"], "capecs": [1], "edges": [["a", 1]', "invalid JSON: "),
        ("[]", "expected a JSON object, got list"),
        ('{"capecs": [1], "edges": []}', "actors: missing"),
        ('{"actors": [], "edges": []}', "capecs: missing"),
        ('{"actors": [], "capecs": []}', "edges: missing"),
        ('{"actors": "a", "capecs": [], "edges": []}', "actors: expected a list"),
        ('{"actors": [], "capecs": {"1": 1}, "edges": []}', "capecs: expected a list"),
        ('{"actors": [], "capecs": [], "edges": null}', "edges: expected a list"),
        # an actor id is a string, and CAPEC ids are checked as load_posts checks them
        ('{"actors": [["a"]], "capecs": [1], "edges": []}', "['a']: actor id must be a string"),
        (
            '{"actors": [], "capecs": ["x"], "edges": []}',
            "capecs: CAPEC ids must be a list of one or more integers: ['x']",
        ),
        # int() would read these as CAPECs 12, 12 and 1; no stage writes an empty list
        *(
            (
                f'{{"actors": ["a"], "capecs": [{ids}], "edges": [["a", 12]]}}',
                f"capecs: CAPEC ids must be a list of one or more integers: [{shown}]",
            )
            for ids, shown in (("12.9", "12.9"), ('"12"', "'12'"), ("true", "True"), ("", ""))
        ),
        ('{"actors": ["a"], "capecs": [1], "edges": [["a"]]}', "edges: not enough values"),
        ('{"actors": ["a"], "capecs": [1], "edges": [7]}', "edges: cannot unpack"),
        (
            '{"actors": ["a"], "capecs": [1], "edges": [["ghost", 1]]}',
            "edges: edge ('ghost', 1) references unknown node",
        ),
        ('{"actors": ["a"], "capecs": [1], "edges": [["a", 2]]}', "edges: edge ('a', 2) references"),
        # equal to listed CAPECs 1 and 12, but no stage writes an edge's CAPEC so
        (
            '{"actors": ["a"], "capecs": [1, 12], "edges": [["a", true], ["a", 12.0]]}',
            "edges: CAPEC ids must be a list of one or more integers: [True]",
        ),
        (
            '{"actors": ["a"], "capecs": [1, 12], "edges": [["a", 1], ["a", 12.0]]}',
            "edges: CAPEC ids must be a list of one or more integers: [12.0]",
        ),
        # JSON allows a lone surrogate; no file a stage writes can hold it
        (
            '{"actors": ["a", "b\\ud800b"], "capecs": [1], "edges": [["b\\ud800b", 1]]}',
            "b\ud800b: actor id does not encode as UTF-8: surrogates not allowed",
        ),
    ],
)
def test_load_graph_names_the_file_and_the_key(tmp_path, text, problem):
    path = tmp_path / "graph.json"
    path.write_text(text)
    with pytest.raises(ValidationError) as exc:
        load_graph(path)
    assert str(exc.value).startswith(f"{path}: {problem}")


@pytest.mark.parametrize(
    "text, problem",
    [
        ('{"alice": [["2021-01-01T00:00:00+00:00", [1]]', "invalid JSON: "),
        ('[["2021-01-01T00:00:00+00:00", [1]]]', "expected a JSON object, got list"),
        ('{"alice": {"2021-01-01T00:00:00+00:00": [1]}}', "alice: expected a list of"),
        ('{"alice": [["2021-01-01T00:00:00+00:00"]]}', "alice: not enough values"),
        ('{"alice": [["2021-01-01T00:00:00+00:00", [1], 2]]}', "alice: too many values"),
        ('{"alice": ["ab"]}', "alice: Invalid isoformat string"),
        ('{"alice": [[20210101, [1]]]}', "alice: fromisoformat: argument must be str"),
        ('{"alice": [["2021-01-01T00:00:00+00:00", 7]]}', "alice: 'int' object is not"),
        ('{"alice": [["2021-01-01T00:00:00+00:00", "7"]]}', "alice: CAPEC ids must be a list"),
        (
            '{"alice": [["2021-01-01T00:00:00+00:00", "12"]]}',
            "alice: CAPEC ids must be a list of one or more integers: '12'",
        ),
        (
            '{"alice": [["2021-01-01T00:00:00+00:00", ["12"]]]}',
            "alice: CAPEC ids must be a list of one or more integers: ['12']",
        ),
        # a list or an object among the ids is named as an id, not as unhashable
        (
            '{"alice": [["2021-01-01T00:00:00+00:00", [[1]]]]}',
            "alice: CAPEC ids must be a list of one or more integers: [[1]]",
        ),
        (
            '{"alice": [["2021-01-01T00:00:00+00:00", [{}]]]}',
            "alice: CAPEC ids must be a list of one or more integers: [{}]",
        ),
        ('{"alice": [["2021-01-01T00:00:00+00:00", [true]]]}', "alice: CAPEC ids must be a list"),
        (
            '{"alice": [["2021-01-01T00:00:00+00:00", []]]}',
            "alice: CAPEC ids must be a list of one or more integers: []",
        ),
        ('{"alice": []}', "alice: expected a list of one or more [timestamp, [CAPEC ids]] rows"),
        (
            '{"alice": [["2021-01-01T00:00:00+00:00", [1]]],'
            ' "bob": [["2021-01-01T00:00:00+00:00", [9, 1, 7]]]}',
            "bob: CAPEC ids the catalog lacks: [7, 9]",
        ),
        (
            '{"alice": [["2021-01-01T00:00:00+00:00", [1]], ["2021-01-02T00:00:00", [1]]]}',
            "alice: timestamp without a UTC offset",
        ),
        (
            '{"alice": [["2021-01-01T00:00:00+00:00", [1]]],'
            ' "b\\ud800b": [["2021-01-01T00:00:00+00:00", [1]]]}',
            "b\ud800b: actor id does not encode as UTF-8: surrogates not allowed",
        ),
        # json.loads would keep the last value; no stage writes an actor twice
        (
            '{"alice": [["2021-01-01T00:00:00+00:00", [1]]],'
            ' "alice": [["2021-01-02T00:00:00+00:00", [1]]]}',
            "alice: actor appears more than once",
        ),
    ],
)
def test_load_posts_names_the_file_and_the_actor(tmp_path, text, problem):
    path = tmp_path / "capec_posts.json"
    path.write_text(text)
    with pytest.raises(ValidationError) as exc:
        load_posts(path, _catalog(1))
    assert str(exc.value).startswith(f"{path}: {problem}")


@pytest.mark.parametrize("fmt", ["graphml", "dot", "csv"])
def test_export_round_trip(tmp_path, fmt):
    graph = bigraph([("alice", 63), ("bob quote\"", 66), ("alice", 66)])
    path = tmp_path / f"graph.{fmt}"
    export_graph(graph, fmt, path)
    assert read_export(path, fmt) == graph


def test_export_with_partition_annotations(tmp_path):
    from forumlens.community import leiden

    graph = bigraph([("a", 1), ("b", 2)])
    partition = leiden(graph, seed=0)
    path = tmp_path / "graph.dot"
    export_graph(graph, "dot", path, partition=partition)
    text = path.read_text()
    assert "community=" in text
    assert "mode=actor" in text and "mode=capec" in text


def test_export_unknown_format(tmp_path):
    graph = bigraph([("a", 1)])
    with pytest.raises(ValidationError):
        export_graph(graph, "gexf", tmp_path / "x")
    assert not (tmp_path / "x").exists()


def test_node_table_orders_actors_by_string_then_capecs_by_number():
    assert node_table({"9", "10", "b"}, {100, 9}) == [
        ("actor:10", "actor", "10"), ("actor:9", "actor", "9"), ("actor:b", "actor", "b"),
        ("capec:9", "capec", 9), ("capec:100", "capec", 100),
    ]


@pytest.mark.parametrize("seed", range(5))
def test_leiden_the_exports_and_graph_json_share_one_node_order(tmp_path, seed):
    rng = random.Random(seed)
    # ids where string and number order differ: "100" sorts before "9", CAPEC 9 before 100
    edges = [(str(rng.randint(1, 120)), rng.randint(1, 120)) for _ in range(40)]
    graph = bigraph(edges)
    partition = leiden(graph, seed=seed)
    keys, _ = _index_graph(graph)

    export_graph(graph, "graphml", tmp_path / "g.graphml", partition=partition)
    root = ElementTree.parse(tmp_path / "g.graphml").getroot()
    graphml = [n.get("id") for n in root.iter("{http://graphml.graphdrawing.org/xmlns}node")]
    export_graph(graph, "dot", tmp_path / "g.dot", partition=partition)
    dot = re.findall(r'^  "([^"]*)" \[', (tmp_path / "g.dot").read_text(), re.M)
    save_graph(graph, tmp_path / "graph.json")
    saved = json.loads((tmp_path / "graph.json").read_text())
    stored = [f"actor:{a}" for a in saved["actors"]] + [f"capec:{c}" for c in saved["capecs"]]

    assert keys == graphml == dot == stored == [key for key, _, _ in node_table(
        graph, capecs_of(graph))]
    assert list(partition.assignment) == keys


def test_actor_12_and_capec_12_get_distinct_leiden_indices():
    keys, level = _index_graph(bigraph([("12", 12), ("12", 7), ("x", 12)]))
    assert keys == ["actor:12", "actor:x", "capec:7", "capec:12"]
    assert level.n == 4
    assert level.nbrs == [[2, 3], [3], [0], [0, 1]]
    # a unit-weight level: every node's weights are one shared endless 1.0
    assert [list(zip(us, ws)) for us, ws in zip(level.nbrs, level.wts)] == [
        [(2, 1.0), (3, 1.0)], [(3, 1.0)], [(0, 1.0)], [(0, 1.0), (1, 1.0)]
    ]
    assert len({id(ws) for ws in level.wts}) == 1
    # the union's own order does not move the keys or the level
    keys_of_table, of_table = _index_graph({"x": frozenset({12}), "12": frozenset({7, 12})})
    assert keys_of_table == keys and of_table.nbrs == level.nbrs


def test_csv_export_writes_community_0_and_an_unassigned_node_as_an_empty_field(tmp_path):
    graph = bigraph([("a", 1), ("b", 2)])
    partition = Partition({"actor:a": 0, "capec:1": 0, "actor:b": 1}, 0.0)  # capec:2 unassigned
    export_graph(graph, "csv", tmp_path / "g.csv", partition=partition)
    assert (tmp_path / "g.csv").read_text() == (
        "actor_id,capec_id,actor_community,capec_community\na,1,0,0\nb,2,1,\n"
    )


@pytest.mark.parametrize("char", ["\x01", "\x1f", "\ud800", "\ufffe", "\uffff"])
def test_graphml_export_refuses_a_node_xml_cannot_carry(tmp_path, char):
    graph = bigraph([("alice", 1), (f"b{char}b", 1)])
    path = tmp_path / "graph.graphml"
    with pytest.raises(ValidationError) as exc:
        export_graph(graph, "graphml", path)
    assert str(exc.value) == (
        f"node {'actor:b' + char + 'b'!r} holds a character XML 1.0 cannot carry; use dot or csv"
    )
    assert list(tmp_path.iterdir()) == []


def test_graphml_keeps_the_characters_xml_allows_and_dot_and_csv_a_control_one(tmp_path):
    graph = bigraph([("tab\there", 1), ("private\ue000", 1), ("astral\U0001f600", 2)])
    export_graph(graph, "graphml", tmp_path / "graph.graphml")
    assert read_export(tmp_path / "graph.graphml", "graphml") == graph
    graph = bigraph([("alice", 1), ("b\x01b", 1)])
    for fmt in ("dot", "csv"):
        export_graph(graph, fmt, tmp_path / f"graph.{fmt}")
        assert read_export(tmp_path / f"graph.{fmt}", fmt) == graph
