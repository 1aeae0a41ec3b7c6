"""Tests for the bimodal graph, the popularity filter, and serialization."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import forumlens
from forumlens.errors import ValidationError
from forumlens.graph import (
    BimodalGraph,
    build_graph,
    degree_stats,
    export_graph,
    filter_popular_capecs,
    graph_of,
    import_graph,
    load_graph,
    load_posts,
    post_capec_sets,
    save_graph,
    save_posts,
    surviving_post_counts,
    surviving_posts,
)
from forumlens.ingest import build_corpus

from conftest import bigraph, post, snapshot_from, ts


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
    assert graph.actor_ids == {"alice", "bob"}
    assert graph.capec_ids == {63, 66}
    assert graph.edges == {("alice", 63), ("alice", 66), ("bob", 63)}


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
    assert graph.edges == {("alice", 63)}


def test_post_capec_sets(corpus_and_snapshot):
    corpus, snapshot = corpus_and_snapshot
    posts = post_capec_sets(corpus, snapshot)
    # carol's p4 resolves to no CAPEC, so neither the post nor carol is listed
    assert posts == {
        "alice": [(ts("2021-01-01"), {63}), (ts("2021-01-02"), {66})],
        "bob": [(ts("2021-01-03"), {63})],
    }
    assert graph_of(posts) == build_graph(corpus, snapshot)


def test_graph_rejects_dangling_edges():
    with pytest.raises(ValidationError):
        BimodalGraph(
            actor_ids=frozenset({"a"}),
            capec_ids=frozenset({1}),
            edges=frozenset({("ghost", 1)}),
        )


def test_filter_strictly_greater_than_threshold():
    edges = _star(1, 3, "x") + _star(2, 4, "y")
    graph = bigraph(edges)
    filtered, report = filter_popular_capecs(graph, threshold=3)
    assert filtered.capec_ids == {1}
    assert report.removed_capecs == {2: 4}
    # The y actors only touched the removed CAPEC and cascade out.
    assert report.removed_actors == {f"y{i}" for i in range(4)}
    assert filtered.actor_ids == {"x0", "x1", "x2"}


def test_filter_keeps_degree_equal_to_threshold():
    graph = bigraph(_star(1, 5, "a"))
    filtered, report = filter_popular_capecs(graph, threshold=5)
    assert filtered == graph
    assert report.removed_capecs == {}
    assert report.removed_actors == frozenset()


def test_filter_actor_survives_via_other_capec():
    edges = _star(9, 4, "m") + [("m0", 7)]
    graph = bigraph(edges)
    filtered, report = filter_popular_capecs(graph, threshold=3)
    assert filtered.capec_ids == {7}
    assert filtered.actor_ids == {"m0"}
    assert report.removed_actors == {"m1", "m2", "m3"}


def test_filter_threshold_validation():
    graph = bigraph([("a", 1)])
    with pytest.raises(ValidationError):
        filter_popular_capecs(graph, threshold=0)


def test_filter_idempotent():
    edges = _star(1, 6, "a") + _star(2, 2, "b")
    once, _ = filter_popular_capecs(bigraph(edges), threshold=4)
    twice, report = filter_popular_capecs(once, threshold=4)
    assert twice == once
    assert not report.removed_capecs and not report.removed_actors


def test_degree_stats_densities():
    graph = bigraph([("a", 1), ("a", 2), ("b", 1)])
    stats = degree_stats(graph, {"a": 2, "b": 1})
    assert stats.n_actors == 2 and stats.n_capecs == 2 and stats.n_edges == 3
    assert stats.density == pytest.approx(3 / 4)
    assert stats.density_all_pairs == pytest.approx(3 / 6)
    assert stats.actor_degree.mean == pytest.approx(1.5)
    assert stats.capec_degree.mean == pytest.approx(1.5)


def test_degree_stats_one_timer_block():
    graph = bigraph([("a", 1), ("b", 1), ("c", 2)])
    counts = {"a": 1, "b": 4, "c": 1}
    stats = degree_stats(graph, post_counts=counts)
    assert stats.one_timer_share == pytest.approx(2 / 3)
    assert stats.posts.count == 3
    assert stats.posts_non_one_timers.count == 1
    assert stats.posts_non_one_timers.mean == pytest.approx(4.0)


_DEGREE_STATS_SCRIPT = textwrap.dedent(
    """
    import random
    from forumlens.graph import BimodalGraph, degree_stats
    rng = random.Random(2)
    edges = {(f"a{i}", rng.randrange(40)) for i in range(300) for _ in range(rng.randrange(1, 12))}
    graph = BimodalGraph(
        frozenset(a for a, _ in edges), frozenset(c for _, c in edges), frozenset(edges)
    )
    stats = degree_stats(graph, {a: 1 for a in graph.actor_ids})
    print(repr(stats.actor_degree.as_dict()), repr(stats.capec_degree.as_dict()))
    """
)


def test_degree_stats_independent_of_hash_seed():
    # Set iteration order follows PYTHONHASHSEED; summing degrees in that
    # order made std differ in the last digits from one interpreter to the next.
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
    graph = build_graph(corpus, snapshot)
    filtered, _ = filter_popular_capecs(graph, threshold=1)
    # CAPEC 63 (degree 2) is removed; only alice's p2 still maps into the graph.
    counts = surviving_post_counts(surviving_posts(post_capec_sets(corpus, snapshot), filtered))
    assert counts == {"alice": 1}


def test_surviving_posts_cuts_drops_posts_and_actors():
    t1, t2, t3 = ts("2021-01-01"), ts("2021-01-02"), ts("2021-01-03")
    posts = {
        "alice": [(t1, frozenset({1, 2})), (t2, frozenset({2})), (t3, frozenset({3}))],
        "bob": [(t1, frozenset({2}))],
        "carol": [(t2, frozenset({3}))],
    }
    graph = bigraph([("alice", 1), ("alice", 3), ("carol", 3)])
    assert surviving_posts(posts, graph) == {
        # {1, 2} is cut to {1}; {2} is left empty and dropped; order is kept
        "alice": [(t1, {1}), (t3, {3})],
        # bob's only post is dropped, and bob with it
        "carol": [(t2, {3})],
    }
    assert surviving_posts(posts, bigraph([("carol", 3)])) == {"carol": [(t2, {3})]}


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
    loaded = load_posts(path)
    assert loaded == posts
    assert [capecs for _, capecs in loaded['quo"te, comma']] == [{7, 66}, {7}, {3, 66, 120}]
    save_posts(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_graph_json_round_trip(tmp_path):
    graph = bigraph([("a", 1), ("b", 2), ("a", 2)])
    path = tmp_path / "graph.json"
    save_graph(graph, path)
    assert load_graph(path) == graph


@pytest.mark.parametrize("fmt", ["graphml", "dot", "csv"])
def test_export_round_trip(tmp_path, fmt):
    graph = bigraph([("alice", 63), ("bob quote\"", 66), ("alice", 66)])
    path = tmp_path / f"graph.{fmt}"
    export_graph(graph, fmt, path)
    again = import_graph(path, fmt)
    assert again.edges == graph.edges
    assert again.actor_ids == graph.actor_ids
    assert again.capec_ids == graph.capec_ids


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
    with pytest.raises(ValidationError):
        import_graph(tmp_path / "x", "gexf")
