"""Tests for modularity, community detection, and community summaries."""

from __future__ import annotations

import random

import pytest

from forumlens.community import (
    BRUTE_FORCE_NODE_CAP,
    Partition,
    brute_force_best_partition,
    keyword_digest,
    leiden,
    modularity,
    summarize_communities,
)
from forumlens.errors import ValidationError
from forumlens.graph import build_graph, post_capec_sets, surviving_posts
from forumlens.ingest import build_corpus

from conftest import (
    bigraph,
    community_members_connected,
    modularity_oracle,
    post,
    random_bigraph,
    snapshot_from,
    two_bicliques,
)


def _partition_of(graph, groups: list[set[str]]) -> Partition:
    assignment = {}
    for idx, group in enumerate(groups):
        for key in group:
            assignment[key] = idx
    return Partition(assignment=assignment, quality=modularity_oracle(graph, assignment))


def test_modularity_two_bicliques_hand_value():
    graph = two_bicliques()
    split = _partition_of(
        graph,
        [
            {"actor:a1", "actor:a2", "capec:1", "capec:2"},
            {"actor:b1", "actor:b2", "capec:3", "capec:4"},
        ],
    )
    assert modularity(graph, split) == pytest.approx(0.5, abs=1e-12)

    lumped = _partition_of(graph, [set(split.assignment)])
    assert modularity(graph, lumped) == pytest.approx(0.0, abs=1e-12)


def test_modularity_singletons_negative():
    graph = bigraph([("a", 1), ("b", 1)])
    singles = Partition(
        assignment={"actor:a": 0, "actor:b": 1, "capec:1": 2}, quality=0.0
    )
    # No intra edges; Q = -sum (d_c/2m)^2 = -(1/4 + 1/4 + 4/16) = -0.375
    assert modularity(graph, singles) == pytest.approx(-0.375, abs=1e-12)


def test_modularity_matches_direct_formula_on_random_graphs():
    rng = random.Random(42)
    for _ in range(60):
        graph = random_bigraph(rng)
        keys = [f"actor:{a}" for a in graph.actor_ids] + [
            f"capec:{c}" for c in graph.capec_ids
        ]
        assignment = {key: rng.randrange(3) for key in keys}
        partition = Partition(assignment=assignment, quality=0.0)
        assert modularity(graph, partition) == pytest.approx(
            modularity_oracle(graph, assignment), abs=1e-12
        )


def test_modularity_requires_full_assignment():
    graph = bigraph([("a", 1)])
    with pytest.raises(ValidationError):
        modularity(graph, Partition(assignment={"actor:a": 0}, quality=0.0))


def test_leiden_recovers_bicliques():
    graph = two_bicliques()
    partition = leiden(graph, seed=0)
    assert partition.quality == pytest.approx(0.5, abs=1e-12)
    comms = partition.communities()
    assert len(comms) == 2
    assert {"actor:a1", "actor:a2", "capec:1", "capec:2"} in comms.values()


def test_leiden_matches_brute_force_on_small_graphs():
    rng = random.Random(7)
    for _ in range(25):
        graph = random_bigraph(rng, max_actors=4, max_capecs=4)
        best = brute_force_best_partition(graph)
        found = leiden(graph, seed=0, restarts=10)
        assert found.quality >= best.quality - 1e-9
        # Safety net: the heuristic can never beat the exhaustive optimum.
        assert found.quality <= best.quality + 1e-9


def test_leiden_deterministic_per_seed():
    graph = two_bicliques()
    runs = [leiden(graph, seed=5) for _ in range(3)]
    assert runs[0].assignment == runs[1].assignment == runs[2].assignment
    assert runs[0].quality == runs[1].quality == runs[2].quality


def test_leiden_communities_connected():
    rng = random.Random(11)
    for _ in range(20):
        graph = random_bigraph(rng, max_actors=5, max_capecs=5)
        partition = leiden(graph, seed=1)
        for members in partition.communities().values():
            assert community_members_connected(graph, set(members))


def test_leiden_quality_matches_reported_assignment():
    rng = random.Random(3)
    for _ in range(20):
        graph = random_bigraph(rng)
        partition = leiden(graph, seed=2)
        assert partition.quality == pytest.approx(
            modularity_oracle(graph, partition.assignment), abs=1e-12
        )


def test_leiden_assigns_every_node():
    graph = two_bicliques()
    partition = leiden(graph, seed=0)
    assert set(partition.assignment) == {
        f"actor:{a}" for a in graph.actor_ids
    } | {f"capec:{c}" for c in graph.capec_ids}


def test_leiden_canonical_labels():
    partition = leiden(two_bicliques(), seed=0)
    labels = sorted(set(partition.assignment.values()))
    assert labels == list(range(len(labels)))


def test_leiden_validates_inputs():
    empty = bigraph([])
    with pytest.raises(ValidationError):
        leiden(empty, seed=0)
    with pytest.raises(ValidationError):
        leiden(two_bicliques(), seed=0, restarts=0)


def test_brute_force_node_cap():
    edges = [(f"a{i}", j) for i in range(7) for j in range(1, 8)]
    graph = bigraph(edges)
    assert graph.n_nodes == 14 > BRUTE_FORCE_NODE_CAP
    with pytest.raises(ValidationError):
        brute_force_best_partition(graph)


def test_brute_force_finds_known_optimum():
    best = brute_force_best_partition(two_bicliques())
    assert best.quality == pytest.approx(0.5, abs=1e-12)
    assert len(best.communities()) == 2


def test_keyword_digest_ranks_and_filters():
    names = [
        "SQL Injection through SOAP Parameter Tampering",
        "SQL Injection via adding code",
        "Command Injection",
        "Blind SQL Injection",
    ]
    digest = keyword_digest(names)
    assert digest[0] == "injection"
    assert digest[1] == "sql"
    assert "via" not in digest and "the" not in digest


def test_keyword_digest_counts_each_name_once():
    # "buffer" twice within one name still counts once for that name.
    digest = keyword_digest(["Buffer buffer overflow", "Stack smash"])
    assert digest.count("buffer") == 1


def test_summarize_communities_fields():
    snapshot = snapshot_from(
        cve_to_cwes={"CVE-2021-0001": ["CWE-79"], "CVE-2021-0002": ["CWE-89"]},
        capecs=[(63, "Cross-Site Scripting attack", ["CWE-79"]),
                (66, "SQL Injection attack", ["CWE-89"])],
    )
    corpus = build_corpus(
        [
            post("p1", "alice", "2021-01-01", "CVE-2021-0001"),
            post("p2", "alice", "2021-01-05", "CVE-2021-0001 more"),
            post("p3", "bob", "2021-02-01", "CVE-2021-0002"),
        ]
    )
    graph = build_graph(corpus, snapshot)
    partition = leiden(graph, seed=0)
    posts = surviving_posts(post_capec_sets(corpus, snapshot), graph)
    overviews = summarize_communities(graph, partition, posts, snapshot)

    assert len(overviews) == len(partition.communities())
    by_actor = {next(iter(o.actor_ids)): o for o in overviews if o.actor_ids}
    assert by_actor["alice"].one_timer_pct == pytest.approx(0.0)
    assert by_actor["bob"].one_timer_pct == pytest.approx(100.0)
    assert by_actor["alice"].specialized_posts.mean == pytest.approx(2.0)
    assert "attack" in by_actor["alice"].keywords or "scripting" in by_actor["alice"].keywords
    payload = overviews[0].as_dict()
    assert {"community", "nodes", "one_timer_pct", "keywords"} <= set(payload)
