"""Tests for modularity, community detection, and community summaries."""

from __future__ import annotations

import hashlib
import json
import logging
import multiprocessing
import os
import random

import pytest

from forumlens import community
from forumlens.community import (
    BRUTE_FORCE_NODE_CAP,
    POOL_MIN_NODES,
    Partition,
    brute_force_best_partition,
    keyword_digest,
    leiden,
    modularity,
    summarize_communities,
)
from forumlens.errors import ValidationError
from forumlens.expertise import build_profiles
from forumlens.graph import (
    BimodalGraph, actor_capecs, build_graph, post_capec_sets, surviving_posts,
)
from forumlens.ingest import build_corpus
from forumlens.synth import SynthConfig, generate

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


_MEMBERSHIP_USERS = {
    "modularity": lambda graph, partition, posts, snapshot: modularity(graph, partition),
    "summarize_communities": lambda graph, partition, posts, snapshot: summarize_communities(
        partition, posts, actor_capecs(posts), snapshot
    ),
    "build_profiles": lambda graph, partition, posts, snapshot: build_profiles(
        posts, actor_capecs(posts), snapshot, partition
    ),
}


@pytest.mark.parametrize("user", sorted(_MEMBERSHIP_USERS))
@pytest.mark.parametrize(
    "missing, named",
    [(("actor:bob", "actor:alice"), "actor:alice"), (("capec:63", "capec:7"), "capec:7")],
    ids=["actor", "capec"],
)
def test_modularity_requires_full_assignment(user, missing, named):
    snapshot = snapshot_from(
        cve_to_cwes={"CVE-2021-0001": ["CWE-79"], "CVE-2021-0002": ["CWE-89"]},
        capecs=[(63, "Cross-Site Scripting", ["CWE-79"]), (7, "Blind SQL Injection", ["CWE-89"])],
        skills={63: "Low", 7: "High"},
    )
    corpus = build_corpus(
        [
            post("p1", "bob", "2021-01-01", "CVE-2021-0001 CVE-2021-0002"),
            post("p2", "alice", "2021-01-02", "CVE-2021-0002"),
        ]
    )
    graph = build_graph(corpus, snapshot)
    posts = surviving_posts(post_capec_sets(corpus.table(), snapshot), graph)
    assignment = {key: 0 for key in ("actor:alice", "actor:bob", "capec:7", "capec:63")}
    _MEMBERSHIP_USERS[user](graph, Partition(assignment, 0.0), posts, snapshot)  # complete: accepted
    for key in missing:
        del assignment[key]
    # the lowest node in sorted order, CAPECs by number, is the one named
    with pytest.raises(ValidationError, match=f"does not assign node '{named}'"):
        _MEMBERSHIP_USERS[user](graph, Partition(assignment, 0.0), posts, snapshot)


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
    # random.Random(-7) draws what random.Random(7) draws
    with pytest.raises(ValidationError, match="seed must be >= 0: -7"):
        leiden(two_bicliques(), seed=-7)


# Synth 4x25 graphs, leiden(seed=s): the digest of the sorted-key JSON of the
# assignment and Q, recorded from the dict-of-dicts implementation before the
# levels became CSR arrays. Any change to a draw, a candidate order or a gain
# expression moves the partition or the last bits of Q.
RECORDED = {
    0: ("85a1eeb163a923e0c965c166aaf3f9708df0531bfebe507a6c53933db16a33ca", 0.5026394960281505),
    1: ("31d7ceb6f01d005470465768a40bf4cae59993df19ee18078da03f380689eb05", 0.5008718009572406),
    2: ("85a1eeb163a923e0c965c166aaf3f9708df0531bfebe507a6c53933db16a33ca", 0.5120662807787684),
}


def _digest(assignment: dict[str, int]) -> str:
    return hashlib.sha256(json.dumps(assignment, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(RECORDED))
def test_leiden_reproduces_recorded_partitions(seed, caplog):
    corpus, snapshot, _ = generate(SynthConfig(seed=seed, n_communities=4, actors_per_community=25))
    graph = build_graph(corpus, snapshot)
    assert graph.n_nodes < POOL_MIN_NODES
    with caplog.at_level(logging.DEBUG, logger="forumlens.community"):
        found = leiden(graph, seed=seed)
    assert (_digest(found.assignment), found.quality) == RECORDED[seed]
    assert "10 restarts on 140 nodes in-process" in caplog.text


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="the restart pool is Linux-only")
def test_pool_and_in_process_restarts_give_equal_partitions(monkeypatch, caplog):
    corpus, snapshot, _ = generate(SynthConfig(seed=3, n_communities=4, actors_per_community=250))
    graph = build_graph(corpus, snapshot)
    assert graph.n_nodes >= POOL_MIN_NODES
    caplog.set_level(logging.DEBUG, logger="forumlens.community")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pooled = leiden(graph, seed=41)
    assert "over 2 processes" in caplog.text

    # a daemonic process, such as a pool worker, may not start processes of its own
    with multiprocessing.get_context("fork").Pool(1) as pool:
        in_daemon = pool.apply(leiden, (graph,), {"seed": 41})

    caplog.clear()
    monkeypatch.setattr(community, "POOL_MIN_NODES", graph.n_nodes + 1)
    alone = leiden(graph, seed=41)
    assert "in-process" in caplog.text
    assert pooled.assignment == alone.assignment == in_daemon.assignment
    assert pooled.quality == alone.quality == in_daemon.quality == 0.48996398694754423


def test_edgeless_graph_and_star_keep_their_partitions():
    # values recorded before the levels became arrays; these take the empty
    # and zero-count paths of the CSR build, bincount and the component split
    edgeless = BimodalGraph(frozenset({"a", "b"}), frozenset({1}), frozenset())
    found = leiden(edgeless, seed=0)
    assert found == Partition({"actor:a": 0, "actor:b": 1, "capec:1": 2}, 0.0)
    assert modularity(edgeless, Partition(dict.fromkeys(found.assignment, 0), 0.0)) == 0.0
    assert modularity(bigraph([]), Partition({}, 0.0)) == 0.0

    star = bigraph([(f"a{i}", 7) for i in range(5)])
    keys = sorted(f"actor:a{i}" for i in range(5)) + ["capec:7"]
    assert leiden(star, seed=0) == Partition(dict.fromkeys(keys, 0), 0.0)
    singletons = Partition({key: i for i, key in enumerate(keys)}, 0.0)
    assert modularity(star, singletons) == -0.3
    halves = Partition({key: int(key in ("capec:7", "actor:a0", "actor:a1")) for key in keys}, 0.0)
    assert modularity(star, halves) == -0.1799999999999999


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
    posts = surviving_posts(post_capec_sets(corpus.table(), snapshot), graph)
    overviews = summarize_communities(partition, posts, actor_capecs(posts), snapshot)

    assert len(overviews) == len(partition.communities())
    by_community = {o["community"]: o for o in overviews}
    alice = by_community[partition.assignment["actor:alice"]]
    bob = by_community[partition.assignment["actor:bob"]]
    assert alice["one_timer_pct"] == pytest.approx(0.0)
    assert bob["one_timer_pct"] == pytest.approx(100.0)
    assert alice["specialized_posts"]["mean"] == pytest.approx(2.0)
    assert "attack" in alice["keywords"] or "scripting" in alice["keywords"]
    payload = overviews[0]
    assert {"community", "nodes", "one_timer_pct", "keywords"} <= set(payload)
