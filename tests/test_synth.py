"""Tests for the synthetic corpus generator and planted-community recovery."""

from __future__ import annotations

import pytest

from forumlens.community import Partition, leiden
from forumlens.errors import ValidationError
from forumlens.graph import build_graph, filter_popular_capecs
from forumlens.ingest import load_corpus
from forumlens.synth import (
    SYNTH_CVE_YEAR,
    GroundTruth,
    SynthConfig,
    community_agreement,
    generate,
    load_truth,
    write_synth,
)

from conftest import bigraph, community_members_connected


def _small_config(**overrides) -> SynthConfig:
    defaults = dict(seed=0, n_communities=3, capecs_per_community=6, actors_per_community=8)
    defaults.update(overrides)
    return SynthConfig(**defaults)


def test_generate_deterministic():
    a_corpus, _, a_truth = generate(_small_config())
    b_corpus, _, b_truth = generate(_small_config())
    assert [(p.post_id, p.actor_id, p.timestamp, p.content) for p in a_corpus.posts] == [
        (p.post_id, p.actor_id, p.timestamp, p.content) for p in b_corpus.posts
    ]
    assert a_truth == b_truth

    c_corpus, _, _ = generate(_small_config(seed=1))
    assert [p.content for p in c_corpus.posts] != [p.content for p in a_corpus.posts]


def test_generate_truth_is_consistent():
    config = _small_config()
    corpus, snapshot, truth = generate(config)

    assert len(truth.actor_community) == config.n_communities * config.actors_per_community
    assert set(truth.actor_community.values()) == set(range(config.n_communities))
    assert len(truth.capec_community) == config.n_communities * config.capecs_per_community
    assert set(truth.actor_archetype) == set(truth.actor_community)

    # Every mentioned CVE resolves through the catalog to exactly one CAPEC.
    for post in corpus.posts:
        assert post.mentions
        for cve in post.mentions:
            assert cve.year == SYNTH_CVE_YEAR
            entry = snapshot.cves[cve]
            assert len(entry.cwe_ids) == 1
            (cwe,) = entry.cwe_ids
            assert len(snapshot.cwe_to_capecs[cwe]) == 1

    # Actor ids encode their planted community.
    for actor, comm in truth.actor_community.items():
        assert actor.startswith(f"a{comm:02d}")


def test_generate_archetype_mix():
    config = _small_config(actors_per_community=8)
    _, _, truth = generate(config)
    per_comm: dict[int, list[str]] = {}
    for actor, comm in truth.actor_community.items():
        per_comm.setdefault(comm, []).append(truth.actor_archetype[actor])
    for names in per_comm.values():
        # 8 actors at 25% per archetype: exactly two of each.
        assert sorted(set(names)) == sorted(
            {"Professional", "ProAmateur", "AverageCareerCriminal", "Amateur"}
        )
        assert all(names.count(n) == 2 for n in set(names))


def test_generate_timestamps_span_window():
    config = _small_config()
    corpus, _, _ = generate(config)
    by_actor: dict[str, list] = {}
    for post in corpus.posts:
        by_actor.setdefault(post.actor_id, []).append(post.timestamp)
    for stamps in by_actor.values():
        stamps.sort()
        window = stamps[-1] - stamps[0]
        # Spans are whole days by construction.
        assert window.total_seconds() % 86400 == 0


def test_config_validation():
    with pytest.raises(ValidationError):
        _small_config(n_communities=1).validate()
    with pytest.raises(ValidationError):
        _small_config(capecs_per_community=5).validate()
    with pytest.raises(ValidationError):
        _small_config(noise=0.5).validate()


def test_write_and_load_round_trip(tmp_path):
    corpus, snapshot, truth = generate(_small_config())
    paths = write_synth(tmp_path, corpus, snapshot, truth)
    assert set(paths) == {"posts", "cve_cwe", "capec", "truth"}

    reloaded = load_corpus(paths["posts"])
    assert len(reloaded.posts) == len(corpus.posts)
    assert load_truth(paths["truth"]) == truth


def test_planted_communities_recovered():
    corpus, snapshot, truth = generate(SynthConfig(seed=3))
    graph = build_graph(corpus, snapshot)
    filtered, _ = filter_popular_capecs(graph, threshold=500)
    partition = leiden(filtered, seed=0)
    assert community_agreement(partition, truth) >= 0.9


def test_agreement_degrades_with_noise():
    scores = []
    for noise in (0.0, 0.45):
        corpus, snapshot, truth = generate(SynthConfig(seed=5, noise=noise))
        graph = build_graph(corpus, snapshot)
        partition = leiden(graph, seed=0)
        scores.append(community_agreement(partition, truth))
    assert scores[0] >= scores[1]
    assert scores[0] >= 0.9


def test_community_agreement_scoring():
    truth = GroundTruth(
        actor_community={"a": 0, "b": 0, "c": 1, "d": 1},
        actor_archetype={k: "Amateur" for k in "abcd"},
        capec_community={},
    )
    perfect = Partition(
        assignment={"actor:a": 7, "actor:b": 7, "actor:c": 9, "actor:d": 9},
        quality=0.0,
    )
    assert community_agreement(perfect, truth) == 1.0

    # One actor astray plus one actor missing from the partition entirely.
    partial = Partition(
        assignment={"actor:a": 7, "actor:b": 7, "actor:c": 7},
        quality=0.0,
    )
    assert community_agreement(partial, truth) == 0.5

    merged = Partition(
        assignment={f"actor:{k}": 0 for k in "abcd"},
        quality=0.0,
    )
    # A merged blob maps to planted community 0: only a and b agree.
    assert community_agreement(merged, truth) == 0.5

    with pytest.raises(ValidationError):
        community_agreement(perfect, GroundTruth({}, {}, {}))


def test_synthetic_capec_graph_is_actor_connected():
    # The weighted skill pools must overlap across archetypes so each planted
    # community stays one connected block in the unweighted graph.
    corpus, snapshot, truth = generate(_small_config(seed=2))
    graph = build_graph(corpus, snapshot)
    for comm in set(truth.actor_community.values()):
        actors = {a for a, c in truth.actor_community.items() if c == comm}
        capecs = {c for c, cc in truth.capec_community.items() if cc == comm}
        intra = [
            (a, c) for a, c in graph.edges if a in actors and c in capecs
        ]
        sub = bigraph(intra)
        members = {f"actor:{a}" for a in sub.actor_ids} | {
            f"capec:{c}" for c in sub.capec_ids
        }
        assert community_members_connected(sub, members)
        assert actors <= sub.actor_ids
