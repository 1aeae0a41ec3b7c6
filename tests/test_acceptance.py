"""Acceptance gate: one test per shipped guarantee, at pinned tolerances.

Each test covers exactly one numbered guarantee, so a verbose run prints one
pass/fail line per criterion. Oracles are implemented independently in
conftest: direct-formula modularity and the exhaustive partition search, both
off the edge list, pure-python Lloyd and the definitional silhouette.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

import numpy as np
import pytest

from forumlens.catalog import SkillLevel
from forumlens.cli import main
from forumlens.cluster import (
    KMeansModel,
    best_by_silhouette,
    label_clusters,
    silhouette,
    standardize,
    sweep_k,
)
from forumlens.community import leiden, modularity
from forumlens.expertise import (
    ActorProfile,
    activity_rate,
    build_sample,
    post_in_interest,
    skill_score,
)
from forumlens.graph import build_graph, filter_popular_capecs
from forumlens.ingest import CveId
from forumlens.synth import SynthConfig, community_agreement, generate

from conftest import (
    bigraph,
    brute_force_optimum,
    community_members_connected,
    filtered,
    grouped,
    kmeans_from,
    lloyd_reference,
    modularity_oracle,
    node_keys,
    random_bigraph,
    random_bigraph_exact,
    silhouette_oracle,
    snapshot_from,
    ts,
    two_bicliques,
)


def test_criterion_1_worked_examples():
    rate = activity_rate(10, ts("2021-03-20"), ts("2021-12-20"))
    assert round(rate, 3) == 0.036

    snapshot = snapshot_from(
        cve_to_cwes={"CVE-2022-45451": ["CWE-269"]},
        capecs=[(233, "Privilege Escalation", ["CWE-269"])],
        skills={233: "High"},
    )
    from forumlens.catalog import map_cve_to_capecs

    assert map_cve_to_capecs(snapshot, CveId.parse("CVE-2022-45451")) == {233}

    assert int(SkillLevel.parse("Low")) == 1
    assert int(SkillLevel.parse("Medium")) == 2
    assert int(SkillLevel.parse("High")) == 3


def test_criterion_2_reference_centroid_labels():
    # Eight observed centroids [skill; commitment; activity rate] with the
    # activity-window facts reported for each cluster's members, and the
    # framework quadrant each must map to.
    fixture = [
        ((2.00, 22.47, 0.11), 10, "Amateur"),
        ((2.81, 97.62, 5.14), 1, "ProAmateur"),
        ((2.96, 90.37, 0.28), 159, "Professional"),
        ((2.96, 25.32, 0.12), 488, "ProAmateur"),
        ((1.05, 24.32, 0.05), 30, "Amateur"),
        ((1.86, 84.81, 0.50), 60, "AverageCareerCriminal"),
        ((2.38, 18.46, 10.67), 1, "ProAmateur"),
        ((1.95, 24.51, 4.14), 2, "Amateur"),
    ]
    centroids = np.array([row[0] for row in fixture])
    profiles = [
        ActorProfile(
            actor_id=f"a{i}",
            community_id=0,
            skill_values=(2,),
            skill_score=c[0],
            n_posts=5,
            n_in_interest=5,
            commitment_pct=c[1],
            first_post=None,
            last_post=None,
            activity_days=days,
            activity_rate=c[2],
        )
        for i, (c, days, _) in enumerate(fixture)
    ]
    model = KMeansModel(
        k=8,
        centroids=centroids.copy(),
        centroids_raw=centroids,
        labels=tuple(range(8)),
        inertia=0.0,
        inertia_path=(0.0,),
    )
    labels = label_clusters(model, profiles)
    for cluster, (_, _, expected) in enumerate(fixture):
        assert labels[cluster].quadrant.value == expected, f"cluster {cluster}"


def test_criterion_3_modularity_oracle():
    from forumlens.community import Partition

    # Hand case: everything in one community scores exactly 0.
    graph = two_bicliques()
    keys = sorted(node_keys(graph))
    all_in_one = Partition(assignment={k: 0 for k in keys}, quality=0.0)
    assert modularity(graph, all_in_one) == 0.0

    # Hand case: the two disjoint 2x2 bicliques split by component score 0.5.
    by_component = Partition(
        assignment={
            "actor:a1": 0, "actor:a2": 0, "capec:1": 0, "capec:2": 0,
            "actor:b1": 1, "actor:b2": 1, "capec:3": 1, "capec:4": 1,
        },
        quality=0.0,
    )
    assert modularity(graph, by_component) == 0.5

    # 200 random bipartite graphs of at most 8 nodes with random partitions.
    rng = random.Random(2024)
    for _ in range(200):
        g = random_bigraph(rng, max_actors=4, max_capecs=4)
        assert len(node_keys(g)) <= 8
        assignment = {key: rng.randrange(4) for key in node_keys(g)}
        ours = modularity(g, Partition(assignment=assignment, quality=0.0))
        reference = modularity_oracle(g, assignment)
        assert abs(ours - reference) <= 1e-12


def _leiden_suite():
    rng = random.Random(99)
    suite = [
        two_bicliques(),                                  # 8 nodes, 2 planted blocks
        bigraph([("a", 1)]),                              # single edge
        bigraph([("a", 1), ("b", 1), ("c", 1)]),          # star
        bigraph([("a", 1), ("b", 1), ("b", 2), ("c", 2)]),  # path
        bigraph([("a", 1), ("a", 2), ("b", 1), ("b", 2), ("c", 3), ("d", 3)]),
    ]
    for _ in range(20):
        suite.append(random_bigraph(rng, max_actors=4, max_capecs=4))
    # Exact-size graphs keep the upper end of the node range covered.
    suite.append(random_bigraph_exact(rng, 4, 5))
    suite.append(random_bigraph_exact(rng, 5, 4))
    suite.append(random_bigraph_exact(rng, 5, 5))
    suite.append(random_bigraph_exact(rng, 5, 5))
    assert all(len(node_keys(g)) <= 10 for g in suite)
    assert max(len(node_keys(g)) for g in suite) == 10
    return suite


def test_criterion_4_leiden_quality_and_guarantees():
    for graph in _leiden_suite():
        optimum = brute_force_optimum(graph)
        found = leiden(graph, seed=0, restarts=10)

        threshold = 0.95 * optimum.quality
        if optimum.quality < 0:
            threshold = optimum.quality / 0.95  # a negative optimum flips the bound
        assert found.quality >= threshold - 1e-12

        for members in grouped(found.assignment).values():
            assert community_members_connected(graph, set(members))

        repeats = [leiden(graph, seed=0, restarts=10) for _ in range(3)]
        assert all(r.assignment == found.assignment for r in repeats)
        assert all(r.quality == found.quality for r in repeats)


def test_criterion_5_planted_community_recovery():
    config_base = dict(n_communities=4, actors_per_community=25,
                       capecs_per_community=10, noise=0.05)
    scores = []
    for seed in range(5):
        corpus, snapshot, truth = generate(SynthConfig(seed=seed, **config_base))
        graph = build_graph(corpus, snapshot)
        partition = leiden(filtered(graph, filter_popular_capecs(graph, threshold=500)), seed=0)
        scores.append(community_agreement(partition, truth))
    assert sum(scores) / len(scores) >= 0.9


def test_criterion_6_kmeans_and_silhouette_oracles():
    rng = np.random.default_rng(777)
    for trial in range(20):
        n = int(rng.integers(8, 40))
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, min(6, n)))
        X = rng.normal(size=(n, d))
        init = X[rng.choice(n, size=k, replace=False)]
        model = kmeans_from(X, init)

        path = model.inertia_path
        assert all(later <= earlier + 1e-9 for earlier, later in zip(path, path[1:]))

        _, ref_inertia = lloyd_reference(X, init)
        assert model.inertia == pytest.approx(ref_inertia, rel=1e-9, abs=1e-9)

        labels = rng.integers(0, k, size=n)
        if len(set(labels.tolist())) < 2:
            labels[0] = (labels[0] + 1) % k
        assert silhouette(X, labels) == pytest.approx(
            silhouette_oracle(X, labels), rel=1e-9, abs=1e-9
        )

    for seed in range(5):
        blob_rng = np.random.default_rng(100 + seed)
        X = np.vstack(
            [
                blob_rng.normal(loc=center, scale=0.6, size=(25, 3))
                for center in ((0, 0, 0), (9, 9, 0), (0, 9, 9))
            ]
        )
        Z, _ = standardize(X)
        assert best_by_silhouette(sweep_k(Z, 2, 8, seed=seed)).k == 3


def test_criterion_7_popularity_filter_semantics():
    edges = []
    edges += [(f"x{i}", 1) for i in range(499)]
    edges += [(f"y{i}", 2) for i in range(500)]
    edges += [(f"z{i}", 3) for i in range(501)]
    edges.append(("z0", 1))  # z0 keeps a second home and must survive
    graph = bigraph(edges)
    degrees = Counter(c for capecs in graph.values() for c in capecs)
    assert degrees == {1: 500, 2: 500, 3: 501}

    report = filter_popular_capecs(graph, threshold=500)
    assert set(report.removed_capecs) == {3}
    kept = filtered(graph, report)
    assert frozenset().union(*kept.values()) == {1, 2}
    assert report.removed_actors == {f"z{i}" for i in range(1, 501)}
    assert "z0" in kept

    second = filter_popular_capecs(kept, threshold=500)
    assert filtered(kept, second) == kept
    assert not second.removed_capecs and not second.removed_actors


def test_criterion_8_boundary_rules():
    # Exactly half of a post's CAPECs inside the community counts in-interest.
    assert post_in_interest({1, 2}, {1, 9}) is True
    assert post_in_interest({1, 2, 3}, {1}) is False

    def stub(n_posts):
        return ActorProfile(
            actor_id=f"n{n_posts}",
            community_id=0,
            skill_values=(1,),
            skill_score=1.0,
            n_posts=n_posts,
            n_in_interest=n_posts,
            commitment_pct=100.0,
            first_post=None,
            last_post=None,
            activity_days=1,
            activity_rate=float(n_posts),
        )

    kept = build_sample([stub(3), stub(4)])
    assert [p.n_posts for p in kept] == [4]

    rng = random.Random(0)
    checked_over_30pct = 0
    for _ in range(1000):
        n = rng.randint(1, 60)
        values = [rng.choice([1, 2, 3]) for _ in range(n)]
        score = skill_score(values)
        if values.count(3) / n > 0.3:
            checked_over_30pct += 1
            assert score == 3
    assert checked_over_30pct > 200  # the property was actually exercised


def test_criterion_9_end_to_end_determinism(tmp_path):
    inputs = tmp_path / "inputs"
    code = main(
        ["synth", "--workspace", str(tmp_path / "scratch"), "--out", str(inputs), "--seed", "3"]
    )
    assert code == 0

    def run(ws):
        code = main(
            [
                "run-all",
                "--workspace", str(ws),
                "--posts", str(inputs / "posts.jsonl"),
                "--cve-cwe", str(inputs / "cve_cwe.csv"),
                "--capec-json", str(inputs / "capec.json"),
            ]
        )
        assert code == 0
        manifest = json.loads((ws / "manifest.json").read_text())
        names = sorted(
            name
            for stage in manifest["stages"].values()
            for name in stage["artifacts"]
        )
        return {
            name: hashlib.sha256((ws / name).read_bytes()).hexdigest() for name in names
        }

    first = run(tmp_path / "ws1")
    second = run(tmp_path / "ws2")
    assert first == second
    assert len(first) >= 12  # every stage contributed artifacts
