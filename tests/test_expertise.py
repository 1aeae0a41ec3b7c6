"""Tests for skill scoring, commitment, activity rate, and the analysis sample."""

from __future__ import annotations

import logging
import math
import random

import pytest
from hypothesis import given, strategies as st

from forumlens.community import Partition
from forumlens.errors import ValidationError
from forumlens.expertise import (
    ActorProfile,
    activity_days,
    activity_rate,
    build_profiles,
    build_sample,
    load_profiles,
    post_in_interest,
    sample_stats,
    save_profiles,
    skill_score,
)
from forumlens.graph import actor_capecs, build_graph, post_capec_sets, surviving_posts

from conftest import post, snapshot_from, ts

from forumlens.ingest import build_corpus


def _nearest_rank_reference(values, percentile):
    ranked = sorted(values)
    rank = max(math.ceil(percentile / 100.0 * len(ranked)), 1)
    return ranked[rank - 1]


def test_skill_score_worked_examples():
    assert skill_score([1, 2, 3]) == 3
    assert skill_score([1, 1, 1, 2]) == 1
    assert skill_score([1, 2, 2, 3]) == 2
    assert skill_score([3]) == 3
    assert skill_score([1, 3], percentile=50) == 1


def test_skill_score_rank_boundaries():
    # 70th percentile of 10 values: rank ceil(7.0) = 7.
    values = [1] * 6 + [3] * 4
    assert skill_score(values) == 3
    # With exactly 30% threes the rank-7 element is still a non-three.
    values = [1] * 7 + [3] * 3
    assert skill_score(values) == 1


def test_skill_score_more_than_30pct_threes_gives_3():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 40)
        n_threes = rng.randint(0, n)
        values = [3] * n_threes + [rng.choice([1, 2]) for _ in range(n - n_threes)]
        rng.shuffle(values)
        if n_threes / n > 0.3:
            assert skill_score(values) == 3


def test_skill_score_matches_nearest_rank_reference():
    rng = random.Random(1)
    for _ in range(300):
        values = [rng.choice([1, 2, 3]) for _ in range(rng.randint(1, 30))]
        pct = rng.randint(1, 100)
        assert skill_score(values, pct) == _nearest_rank_reference(values, pct)


def test_skill_score_validation():
    with pytest.raises(ValidationError):
        skill_score([])
    with pytest.raises(ValidationError):
        skill_score([1, 4])
    with pytest.raises(ValidationError):
        skill_score([1], percentile=0)


@given(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=50))
def test_skill_score_monotone_in_percentile(values):
    scores = [skill_score(values, p) for p in range(1, 101)]
    assert all(a <= b for a, b in zip(scores, scores[1:]))
    assert scores[0] == min(values)
    assert scores[-1] == max(values)


def test_post_in_interest_majority_rule():
    coi = {1, 2, 3}
    assert post_in_interest({1, 2}, coi)
    assert post_in_interest({1, 9}, coi)  # exactly 50% counts as in-interest
    assert not post_in_interest({8, 9, 1}, coi)
    assert post_in_interest({1}, coi)
    assert not post_in_interest({9}, coi)
    with pytest.raises(ValidationError):
        post_in_interest(set(), coi)


def test_activity_rate_worked_example():
    # 10 posts over 2021-03-20 to 2021-12-20 is 275 days: 0.036 posts/day.
    rate = activity_rate(10, ts("2021-03-20"), ts("2021-12-20"))
    assert round(rate, 3) == 0.036


def test_activity_days_clamped_to_one():
    same = ts("2021-05-05")
    assert activity_days(same, same) == 1
    assert activity_rate(3, same, same) == pytest.approx(3.0)
    # Sub-day gaps also clamp.
    assert activity_days(ts("2021-05-05T01:00:00"), ts("2021-05-05T23:00:00")) == 1


def test_activity_rate_validation():
    with pytest.raises(ValidationError):
        activity_days(ts("2021-02-01"), ts("2021-01-01"))
    with pytest.raises(ValidationError):
        activity_rate(0, ts("2021-01-01"), ts("2021-02-01"))


def _profile_fixture():
    snapshot = snapshot_from(
        cve_to_cwes={
            "CVE-2021-0001": ["CWE-79"],
            "CVE-2021-0002": ["CWE-89"],
            "CVE-2021-0003": ["CWE-22"],
        },
        capecs=[
            (63, "XSS", ["CWE-79"]),
            (66, "SQLi", ["CWE-89"]),
            (126, "Path traversal", ["CWE-22"]),
        ],
        skills={63: "Low", 66: "High", 126: "Medium"},
    )
    corpus = build_corpus(
        [
            post("p1", "alice", "2021-01-01", "CVE-2021-0001"),
            post("p2", "alice", "2021-01-11", "CVE-2021-0002"),
            post("p3", "alice", "2021-01-21", "CVE-2021-0003"),
            post("p4", "bob", "2021-03-01", "CVE-2021-0003"),
        ]
    )
    graph = build_graph(corpus, snapshot)
    assignment = {
        "actor:alice": 0,
        "capec:63": 0,
        "capec:66": 0,
        "actor:bob": 1,
        "capec:126": 1,
    }
    partition = Partition(assignment=assignment, quality=0.0)
    return corpus, snapshot, graph, partition


def _profiles(corpus, snapshot, graph, partition):
    posts = surviving_posts(post_capec_sets(corpus.table(), snapshot), graph)
    return build_profiles(posts, actor_capecs(posts), snapshot, partition)


def test_build_profiles_features():
    profiles = {p.actor_id: p for p in _profiles(*_profile_fixture())}

    alice = profiles["alice"]
    assert alice.community_id == 0
    assert sorted(alice.skill_values) == [1, 2, 3]
    assert alice.skill_score == 3.0
    assert alice.n_posts == 3
    # p1 (63) and p2 (66) are in community 0; p3 (126) is not.
    assert alice.commitment_pct == pytest.approx(100.0 * 2 / 3)
    assert alice.activity_days == 20
    assert alice.activity_rate == pytest.approx(3 / 20)
    assert not alice.one_timer

    bob = profiles["bob"]
    assert bob.n_posts == 1 and bob.one_timer
    assert bob.activity_days == 1
    assert bob.commitment_pct == pytest.approx(100.0)
    assert bob.skill_score == 2.0


def test_build_profiles_counts_skill_per_occurrence():
    corpus, snapshot, graph, partition = _profile_fixture()
    corpus = build_corpus(
        corpus.posts + [post("p5", "alice", "2021-01-25", "CVE-2021-0002 encore")]
    )
    alice = next(
        p for p in _profiles(corpus, snapshot, graph, partition) if p.actor_id == "alice"
    )
    # CAPEC 66 appears in two posts, so its skill value counts twice
    assert sorted(alice.skill_values) == [1, 2, 3, 3]


def test_build_profiles_drops_unscorable_actor():
    snapshot = snapshot_from(
        cve_to_cwes={"CVE-2021-0001": ["CWE-79"]},
        capecs=[(63, "XSS", ["CWE-79"])],
    )
    corpus = build_corpus([post("p1", "alice", "2021-01-01", "CVE-2021-0001")])
    graph = build_graph(corpus, snapshot)
    partition = Partition(assignment={"actor:alice": 0, "capec:63": 0}, quality=0.0)
    assert _profiles(corpus, snapshot, graph, partition) == []


def test_build_profiles_warns_once_with_the_count_of_unscorable_actors(caplog):
    # CAPEC 126 has no skill, so each of the seven actors posting only about it is dropped
    snapshot = snapshot_from(
        cve_to_cwes={"CVE-2021-0001": ["CWE-79"], "CVE-2021-0003": ["CWE-22"]},
        capecs=[(63, "XSS", ["CWE-79"]), (126, "Path traversal", ["CWE-22"])],
        skills={63: "Low"},
    )
    unscorable = [f"u{i}" for i in range(7)]
    corpus = build_corpus(
        [post("p0", "alice", "2021-01-01", "CVE-2021-0001")]
        + [post(f"p{i + 1}", a, "2021-01-02", "CVE-2021-0003") for i, a in enumerate(unscorable)]
    )
    assignment = {"actor:alice": 0, "capec:63": 0, "capec:126": 1}
    assignment.update({f"actor:{a}": 1 for a in unscorable})
    partition = Partition(assignment=assignment, quality=0.0)
    with caplog.at_level(logging.WARNING, logger="forumlens.expertise"):
        profiles = _profiles(corpus, snapshot, build_graph(corpus, snapshot), partition)
    assert [p.actor_id for p in profiles] == ["alice"]
    assert [r.getMessage() for r in caplog.records if r.name == "forumlens.expertise"] == [
        "dropped 7 actor(s) with no skill information for any CAPEC (first: u0, u1, u2, u3, u4)"
    ]


def test_build_sample_min_posts():
    def stub(actor, n):
        return ActorProfile(
            actor_id=actor,
            community_id=0,
            skill_values=(2,),
            skill_score=2.0,
            n_posts=n,
            n_in_interest=n,
            commitment_pct=100.0,
            first_post=None,
            last_post=None,
            activity_days=1,
            activity_rate=float(n),
        )

    profiles = [stub("a", 3), stub("b", 4), stub("c", 10)]
    kept = build_sample(profiles)
    assert [p.actor_id for p in kept] == ["b", "c"]
    assert build_sample(profiles, min_posts=1) == profiles
    with pytest.raises(ValidationError):
        build_sample(profiles, min_posts=0)


def test_sample_stats_blocks():
    profiles = _profiles(*_profile_fixture())
    stats = sample_stats(profiles)
    assert stats["n_actors"] == 2
    assert stats["n_posts"]["max"] == 3
    assert set(stats) == {
        "n_actors", "n_posts", "skill_values_len", "skill_score",
        "commitment_pct", "activity_days", "activity_rate",
    }


def test_profiles_csv_round_trip(tmp_path):
    profiles = _profiles(*_profile_fixture())
    path = save_profiles(profiles, tmp_path / "profiles.csv")
    loaded = load_profiles(path)
    assert len(loaded) == len(profiles)
    for a, b in zip(loaded, profiles):
        assert a.actor_id == b.actor_id
        assert a.community_id == b.community_id
        assert a.skill_score == b.skill_score
        assert a.commitment_pct == b.commitment_pct
        assert a.n_posts == b.n_posts
        assert a.n_in_interest == b.n_in_interest
        assert a.activity_days == b.activity_days
        assert a.activity_rate == b.activity_rate
        assert a.one_timer == b.one_timer


def test_load_profiles_rejects_wrong_columns(tmp_path):
    path = tmp_path / "profiles.csv"
    path.write_text("actor,score\nx,1\n")
    with pytest.raises(ValidationError):
        load_profiles(path)
