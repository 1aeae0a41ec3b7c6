"""Tests for standardization, k-means, silhouette selection, and labeling."""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from forumlens import cluster
from forumlens.cli import main
from forumlens.cluster import (
    _SILHOUETTE_BLOCK_ROWS,
    _compact,
    _kmeans_pp_init,
    _rows,
    _squared_distances,
    ActivityDescriptor,
    ClusterLabel,
    KMeansModel,
    Quadrant,
    Scaler,
    best_by_silhouette,
    feature_matrix,
    kmeans,
    label_clusters,
    silhouette,
    silhouettes,
    standardize,
    summarize_clusters,
    sweep_k,
    with_raw_centroids,
)
from forumlens.errors import ValidationError
from forumlens.expertise import ActorProfile

from conftest import (
    grouped,
    kmeans_from,
    kmeans_pp_init_every_row,
    lloyd_every_row,
    lloyd_reference,
    silhouette_oracle,
    silhouettes_every_row,
)


def _profile(skill=2.0, commit=50.0, rate=1.0, days=10, n_posts=5, actor="a"):
    return ActorProfile(
        actor_id=actor,
        community_id=0,
        skill_values=(2,),
        skill_score=skill,
        n_posts=n_posts,
        n_in_interest=n_posts,
        commitment_pct=commit,
        first_post=None,
        last_post=None,
        activity_days=days,
        activity_rate=rate,
    )


def _blobs(seed=0, n_per=20, centers=((0, 0, 0), (8, 8, 0), (0, 8, 8))):
    rng = np.random.default_rng(seed)
    rows = [
        rng.normal(loc=center, scale=0.5, size=(n_per, 3)) for center in centers
    ]
    return np.vstack(rows)


def test_feature_matrix_columns():
    profiles = [_profile(3.0, 80.0, 0.25), _profile(1.0, 20.0, 4.0)]
    X = feature_matrix(profiles)
    assert X.shape == (2, 3)
    assert X[0].tolist() == [3.0, 80.0, 0.25]
    assert feature_matrix([]).shape == (0, 3)


def test_standardize_scales_every_column_and_records_how():
    X = np.array([[1.0, 10.0, 0.1], [3.0, 90.0, 0.4], [2.0, 50.0, 0.7]])
    Z, scaler = standardize(X)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(Z.std(axis=0), 1.0, atol=1e-12)
    assert scaler == Scaler(
        mean=tuple(X.mean(axis=0).tolist()),
        std=tuple(X.std(axis=0).tolist()),
        constant=(False, False, False),
    )


def test_standardize_constant_column():
    X = np.array([[2.0, 5.0], [2.0, 7.0], [2.0, 9.0]])
    Z, scaler = standardize(X)
    # Constant column is centered, not divided by zero.
    assert Z[:, 0].tolist() == [0.0, 0.0, 0.0]
    assert np.allclose(Z[:, 1].std(), 1.0, atol=1e-12)
    assert scaler == Scaler(mean=(2.0, 7.0), std=(0.0, float(np.std([5.0, 7.0, 9.0]))),
                            constant=(True, False))


def test_standardize_validation():
    with pytest.raises(ValidationError):
        standardize(np.array([[1.0, 2.0]]))
    with pytest.raises(ValidationError):
        standardize(np.array([[1.0], [np.nan]]))


def test_kmeans_deterministic():
    X = _blobs(seed=1)
    a = kmeans(X, 3, seed=4)
    b = kmeans(X, 3, seed=4)
    assert a.labels == b.labels
    assert a.inertia == b.inertia
    assert np.array_equal(a.centroids, b.centroids)


def test_kmeans_inertia_path_non_increasing():
    rng = np.random.default_rng(9)
    for _ in range(10):
        X = rng.normal(size=(rng.integers(10, 40), 3))
        model = kmeans(X, int(rng.integers(2, 5)), seed=0)
        path = model.inertia_path
        assert all(a >= b - 1e-9 for a, b in zip(path, path[1:]))


def test_kmeans_matches_reference_from_same_start():
    rng = np.random.default_rng(12)
    for trial in range(10):
        X = rng.normal(size=(25, 3))
        k = 2 + trial % 3
        init = X[rng.choice(25, size=k, replace=False)]
        model = kmeans_from(X, init)
        ref_labels, ref_inertia = lloyd_reference(X, init)
        assert model.inertia == pytest.approx(ref_inertia, rel=1e-9, abs=1e-9)
        # _compact renames but never regroups; compare the groupings.
        groups = grouped(dict(enumerate(model.labels))).values()
        assert set(groups) == set(grouped(dict(enumerate(ref_labels))).values())


def test_squared_distances_sum_three_columns_in_einsums_order():
    rng = np.random.default_rng(21)
    for _ in range(200):
        X = rng.normal(size=(int(rng.integers(1, 300)), 3)) * rng.uniform(0.01, 100.0, size=3)
        C = rng.normal(size=(int(rng.integers(1, 13)), 3))
        diff = X[:, None, :] - C[None, :, :]
        assert np.array_equal(_squared_distances(X, C), np.einsum("ijk,ijk->ij", diff, diff))
    for d in (1, 2, 4, 7):
        X, C = rng.normal(size=(50, d)), rng.normal(size=(6, d))
        diff = X[:, None, :] - C[None, :, :]
        expected = np.einsum("ijk,ijk->ij", diff, diff)
        assert np.allclose(_squared_distances(X, C), expected, rtol=1e-12, atol=0.0)


def _with_duplicates(rng, n, d=3):
    """n rows drawn from about n/3 distinct ones."""
    distinct = rng.normal(size=(max(2, n // 3), d))
    return distinct[rng.integers(0, distinct.shape[0], size=n)]


def test_kmeans_keeps_the_bits_of_every_row_lloyd():
    # distances once per distinct row, and member means from bincount sums,
    # against the every-row einsum and mean() iteration
    rng = np.random.default_rng(29)
    for trial in range(40):
        n = int(rng.integers(4, 200))
        X = _with_duplicates(rng, n)
        if trial % 4 == 0:
            X[:, 1] = -0.0  # signed zeros in a constant column
        k = int(rng.integers(1, min(8, n) + 1))
        init = X[rng.choice(n, size=k, replace=False)]  # may repeat a row: revives run
        model = kmeans_from(X, init)
        labels, centroids, inertia, path = lloyd_every_row(X, init)
        dense, kept, k_eff = _compact(labels, centroids)
        assert (model.k, model.labels) == (k_eff, dense)
        assert model.centroids.tobytes() == kept.tobytes()
        assert model.inertia == inertia and model.inertia_path == tuple(path)


def test_kmeans_pp_init_keeps_the_draws_of_every_row_seeding():
    # distances once per distinct row, gathered back before the weights are summed
    rng = np.random.default_rng(31)
    for trial in range(40):
        n = int(rng.integers(1, 200))
        X = _with_duplicates(rng, n)
        if trial % 4 == 0:
            X[:, 1] = -0.0
        k = int(rng.integers(1, min(12, n) + 1))  # may exceed the distinct rows: zero weights
        got = _kmeans_pp_init(_rows(X), k, np.random.default_rng([trial, 0]))
        assert np.array_equal(got, kmeans_pp_init_every_row(X, k, np.random.default_rng([trial, 0])))


def test_kmeans_recovers_separated_blobs():
    X = _blobs(seed=3)
    model = kmeans(X, 3, seed=0)
    assert model.k == 3
    # Each blob of 20 consecutive rows lands in a single cluster.
    for start in range(0, 60, 20):
        assert len(set(model.labels[start:start + 20])) == 1


def test_kmeans_handles_duplicate_points():
    X = np.zeros((6, 2))
    X[3:] = 1.0
    model = kmeans(X, 2, seed=0)
    assert model.k == 2
    assert model.inertia == pytest.approx(0.0, abs=1e-12)


def test_kmeans_empty_cluster_reseeded():
    # The third starting centroid is nobody's nearest, so it begins empty;
    # the revive step must still produce k distinct non-empty clusters.
    X = np.array([[0.0, 0.0]] * 5 + [[10.0, 0.0]] * 5 + [[0.0, 10.0]] * 5)
    init = np.array([[0.0, 0.0], [0.01, 0.0], [50.0, 50.0]])
    d2 = ((X[:, None, :] - init[None, :, :]) ** 2).sum(axis=2)
    assert 2 not in set(d2.argmin(axis=1).tolist())
    model = kmeans_from(X, init)
    assert model.k == 3
    assert model.inertia == pytest.approx(0.0, abs=1e-12)


def test_kmeans_validation():
    X = np.zeros((4, 2))
    with pytest.raises(ValidationError):
        kmeans(X, 0)
    with pytest.raises(ValidationError):
        kmeans(X, 5)
    with pytest.raises(ValidationError):
        kmeans(X, 2, restarts=0)
    with pytest.raises(ValidationError):
        kmeans(np.zeros((0, 2)), 1)


def _oracle_cases():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(5, 25))
        X = rng.normal(size=(n, 3))
        labels = rng.integers(0, 3, size=n)
        if len(set(labels.tolist())) < 2:
            labels[0] = (labels[0] + 1) % 3
        yield X, labels
    # duplicate rows: zero distances inside and across clusters
    X = np.repeat(rng.normal(size=(6, 3)), 4, axis=0)
    yield X, rng.integers(0, 3, size=24)
    # singleton clusters next to a large one
    X = rng.normal(size=(12, 2))
    yield X, np.array([0] * 9 + [1, 2, 3])
    # non-contiguous, unsorted label values
    X = rng.normal(size=(20, 3))
    yield X, rng.choice([-4, 7, 30], size=20)
    # more rows than one block, and not a multiple of it
    X = rng.normal(size=(2 * _SILHOUETTE_BLOCK_ROWS + 37, 3))
    X[-10:] = X[:10]
    yield X, rng.integers(0, 4, size=X.shape[0]) * 5


def test_silhouette_matches_definitional_oracle():
    for X, labels in _oracle_cases():
        assert silhouette(X, labels) == pytest.approx(
            silhouette_oracle(X, labels), rel=1e-9, abs=1e-9
        )


def test_silhouettes_match_per_labeling_oracle():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(150, 3))
    X[100:120] = X[0]
    labelings = [
        rng.integers(0, 2, size=150),
        rng.integers(0, 5, size=150) * 2 + 1,
        np.array([3] + [9] * 149),
    ]
    scores = silhouettes(X, labelings)
    assert len(scores) == 3
    for score, labels in zip(scores, labelings):
        assert score == pytest.approx(silhouette_oracle(X, labels), rel=1e-9, abs=1e-9)
        assert score == silhouette(X, labels)
    assert silhouettes(X, []) == []


def _distinct_row_cases():
    rng = np.random.default_rng(31)
    # duplicates that share every label
    X = _with_duplicates(rng, 120)
    row_label = {row.tobytes(): i % 4 for i, row in enumerate(np.unique(X, axis=0))}
    yield X, [[row_label[row.tobytes()] for row in X], [row_label[row.tobytes()] % 2 for row in X]]
    # duplicates split across labels, and one labeling that keeps them together
    yield X, [rng.integers(0, 4, size=120), [row_label[row.tobytes()] for row in X]]
    # singletons, one of them a duplicate of a row in a large cluster
    X = rng.normal(size=(15, 3))
    X[14] = X[0]
    yield X, [[0] * 12 + [1, 2, 3], [0] * 7 + [1] * 7 + [2]]
    # more rows than two blocks, not a multiple of one, mostly duplicated
    n = 2 * _SILHOUETTE_BLOCK_ROWS + 37
    X = _with_duplicates(rng, n)
    X[:40] = rng.normal(size=(40, 3))
    yield X, [rng.integers(0, k, size=n) for k in (2, 3, 5)]
    # every row equal in X: all distances zero
    yield np.zeros((9, 3)), [[0, 0, 0, 1, 1, 1, 2, 2, 2]]


@pytest.mark.parametrize("pooled", [False, True])
def test_silhouettes_keep_the_bits_of_scoring_every_row(monkeypatch, pooled):
    if pooled and not hasattr(os, "sched_getaffinity"):
        pytest.skip("the pool is Linux-only")
    if pooled:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(cluster, "POOL_MIN_ROWS", 0 if pooled else 10**9)
    for X, labelings in _distinct_row_cases():
        assert silhouettes(X, labelings) == silhouettes_every_row(X, labelings)


def _peak_bytes(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_silhouette_memory_is_blocked(monkeypatch):
    # An n x n x d difference tensor at n=3000, d=3 alone would take 216 MB. In-process,
    # since forked workers' memory is not traced: a block holds its distances and one
    # column's differences, each block rows x n floats.
    monkeypatch.setattr(cluster, "POOL_MIN_ROWS", 10**9)
    X = np.random.default_rng(0).normal(size=(3000, 3))
    peak = _peak_bytes(silhouette, X, np.arange(3000) % 5)
    assert peak < 2.5 * _SILHOUETTE_BLOCK_ROWS * 3000 * 8, peak


def test_sweep_k_keeps_one_run_per_k(monkeypatch):
    # each k's winner is kept as its restarts arrive, so restarts cost no memory
    monkeypatch.setattr(cluster, "POOL_MIN_ROWS", 10**9)
    X = standardize(np.random.default_rng(1).normal(size=(3000, 3)))[0]
    one = _peak_bytes(sweep_k, X, 2, 8, seed=0, restarts=1)
    ten = _peak_bytes(sweep_k, X, 2, 8, seed=0, restarts=10)
    assert ten < one + 0.5 * 2**20, (one, ten)


def test_silhouette_perfect_separation_near_one():
    X = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
    assert silhouette(X, [0, 0, 1, 1]) > 0.95


def test_silhouette_singletons_score_zero():
    X = np.array([[0.0], [5.0], [5.1]])
    value = silhouette(X, [0, 1, 1])
    by_hand = silhouette_oracle(X, [0, 1, 1])
    assert value == pytest.approx(by_hand, abs=1e-12)


def test_silhouette_validation():
    with pytest.raises(ValidationError):
        silhouette(np.zeros((2, 2)), [0, 1])
    with pytest.raises(ValidationError):
        silhouette(np.zeros((4, 2)), [0, 0, 0, 0])
    with pytest.raises(ValidationError):
        silhouette(np.zeros((4, 2)), [0, 1])
    with pytest.raises(ValidationError):
        silhouettes(np.zeros((4, 2)), [[0, 1, 0, 1], [0, 0, 0, 0]])


def test_sweep_and_select_k_on_blobs():
    X = _blobs(seed=7)
    Z, _ = standardize(X)
    models = sweep_k(Z, 2, 6, seed=0)
    assert all(m.silhouette is not None for m in models)
    best = best_by_silhouette(models)
    assert best.k == 3


def test_select_k_tie_prefers_smaller_k():
    # Strictly-greater replacement keeps the first (smallest-k) model on ties.
    X = _blobs(seed=2, centers=((0, 0, 0), (9, 9, 9)))
    best = best_by_silhouette(sweep_k(standardize(X)[0], 2, 5, seed=1))
    assert best.k == 2


def test_best_by_silhouette_ties_keep_first():
    fitted = kmeans(_blobs(seed=0), 2, seed=0)
    models = [replace(fitted, silhouette=value) for value in (0.5, 0.7, 0.7)]
    assert best_by_silhouette(models) is models[1]
    with pytest.raises(ValidationError):
        best_by_silhouette([])


def test_best_run_ties_keep_the_earliest_restart():
    rows = _rows(_blobs(seed=0))
    fitted = cluster._fit(rows, (2, 0, 0))
    runs = [fitted[:2] + (inertia,) + fitted[3:] for inertia in (9.0, 4.0, 4.0, 5.0, 4.0)]
    assert cluster._best(runs)[0] == 1
    assert cluster._best(runs[3:])[0] == 1
    # it keeps the winning run itself as the runs arrive, so sweep_k need not list them
    assert cluster._best(iter(runs))[1] is runs[1]


def _sweep_case(seed):
    rng = np.random.default_rng(seed)
    X = np.vstack([_blobs(seed=seed, n_per=25), _with_duplicates(rng, 90) * 4.0])
    return standardize(np.round(X, 1))[0]


@pytest.mark.parametrize("pooled", [False, True])
def test_sweep_k_equals_kmeans_per_k(monkeypatch, caplog, pooled):
    if pooled and not hasattr(os, "sched_getaffinity"):
        pytest.skip("the pool is Linux-only")
    if pooled:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(cluster, "POOL_MIN_ROWS", 0 if pooled else 10**9)
    caplog.set_level(logging.DEBUG, logger="forumlens.cluster")
    for case in range(3):
        X, seed, restarts = _sweep_case(case), 40 + case, 4
        caplog.clear()
        models = sweep_k(X, 2, 8, seed=seed, restarts=restarts)
        assert ("over 2 processes" if pooled else "in-process") in caplog.text

        expected = [m for m in (kmeans(X, k, seed, restarts) for k in range(2, 9)) if m.k >= 2]
        scores = silhouettes_every_row(X, [m.labels for m in expected])
        assert len(models) == len(expected)
        for model, want, score in zip(models, expected, scores):
            assert (model.k, model.labels, model.silhouette) == (want.k, want.labels, score)
            assert model.centroids.tobytes() == want.centroids.tobytes()
            assert (model.inertia, model.inertia_path) == (want.inertia, want.inertia_path)

        # each k's winner is its first restart of least inertia, fitted the first way
        won = {int(k): int(r) for k, r in re.findall(r"k=(\d+): restart (\d+) won", caplog.text)}
        for k in range(2, 9):
            inertias = [
                lloyd_every_row(X, _kmeans_pp_init(_rows(X), k, np.random.default_rng([seed, r])))[2]
                for r in range(restarts)
            ]
            if k in won:
                assert won[k] == inertias.index(min(inertias))


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="the pool is Linux-only")
def test_sweep_k_inside_a_daemon_gives_the_result_it_gives_alone(monkeypatch):
    # a daemonic process, such as a multiprocessing pool worker, may not start
    # multiprocessing processes of its own; the fork pool forks its workers there too
    X = _sweep_case(0)
    monkeypatch.setattr(cluster, "POOL_MIN_ROWS", 0)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        in_daemon = pool.apply(sweep_k, (X, 2, 5), {"seed": 3, "restarts": 3})
    alone = sweep_k(X, 2, 5, seed=3, restarts=3)
    assert [(m.labels, m.inertia, m.silhouette) for m in in_daemon] == [
        (m.labels, m.inertia, m.silhouette) for m in alone
    ]


def test_sweep_k_validation():
    X = _blobs(seed=0)
    with pytest.raises(ValidationError):
        sweep_k(X, 1, 5)
    with pytest.raises(ValidationError):
        sweep_k(X, 4, 3)
    with pytest.raises(ValidationError):
        sweep_k(X, 2, X.shape[0] + 1)
    with pytest.raises(ValidationError):
        sweep_k(X, 2, 5, restarts=0)


def _model_from_raw(centroids_raw, labels):
    arr = np.asarray(centroids_raw, dtype=float)
    return KMeansModel(
        k=arr.shape[0],
        centroids=arr.copy(),
        centroids_raw=arr,
        labels=tuple(labels),
        inertia=0.0,
        inertia_path=(0.0,),
    )


# Eight centroid fixtures spanning every quadrant/descriptor combination the
# labeler produces, with the activity-window facts that drive the short-lived
# demotion (cluster 1's members were active for a single day; cluster 2's for
# around half a year).
_LABEL_FIXTURE = [
    ((2.00, 22.47, 0.11), 10, "Amateur (Discrete)"),
    ((2.81, 97.62, 5.14), 1, "ProAmateur (ShortLived)"),
    ((2.96, 90.37, 0.28), 159, "Professional (Active)"),
    ((2.96, 25.32, 0.12), 488, "ProAmateur (Discrete)"),
    ((1.05, 24.32, 0.05), 30, "Amateur (Discrete)"),
    ((1.86, 84.81, 0.50), 60, "AverageCareerCriminal (Active)"),
    ((2.38, 18.46, 10.67), 1, "ProAmateur (Hyperactive)"),
    ((1.95, 24.51, 4.14), 2, "Amateur (Hyperactive)"),
]


def test_label_clusters_reference_fixture():
    centroids = [row[0] for row in _LABEL_FIXTURE]
    profiles = [
        _profile(skill=c[0], commit=c[1], rate=c[2], days=days, actor=f"a{i}")
        for i, (c, days, _) in enumerate(_LABEL_FIXTURE)
    ]
    model = _model_from_raw(centroids, labels=range(len(profiles)))
    labels = label_clusters(model, profiles)
    for cluster, (_, _, expected) in enumerate(_LABEL_FIXTURE):
        assert labels[cluster].display() == expected


def test_label_clusters_threshold_boundaries():
    cases = [
        ((2.2, 50.0, 0.0), Quadrant.PROFESSIONAL),
        ((2.19, 50.0, 0.0), Quadrant.AVERAGE_CAREER_CRIMINAL),
        ((2.2, 49.99, 0.0), Quadrant.PRO_AMATEUR),
        ((2.19, 49.99, 0.0), Quadrant.AMATEUR),
    ]
    centroids = [c for c, _ in cases]
    profiles = [
        _profile(skill=c[0], commit=c[1], rate=c[2], days=100, actor=f"a{i}")
        for i, (c, _) in enumerate(cases)
    ]
    labels = label_clusters(_model_from_raw(centroids, range(4)), profiles)
    for cluster, (_, quadrant) in enumerate(cases):
        assert labels[cluster].quadrant is quadrant
    # Hyperactive kicks in at exactly 4 posts/day.
    hyper = label_clusters(
        _model_from_raw([(1.0, 10.0, 4.0)], [0]), [_profile(rate=4.0, days=100)]
    )
    assert hyper[0].descriptor is ActivityDescriptor.HYPERACTIVE


def test_label_short_lived_uses_member_median():
    # Professional centroid, but three of five members active for one day.
    profiles = [
        _profile(days=1, actor="a"),
        _profile(days=1, actor="b"),
        _profile(days=1, actor="c"),
        _profile(days=200, actor="d"),
        _profile(days=300, actor="e"),
    ]
    model = _model_from_raw([(2.9, 95.0, 5.0)], [0] * 5)
    labels = label_clusters(model, profiles)
    assert labels[0] == ClusterLabel(Quadrant.PRO_AMATEUR, ActivityDescriptor.SHORT_LIVED)

    # Median above the cutoff keeps the Professional quadrant.
    model2 = _model_from_raw([(2.9, 95.0, 5.0)], [0] * 5)
    profiles2 = profiles[:2] + [
        _profile(days=50, actor="c"),
        _profile(days=200, actor="d"),
        _profile(days=300, actor="e"),
    ]
    labels2 = label_clusters(model2, profiles2)
    assert labels2[0].quadrant is Quadrant.PROFESSIONAL
    assert labels2[0].descriptor is ActivityDescriptor.HYPERACTIVE


def test_label_clusters_requires_alignment():
    model = _model_from_raw([(2.0, 50.0, 1.0)], [0, 0])
    with pytest.raises(ValidationError):
        label_clusters(model, [_profile()])


def test_labels_invariant_to_standardization():
    # Raw-unit thresholds: a raw centroid is its members' mean raw row, to the
    # bit, so the labels are those of the raw units themselves.
    rng = np.random.default_rng(17)
    skill = rng.uniform(1, 3, size=40)
    commit = rng.uniform(0, 100, size=40)
    rate = rng.uniform(0, 6, size=40)
    X = np.column_stack([skill, commit, rate])
    profiles = [
        _profile(skill=row[0], commit=row[1], rate=row[2], days=90, actor=f"a{i}")
        for i, row in enumerate(X)
    ]
    Z, _ = standardize(X)
    model = with_raw_centroids(kmeans(Z, 4, seed=0), X)
    labels_via_scaler = label_clusters(model, profiles)

    raw_means = np.vstack([
        X[np.array(model.labels) == c].mean(axis=0) for c in range(model.k)
    ])
    assert model.centroids_raw.tolist() == raw_means.tolist()
    direct = label_clusters(
        KMeansModel(
            k=model.k,
            centroids=model.centroids,
            centroids_raw=raw_means,
            labels=model.labels,
            inertia=model.inertia,
            inertia_path=model.inertia_path,
        ),
        profiles,
    )
    assert labels_via_scaler == direct


def test_summarize_clusters_payload():
    profiles = [
        _profile(3.0, 90.0, 0.2, days=100, actor="a"),
        _profile(2.9, 88.0, 0.3, days=150, actor="b"),
        _profile(1.0, 10.0, 0.1, days=10, actor="c"),
        _profile(1.1, 12.0, 0.2, days=12, actor="d"),
    ]
    X = feature_matrix(profiles)
    Z, _ = standardize(X)
    model = with_raw_centroids(kmeans(Z, 2, seed=0), X)
    summaries = summarize_clusters(model, profiles)
    assert len(summaries) == 2
    assert sum(s["members"] for s in summaries) == 4
    assert sum(s["pct_of_sample"] for s in summaries) == pytest.approx(100.0)
    payload = summaries[0]
    assert {"cluster", "quadrant", "descriptor", "label", "centroid_raw", "members"} <= set(payload)
    quadrants = {s["quadrant"] for s in summaries}
    assert quadrants == {Quadrant.PROFESSIONAL.value, Quadrant.AMATEUR.value}


# --- quadrant recovery on a planted corpus -------------------------------------
# Recovery is the share of the sample whose cluster's quadrant is the archetype
# the generator planted for the actor. The paper states its findings as
# quadrant shares, so a flag or a change that loses a quadrant must show here.


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """Synth 4x100 inputs at seed 41: four archetypes in equal shares."""
    root = tmp_path_factory.mktemp("planted")
    synth = ["synth", "--workspace", str(root / "ws"), "--out", str(root / "in"), "--seed", "41"]
    assert main([*synth, "--communities", "4", "--actors", "100"]) == 0
    return root / "in"


def _run_all_recovery(inputs: Path, ws: Path, *flags: str) -> float:
    run_all = [
        "run-all", "--workspace", str(ws), "--posts", str(inputs / "posts.jsonl"),
        "--cve-cwe", str(inputs / "cve_cwe.csv"), "--capec-json", str(inputs / "capec.json"),
        "--seed", "41", "--cluster-seed", "41", *flags,
    ]
    assert main(run_all) == 0
    archetype = json.loads((inputs / "truth.json").read_text())["actor_archetype"]
    clusters = json.loads((ws / "clusters.json").read_text())
    quadrants = [row["quadrant"] for row in clusters["clusters"]]
    hits = [quadrants[c] == archetype[actor] for actor, c in clusters["assignments"].items()]
    return sum(hits) / len(hits)


def test_the_default_threshold_recovers_the_planted_quadrants(planted, tmp_path):
    assert _run_all_recovery(planted, tmp_path / "ws") >= 0.95
    report = json.loads((tmp_path / "ws" / "report.json").read_text())
    assert [row["removed_capecs"] for row in report["graph"]["removal"]["by_skill"]] == [0, 0, 0]
    assert "removed by skill level: none\n" in (tmp_path / "ws" / "report.txt").read_text()


def test_a_threshold_that_removes_the_medium_level_shows_in_the_report_and_in_recovery(
    planted, tmp_path
):
    recovery = _run_all_recovery(planted, tmp_path / "ws", "--capec-threshold", "100")
    removal = json.loads((tmp_path / "ws" / "removal.json").read_text())
    assert [row for row in removal["by_skill"] if row["removed_capecs"]] == [
        {"level": "Medium", "capecs": 12, "removed_capecs": 12, "removed_edges": 1408}
    ]
    text = (tmp_path / "ws" / "report.txt").read_text()
    assert "removed by skill level: Medium 12 of 12 CAPECs, 1408 edges\n" in text
    # every actor keeps a CAPEC, but the quadrants are no longer the planted ones
    assert removal["n_removed_actors"] == 0
    assert recovery < 0.95


# The paper's mix: "about 4%" of the sample are key experts and "about half" are amateurs.
PAPER_MIX = {"Professional": 0.04, "ProAmateur": 0.20, "AverageCareerCriminal": 0.26,
             "Amateur": 0.50}


@pytest.fixture(scope="module")
def paper_mix_run(tmp_path_factory) -> tuple[dict, float]:
    """Synth 4x100 at seed 41 in the paper's mix, run through the pipeline: the report's
    quadrant shares and the recovery."""
    from forumlens import synth

    root = tmp_path_factory.mktemp("paper-mix")
    archetypes = tuple(replace(a, fraction=PAPER_MIX[a.name]) for a in synth.DEFAULT_ARCHETYPES)
    config = synth.SynthConfig(seed=41, n_communities=4, actors_per_community=100,
                               archetypes=archetypes)
    synth.write_synth(root / "in", *synth.generate(config))
    recovery = _run_all_recovery(root / "in", root / "ws")
    return json.loads((root / "ws" / "report.json").read_text())["quadrant_shares"], recovery


def test_the_paper_mix_comes_back_as_the_papers_quadrant_shares(paper_mix_run):
    shares, recovery = paper_mix_run
    assert set(shares) == set(PAPER_MIX)
    for quadrant, share in shares.items():
        assert share == pytest.approx(100 * PAPER_MIX[quadrant], abs=1.0), quadrant
    assert recovery >= 0.95
