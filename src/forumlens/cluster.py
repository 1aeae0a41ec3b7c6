"""K-means clustering of actor feature vectors and quadrant labeling.

Features are z-scored before clustering (commitment spans 0-100 while skill
spans 1-3, so unscaled Euclidean distance would be dominated by commitment).
Centroids are mapped back to raw units through the stored scaler; all labeling
thresholds apply to raw-unit centroids, which makes the labels invariant to
the scaling choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from statistics import median
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .expertise import ActorProfile

DEFAULT_K_MIN = 2
DEFAULT_K_MAX = 12
DEFAULT_RESTARTS = 10

_MAX_LLOYD_ITERATIONS = 300
_SILHOUETTE_BLOCK_ROWS = 128
_RELATIVE_INERTIA_TOL = 1e-8


def feature_matrix(profiles: Sequence[ActorProfile]) -> np.ndarray:
    """Rows of (skill, commitment, activity rate), one per profile."""
    return np.array([p.features() for p in profiles], dtype=float).reshape(len(profiles), 3)


@dataclass(frozen=True)
class Scaler:
    """Per-feature z-score parameters; constant features are centered only."""

    mean: tuple[float, ...]
    std: tuple[float, ...]
    constant: tuple[bool, ...]

    def transform(self, X: np.ndarray) -> np.ndarray:
        mean = np.asarray(self.mean)
        scale = np.where(np.asarray(self.constant), 1.0, np.asarray(self.std))
        return (np.asarray(X, dtype=float) - mean) / scale

    def inverse(self, Z: np.ndarray) -> np.ndarray:
        mean = np.asarray(self.mean)
        scale = np.where(np.asarray(self.constant), 1.0, np.asarray(self.std))
        return np.asarray(Z, dtype=float) * scale + mean


def standardize(X: np.ndarray) -> tuple[np.ndarray, Scaler]:
    """Z-score every column (population std); needs at least 2 rows."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValidationError("standardize requires a 2-d matrix with at least 2 rows")
    if not np.all(np.isfinite(X)):
        raise ValidationError("feature matrix contains non-finite values")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    constant = std == 0.0
    scaler = Scaler(
        mean=tuple(float(m) for m in mean),
        std=tuple(float(s) for s in std),
        constant=tuple(bool(c) for c in constant),
    )
    return scaler.transform(X), scaler


@dataclass(frozen=True, eq=False)
class KMeansModel:
    """A fitted k-means model over the standardized feature space.

    ``k`` counts non-empty clusters; ``labels`` holds one dense cluster index
    per input row. ``centroids_raw`` equals ``centroids`` until a scaler maps
    them back to raw units (see :func:`with_raw_centroids`).
    """

    k: int
    centroids: np.ndarray
    centroids_raw: np.ndarray
    labels: tuple[int, ...]
    inertia: float
    inertia_path: tuple[float, ...]
    silhouette: float | None = None


def _squared_distances(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = X[:, None, :] - centroids[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]), dtype=float)
    first = int(rng.integers(n))
    centers[0] = X[first]
    closest = ((X - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # remaining points coincide with chosen centers; reuse the first
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centers[i] = X[idx]
        closest = np.minimum(closest, ((X - centers[i]) ** 2).sum(axis=1))
    return centers


def _lloyd(X: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    """Lloyd iterations from given centroids; returns (labels, centroids, inertia, path)."""
    n, k = X.shape[0], centroids.shape[0]
    centroids = centroids.copy()
    prev_labels: np.ndarray | None = None
    prev_inertia = math.inf
    path: list[float] = []
    labels = np.zeros(n, dtype=int)
    # distances to the current centroids; each iteration's inertia pass
    # computes the next iteration's assignment matrix
    d2 = _squared_distances(X, centroids)
    for _ in range(_MAX_LLOYD_ITERATIONS):
        labels = d2.argmin(axis=1)
        # revive empty clusters at the point farthest from its centroid
        for _attempt in range(k):
            counts = np.bincount(labels, minlength=k)
            empties = np.flatnonzero(counts == 0)
            if empties.size == 0:
                break
            to_own = d2[np.arange(n), labels].copy()
            for c in empties:
                far = int(to_own.argmax())
                centroids[c] = X[far]
                to_own[far] = -1.0
            d2 = _squared_distances(X, centroids)
            labels = d2.argmin(axis=1)
        for c in range(k):
            members = X[labels == c]
            if members.size:
                centroids[c] = members.mean(axis=0)
        d2 = _squared_distances(X, centroids)
        inertia = float(d2[np.arange(n), labels].sum())
        path.append(inertia)
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        if math.isfinite(prev_inertia) and abs(prev_inertia - inertia) < _RELATIVE_INERTIA_TOL * max(
            prev_inertia, 1e-12
        ):
            break
        prev_labels, prev_inertia = labels, inertia
    return labels, centroids, path[-1], path


def _compact(labels: np.ndarray, centroids: np.ndarray) -> tuple[tuple[int, ...], np.ndarray, int]:
    """Drop empty clusters and relabel densely, preserving centroid order."""
    k = centroids.shape[0]
    counts = np.bincount(labels, minlength=k)
    keep = [c for c in range(k) if counts[c] > 0]
    relabel = {c: i for i, c in enumerate(keep)}
    return tuple(relabel[int(c)] for c in labels), centroids[keep], len(keep)


def kmeans(
    X: np.ndarray,
    k: int,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    init: np.ndarray | None = None,
) -> KMeansModel:
    """Best-of-``restarts`` k-means++ with Lloyd iterations; deterministic.

    ``init`` bypasses seeding with explicit starting centroids (one restart),
    which lets tests compare against a reference run from the same start.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValidationError("kmeans requires a non-empty 2-d matrix")
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValidationError(f"k must satisfy 1 <= k <= {n}: {k}")
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1: {restarts}")

    starts: list[np.ndarray]
    if init is not None:
        init = np.asarray(init, dtype=float)
        if init.shape != (k, X.shape[1]):
            raise ValidationError(f"init must have shape ({k}, {X.shape[1]}): {init.shape}")
        starts = [init]
    else:
        starts = [
            _kmeans_pp_init(X, k, np.random.default_rng([seed, r])) for r in range(restarts)
        ]

    best: tuple[np.ndarray, np.ndarray, float, list[float]] | None = None
    for start in starts:
        run = _lloyd(X, start)
        if best is None or run[2] < best[2]:
            best = run
    assert best is not None
    labels, centroids, inertia, path = best
    dense_labels, kept_centroids, k_eff = _compact(labels, centroids)
    return KMeansModel(
        k=k_eff,
        centroids=kept_centroids,
        centroids_raw=kept_centroids.copy(),
        labels=dense_labels,
        inertia=inertia,
        inertia_path=tuple(path),
    )


def with_raw_centroids(model: KMeansModel, scaler: Scaler) -> KMeansModel:
    return replace(model, centroids_raw=scaler.inverse(model.centroids))


def silhouette(X: np.ndarray, labels: Sequence[int]) -> float:
    """Mean silhouette coefficient under Euclidean distance.

    Per point: a = mean distance to its own cluster's other members, b = the
    smallest mean distance to any other cluster; score (b-a)/max(a,b), with
    singletons scored 0. Requires n >= 3 and at least 2 non-empty clusters.
    """
    return silhouettes(X, [labels])[0]


def silhouettes(X: np.ndarray, labelings: Sequence[Sequence[int]]) -> list[float]:
    """:func:`silhouette` of every labeling from one pass over the distances.

    Rows are taken in blocks of ``_SILHOUETTE_BLOCK_ROWS``; each block's
    distances to all n points are computed once and shared by every
    labeling, so memory stays O(block * n) and a k sweep costs one
    O(n^2 * d) pass instead of one per k.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 3:
        raise ValidationError(f"silhouette requires at least 3 points: {n}")
    groups = []
    for labels in labelings:
        labels = np.asarray(labels, dtype=int)
        if labels.shape != (n,):
            raise ValidationError("labels must align with the rows of X")
        _, own, sizes = np.unique(labels, return_inverse=True, return_counts=True)
        if sizes.size < 2:
            raise ValidationError("silhouette requires at least 2 non-empty clusters")
        members = [np.flatnonzero(own == c) for c in range(sizes.size)]
        groups.append((own, sizes, members))

    scores = np.zeros((len(groups), n))
    for start in range(0, n, _SILHOUETTE_BLOCK_ROWS):
        stop = min(start + _SILHOUETTE_BLOCK_ROWS, n)
        rows = np.arange(stop - start)
        dist = np.sqrt(_squared_distances(X[start:stop], X))
        for out, (own, sizes, members) in zip(scores, groups):
            # per-cluster distance sums of every row in the block, shape (k, rows)
            sums = np.stack([dist[:, m].sum(axis=1) for m in members])
            own_block = own[start:stop]
            own_size = sizes[own_block]
            means = sums / sizes[:, None]
            means[own_block, rows] = np.inf
            b = means.min(axis=0)
            a = sums[own_block, rows] / np.maximum(own_size - 1, 1)
            top = np.maximum(a, b)
            with np.errstate(divide="ignore", invalid="ignore"):
                score = (b - a) / top
            out[start:stop] = np.where((own_size == 1) | (top == 0.0), 0.0, score)
    return [float(out.mean()) for out in scores]


def sweep_k(
    X: np.ndarray,
    k_min: int = DEFAULT_K_MIN,
    k_max: int = DEFAULT_K_MAX,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> list[KMeansModel]:
    """Fit every k in [k_min, k_max] and attach silhouettes.

    Ks whose fit collapses below 2 non-empty clusters are skipped (their
    silhouette is undefined).
    """
    X = np.asarray(X, dtype=float)
    if k_min < 2:
        raise ValidationError(f"k_min must be >= 2: {k_min}")
    if k_max < k_min:
        raise ValidationError(f"k_max must be >= k_min: {k_max} < {k_min}")
    if k_max > X.shape[0]:
        raise ValidationError(f"k_max must not exceed the sample size {X.shape[0]}: {k_max}")
    fitted = [kmeans(X, k, seed=seed, restarts=restarts) for k in range(k_min, k_max + 1)]
    fitted = [model for model in fitted if model.k >= 2]
    if not fitted:
        raise ValidationError("no k in range produced 2 or more distinct clusters")
    scores = silhouettes(X, [model.labels for model in fitted])
    return [replace(model, silhouette=score) for model, score in zip(fitted, scores)]


def select_k(
    X: np.ndarray,
    k_min: int = DEFAULT_K_MIN,
    k_max: int = DEFAULT_K_MAX,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> KMeansModel:
    """The silhouette-maximizing model over the k sweep; ties pick smaller k."""
    return best_by_silhouette(sweep_k(X, k_min, k_max, seed, restarts))


def best_by_silhouette(models: Sequence[KMeansModel]) -> KMeansModel:
    """The first model with the highest silhouette, so ties keep the earlier (smaller) k."""
    best: KMeansModel | None = None
    for model in models:
        assert model.silhouette is not None
        if best is None or model.silhouette > best.silhouette:
            best = model
    if best is None:
        raise ValidationError("no models to select from")
    return best


# --- quadrant labeling --------------------------------------------------------


class Quadrant(Enum):
    PROFESSIONAL = "Professional"
    PRO_AMATEUR = "ProAmateur"
    AVERAGE_CAREER_CRIMINAL = "AverageCareerCriminal"
    AMATEUR = "Amateur"


class ActivityDescriptor(Enum):
    DISCRETE = "Discrete"
    ACTIVE = "Active"
    HYPERACTIVE = "Hyperactive"
    SHORT_LIVED = "ShortLived"


# Thresholds for the four-quadrant labels, in raw feature units. The skill
# cut sits between observed low-side 2.00 and high-side 2.38 centroids;
# commitment splits at the majority mark.
SKILL_HIGH = 2.2
COMMITMENT_HIGH = 50.0
HYPERACTIVE_RATE = 4.0
SHORT_LIVED_DAYS = 1.0


@dataclass(frozen=True)
class ClusterLabel:
    quadrant: Quadrant
    descriptor: ActivityDescriptor

    def display(self) -> str:
        return f"{self.quadrant.value} ({self.descriptor.value})"


def label_clusters(
    model: KMeansModel, profiles: Sequence[ActorProfile]
) -> dict[int, ClusterLabel]:
    """Quadrant plus activity descriptor for every cluster.

    High skill and high commitment are read off the raw-unit centroid. A
    high/high cluster whose median member was active for no more than
    ``SHORT_LIVED_DAYS`` is demoted to ProAmateur (ShortLived): sustained
    presence is part of professionalism, a one-day burst is not.
    """
    if len(profiles) != len(model.labels):
        raise ValidationError("profiles must align with the clustered rows")
    labels: dict[int, ClusterLabel] = {}
    for cluster in range(model.k):
        skill, commit, rate = (float(v) for v in model.centroids_raw[cluster])
        high_skill = skill >= SKILL_HIGH
        high_commit = commit >= COMMITMENT_HIGH
        if high_skill and high_commit:
            quadrant = Quadrant.PROFESSIONAL
        elif high_skill:
            quadrant = Quadrant.PRO_AMATEUR
        elif high_commit:
            quadrant = Quadrant.AVERAGE_CAREER_CRIMINAL
        else:
            quadrant = Quadrant.AMATEUR

        members = [p for p, lab in zip(profiles, model.labels) if lab == cluster]
        if quadrant is Quadrant.PROFESSIONAL and members:
            window = median(p.activity_days for p in members)
            if window <= SHORT_LIVED_DAYS:
                labels[cluster] = ClusterLabel(Quadrant.PRO_AMATEUR, ActivityDescriptor.SHORT_LIVED)
                continue
        if rate >= HYPERACTIVE_RATE:
            descriptor = ActivityDescriptor.HYPERACTIVE
        elif high_commit:
            descriptor = ActivityDescriptor.ACTIVE
        else:
            descriptor = ActivityDescriptor.DISCRETE
        labels[cluster] = ClusterLabel(quadrant, descriptor)
    return labels


@dataclass(frozen=True)
class ClusterSummary:
    cluster_id: int
    label: ClusterLabel
    centroid_raw: tuple[float, ...]
    centroid_std: tuple[float, ...]
    n_members: int
    pct_of_sample: float

    def as_dict(self) -> dict:
        return {
            "cluster": self.cluster_id,
            "quadrant": self.label.quadrant.value,
            "descriptor": self.label.descriptor.value,
            "label": self.label.display(),
            "centroid_raw": {
                "skill": self.centroid_raw[0],
                "commitment": self.centroid_raw[1],
                "activity_rate": self.centroid_raw[2],
            },
            "centroid_std": list(self.centroid_std),
            "members": self.n_members,
            "pct_of_sample": self.pct_of_sample,
        }


def summarize_clusters(
    model: KMeansModel, profiles: Sequence[ActorProfile]
) -> list[ClusterSummary]:
    labels = label_clusters(model, profiles)
    n = len(profiles)
    counts = [0] * model.k
    for lab in model.labels:
        counts[lab] += 1
    return [
        ClusterSummary(
            cluster_id=c,
            label=labels[c],
            centroid_raw=tuple(float(v) for v in model.centroids_raw[c]),
            centroid_std=tuple(float(v) for v in model.centroids[c]),
            n_members=counts[c],
            pct_of_sample=100.0 * counts[c] / n if n else 0.0,
        )
        for c in range(model.k)
    ]


