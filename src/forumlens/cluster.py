"""K-means clustering of actor feature vectors and quadrant labeling.

Features are z-scored before clustering (commitment spans 0-100 while skill
spans 1-3, so unscaled Euclidean distance would be dominated by commitment).
A cluster's raw-unit centroid is the mean of its members' raw rows; all
labeling thresholds apply to raw-unit centroids, which makes the labels
invariant to the scaling choice.

The k sweep gives the bits of fitting each k on its own: distances are
summed in an order written here, work per row is done once per distinct row,
and sums over rows still take every row in row order. From ``POOL_MIN_ROWS``
rows its fits and silhouette blocks run on :func:`forumlens.pool.map_jobs`.
The sweep keeps one run per k, its best restart so far, as the fits arrive,
and a silhouette block holds two buffers of block rows x n distances.
"""

from __future__ import annotations

import logging
import math
from contextlib import closing
from dataclasses import dataclass, replace
from enum import Enum
from itertools import islice
from statistics import median
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import DEFAULT_CLUSTER_RESTARTS, DEFAULT_K_MAX, DEFAULT_K_MIN
from .errors import ValidationError
from .expertise import ActorProfile
from .pool import map_jobs

logger = logging.getLogger(__name__)

_MAX_LLOYD_ITERATIONS = 300
_SILHOUETTE_BLOCK_ROWS = 128
_RELATIVE_INERTIA_TOL = 1e-8

# A whole k sweep (k 2-12, ten restarts) on row subsets of the synth 8x600 sample,
# fork pool against in-process, alternating, medians of 8 on a shared 2-vCPU host:
# 0.224 against 0.182 s at 480 rows (pooled won 2 of 8), 0.165 against 0.267 s at
# 1,000, 0.253 against 0.378 s at 1,500, 0.281 against 0.459 s at 2,000 (8 of 8
# each), for 11-18% more CPU. The break-even is now below 1,000 rows; the
# threshold was set with the multiprocessing pool and the older kernels.
POOL_MIN_ROWS = 1500


# the columns of feature_matrix, named as in sample.csv
FEATURES = ("skill_score", "commitment_pct", "activity_rate")


def feature_matrix(profiles: Sequence[ActorProfile]) -> np.ndarray:
    """Rows of (skill, commitment, activity rate), one per profile."""
    return np.array([p.features() for p in profiles], dtype=float).reshape(len(profiles), 3)


@dataclass(frozen=True)
class Scaler:
    """Per-feature z-score parameters; constant features are centered only."""

    mean: tuple[float, ...]
    std: tuple[float, ...]
    constant: tuple[bool, ...]


def standardize(X: np.ndarray) -> tuple[np.ndarray, Scaler]:
    """Z-score every column (population std); needs at least 2 rows, and values
    small enough that each column's mean and std are finite."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValidationError("standardize requires a 2-d matrix with at least 2 rows")
    if not np.all(np.isfinite(X)):
        raise ValidationError("feature matrix contains non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        std = X.std(axis=0)
    for j in np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std))):
        name = FEATURES[j] if X.shape[1] == len(FEATURES) else f"column {j}"
        raise ValidationError(f"feature {name}: values too large to standardize")
    constant = std == 0.0
    scaler = Scaler(
        mean=tuple(float(m) for m in mean),
        std=tuple(float(s) for s in std),
        constant=tuple(bool(c) for c in constant),
    )
    return (X - mean) / np.where(constant, 1.0, std), scaler


@dataclass(frozen=True, eq=False)
class KMeansModel:
    """A fitted k-means model over the standardized feature space.

    ``k`` counts non-empty clusters; ``labels`` holds one dense cluster index
    per input row. ``centroids_raw`` equals ``centroids`` until
    :func:`with_raw_centroids` sets each to its members' mean raw row.
    """

    k: int
    centroids: np.ndarray
    centroids_raw: np.ndarray
    labels: tuple[int, ...]
    inertia: float
    inertia_path: tuple[float, ...]
    silhouette: float | None = None


def _squared_distances(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of every row to every centroid, shape (rows, centroids).

    The columns are summed in a fixed order: for d = 3 as (c0 + c2) + c1,
    the order ``np.einsum("ijk,ijk->ij")`` took at numpy 2.4, which the
    artifacts' bits were first written with; any other width left to right.
    It works centroid-major in two buffers, the sums and one column's squared
    differences, so each ufunc pass runs over the rows; the result is the
    (rows, centroids) view of the sums, whose ``.T`` is C-contiguous.
    """
    total = np.zeros((centroids.shape[0], X.shape[0]))
    diff = np.empty_like(total)
    for j in (0, 2, 1) if X.shape[1] == 3 else range(X.shape[1]):
        np.subtract(X[:, j], centroids[:, j, None], out=diff)
        total += np.multiply(diff, diff, out=diff)
    return total.T


class _Rows(NamedTuple):
    """The matrix, its distinct rows, and each row's distinct row: ``X == distinct[inverse]``."""

    X: np.ndarray
    distinct: np.ndarray
    inverse: np.ndarray


def _rows(X: np.ndarray) -> _Rows:
    distinct, inverse = np.unique(X, axis=0, return_inverse=True)
    return _Rows(X, distinct, inverse.reshape(-1))


def _kmeans_pp_init(rows: _Rows, k: int, rng: np.random.Generator) -> np.ndarray:
    X, distinct, inverse = rows
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]), dtype=float)
    first = int(rng.integers(n))
    centers[0] = X[first]
    closest = ((distinct - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        weights = closest[inverse]  # per distinct row, gathered to all n rows for the draw
        total = weights.sum()
        if total <= 0.0:
            # remaining points coincide with chosen centers; reuse the first
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=weights / total))
        centers[i] = X[idx]
        closest = np.minimum(closest, ((distinct - centers[i]) ** 2).sum(axis=1))
    return centers


_Run = tuple[np.ndarray, np.ndarray, float, list[float]]


def _member_sums(X: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Each cluster's column sums, shape (k, columns): bincount adds its rows in row
    order from 0.0, as ``mean(axis=0)`` over them does, so sum / count has its bits."""
    sums = np.zeros((k, X.shape[1]))
    for j in range(X.shape[1]):
        sums[:, j] = np.bincount(labels, X[:, j], k)
    return sums


def _lloyd(rows: _Rows, centroids: np.ndarray) -> _Run:
    """Lloyd iterations from given centroids; returns (labels, centroids, inertia, path).

    Equal rows have equal distances, so distances and nearest centroids are
    computed once per distinct row and gathered back to every row; inertia
    still sums all n rows in row order, and centroids are member means.
    """
    X, distinct, inverse = rows
    n, k = X.shape[0], centroids.shape[0]
    centroids = centroids.copy()
    prev_labels: np.ndarray | None = None
    prev_inertia = math.inf
    path: list[float] = []
    labels = np.zeros(n, dtype=int)
    # distances to the current centroids; each iteration's inertia pass
    # computes the next iteration's assignment matrix
    d2 = _squared_distances(distinct, centroids)
    for _ in range(_MAX_LLOYD_ITERATIONS):
        labels = d2.argmin(axis=1)[inverse]
        # revive empty clusters at the point farthest from its centroid
        for _attempt in range(k):
            counts = np.bincount(labels, minlength=k)
            empties = np.flatnonzero(counts == 0)
            if empties.size == 0:
                break
            to_own = d2[inverse, labels]
            for c in empties:
                far = int(to_own.argmax())
                centroids[c] = X[far]
                to_own[far] = -1.0
            d2 = _squared_distances(distinct, centroids)
            labels = d2.argmin(axis=1)[inverse]
        counts = np.bincount(labels, minlength=k)
        filled = counts > 0
        centroids[filled] = _member_sums(X, labels, k)[filled] / counts[filled, None]
        d2 = _squared_distances(distinct, centroids)
        inertia = float(d2[inverse, labels].sum())
        path.append(inertia)
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        if math.isfinite(prev_inertia) and abs(prev_inertia - inertia) < _RELATIVE_INERTIA_TOL * max(
            prev_inertia, 1e-12
        ):
            break
        prev_labels, prev_inertia = labels, inertia
    return labels, centroids, path[-1], path


def _fit(rows: _Rows, job: tuple[int, int, int]) -> _Run:
    """One k-means++ restart: ``job`` is (k, seed, restart)."""
    k, seed, r = job
    return _lloyd(rows, _kmeans_pp_init(rows, k, np.random.default_rng([seed, r])))


def _best(runs: Iterable[_Run]) -> tuple[int, _Run]:
    """The lowest-inertia run and its restart, kept as the runs arrive; ties keep the
    earliest restart, as ``min`` does."""
    return min(enumerate(runs), key=lambda numbered: numbered[1][2])


def _compact(labels: np.ndarray, centroids: np.ndarray) -> tuple[tuple[int, ...], np.ndarray, int]:
    """Drop empty clusters and relabel densely, preserving centroid order."""
    k = centroids.shape[0]
    counts = np.bincount(labels, minlength=k)
    keep = [c for c in range(k) if counts[c] > 0]
    relabel = {c: i for i, c in enumerate(keep)}
    return tuple(relabel[int(c)] for c in labels), centroids[keep], len(keep)


def _model(run: _Run) -> KMeansModel:
    labels, centroids, inertia, path = run
    dense_labels, kept_centroids, k_eff = _compact(labels, centroids)
    return KMeansModel(
        k=k_eff,
        centroids=kept_centroids,
        centroids_raw=kept_centroids.copy(),
        labels=dense_labels,
        inertia=inertia,
        inertia_path=tuple(path),
    )


def _check_fit(X: np.ndarray, restarts: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValidationError("kmeans requires a non-empty 2-d matrix")
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1: {restarts}")
    return X


def kmeans(
    X: np.ndarray, k: int, seed: int = 0, restarts: int = DEFAULT_CLUSTER_RESTARTS
) -> KMeansModel:
    """Best-of-``restarts`` k-means++ with Lloyd iterations; deterministic."""
    X = _check_fit(X, restarts)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValidationError(f"k must satisfy 1 <= k <= {n}: {k}")
    rows = _rows(X)
    return _model(_best(_fit(rows, (k, seed, r)) for r in range(restarts))[1])


def with_raw_centroids(model: KMeansModel, X: np.ndarray) -> KMeansModel:
    """``model`` with each raw centroid its members' mean row of X, the unscaled features."""
    labels = np.asarray(model.labels)
    counts = np.bincount(labels, minlength=model.k)
    return replace(model, centroids_raw=_member_sums(X, labels, model.k) / counts[:, None])


def silhouette(X: np.ndarray, labels: Sequence[int]) -> float:
    """Mean silhouette coefficient under Euclidean distance.

    Per point: a = mean distance to its own cluster's other members, b = the
    smallest mean distance to any other cluster; score (b-a)/max(a,b), with
    singletons scored 0. Requires n >= 3 and at least 2 non-empty clusters.
    """
    return silhouettes(X, [labels])[0]


def silhouettes(X: np.ndarray, labelings: Sequence[Sequence[int]]) -> list[float]:
    """:func:`silhouette` of every labeling from one pass over the distances.

    Rows equal in X and in every labeling get equal scores, so one of each
    such group is scored and its score spread back before the mean; the sums
    over the other points still take all n of them. The scored rows go in
    blocks of ``_SILHOUETTE_BLOCK_ROWS``; each block's distances to all n
    points are computed once and shared by every labeling, so memory stays
    O(block * n) and a k sweep costs one O(distinct * n * d) pass instead
    of one per k.
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
    if not groups:
        return []

    keys = np.column_stack([X, *(own for own, _, _ in groups)])
    _, scored, spread = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    starts = range(0, scored.size, _SILHOUETTE_BLOCK_ROWS)
    parts, _ = map_jobs(_score_block, (X, groups, scored), starts, n >= POOL_MIN_ROWS)
    return [float(out[spread.reshape(-1)].mean()) for out in np.concatenate([*parts], axis=1)]


def _score_block(shared: tuple, start: int) -> np.ndarray:
    """Silhouettes of the scored rows from ``start`` on, one row per labeling."""
    X, groups, scored = shared
    block = scored[start : start + _SILHOUETTE_BLOCK_ROWS]
    rows = np.arange(block.size)
    dist = _squared_distances(X[block], X).T  # point-major: row p, p's distance to each
    np.sqrt(dist, out=dist)
    out = np.empty((len(groups), block.size))
    for i, (own, sizes, members) in enumerate(groups):
        # per-cluster distance sums of every row in the block, shape (k, rows); the
        # member rows are added one after another in member order
        sums = np.stack([dist[m].sum(axis=0) for m in members])
        own_block = own[block]
        own_size = sizes[own_block]
        means = sums / sizes[:, None]
        means[own_block, rows] = np.inf
        b = means.min(axis=0)
        a = sums[own_block, rows] / np.maximum(own_size - 1, 1)
        top = np.maximum(a, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            score = (b - a) / top
        out[i] = np.where((own_size == 1) | (top == 0.0), 0.0, score)
    return out


def sweep_k(
    X: np.ndarray,
    k_min: int = DEFAULT_K_MIN,
    k_max: int = DEFAULT_K_MAX,
    seed: int = 0,
    restarts: int = DEFAULT_CLUSTER_RESTARTS,
) -> list[KMeansModel]:
    """Fit every k in [k_min, k_max] and attach silhouettes.

    Equals ``kmeans(X, k, seed, restarts)`` for each k, with its silhouette:
    the k x restarts fits are seeded jobs, so from ``POOL_MIN_ROWS`` rows they
    run through :func:`forumlens.pool.map_jobs` with the same result. Each k's
    best restart is kept as its runs arrive, so one run per k is held, never
    all of them. Ks whose fit collapses below 2 non-empty clusters are skipped
    (their silhouette is undefined), so rows too alike for any k give an
    empty list.
    """
    X = _check_fit(X, restarts)
    if k_min < 2:
        raise ValidationError(f"k_min must be >= 2: {k_min}")
    if k_max < k_min:
        raise ValidationError(f"k_max must be >= k_min: {k_max} < {k_min}")
    if k_max > X.shape[0]:
        raise ValidationError(f"k_max must not exceed the sample size {X.shape[0]}: {k_max}")
    rows = _rows(X)
    ks = range(k_min, k_max + 1)
    jobs = [(k, seed, r) for k in ks for r in range(restarts)]
    runs, procs = map_jobs(_fit, rows, jobs, X.shape[0] >= POOL_MIN_ROWS)
    how = "in-process" if procs == 1 else f"over {procs} processes"
    logger.debug(
        "sweep_k: %d fits (k %d-%d, %d restarts) on %d rows, %d distinct, %s",
        len(jobs), k_min, k_max, restarts, X.shape[0], rows.distinct.shape[0], how,
    )
    fitted = []
    with closing(runs):
        for k in ks:
            won, run = _best(islice(runs, restarts))
            model = _model(run)
            if model.k >= 2:
                fitted.append((k, won, model))
            else:
                logger.debug("sweep_k k=%d: restart %d won with 1 non-empty cluster; skipped",
                             k, won)
    if not fitted:
        return []
    scores = silhouettes(X, [model.labels for _, _, model in fitted])
    for (k, won, model), score in zip(fitted, scores):
        logger.debug(
            "sweep_k k=%d: restart %d won, inertia=%r, %d clusters, silhouette=%r",
            k, won, model.inertia, model.k, score,
        )
    return [replace(model, silhouette=score) for (_, _, model), score in zip(fitted, scores)]


def best_by_silhouette(models: Sequence[KMeansModel]) -> KMeansModel:
    """The first model with the highest silhouette, as ``max`` gives, so ties
    keep the earlier (smaller) k."""
    if not models:
        raise ValidationError("no models to select from")
    return max(models, key=lambda model: model.silhouette)


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


# Thresholds for the four-quadrant labels, in raw feature units. A raw
# centroid's skill is its members' mean score, not a whole score. The paper's
# worked example (2.38, 18.46, 10.67) labels high skill and 2.00 labels low,
# so any cut in (2.00, 2.38] labels the same; commitment splits at the
# majority mark.
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


def summarize_clusters(model: KMeansModel, profiles: Sequence[ActorProfile]) -> list[dict]:
    """One row per cluster: its label, raw and standardized centroid and share of the sample."""
    labels = label_clusters(model, profiles)
    n = len(profiles)
    counts = [0] * model.k
    for lab in model.labels:
        counts[lab] += 1
    summaries = []
    for c in range(model.k):
        skill, commitment, activity_rate = (float(v) for v in model.centroids_raw[c])
        summaries.append(
            {
                "cluster": c,
                "quadrant": labels[c].quadrant.value,
                "descriptor": labels[c].descriptor.value,
                "label": labels[c].display(),
                "centroid_raw": {
                    "skill": skill,
                    "commitment": commitment,
                    "activity_rate": activity_rate,
                },
                "centroid_std": [float(v) for v in model.centroids[c]],
                "members": counts[c],
                "pct_of_sample": 100.0 * counts[c] / n if n else 0.0,
            }
        )
    return summaries
