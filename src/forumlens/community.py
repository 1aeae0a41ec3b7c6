"""Community detection on the bimodal graph.

Quality is plain Newman modularity with the graph treated as undirected and
unweighted: Q = sum_c [ e_c/m - (d_c/2m)^2 ]. Leiden runs local moving,
refinement and aggregation on seeded randomness: a shuffled visit order, and
``rng.randrange`` among the destinations, in label order, that tie on the best
gain (local moving) or offer a positive one (refinement). Refined communities
are connected by construction, and a final component split (which never
lowers Q) keeps every returned community connected. Each level is CSR arrays
with whole-number weights, so sums are exact in any order; numpy does quality,
aggregation and the split, and the move loops walk per-level Python neighbour
lists. Restarts are seeded up front and share nothing: from ``POOL_MIN_NODES``
nodes they run through :func:`forumlens.pool.map_jobs`, the ``fork`` pool of
one process per CPU that the k-means sweep also uses, with the same result.
"""

from __future__ import annotations

import logging
import random
import re
from collections import defaultdict
from typing import Iterable, Sequence

import numpy as np

from . import DEFAULT_LEIDEN_RESTARTS
from .catalog import CatalogSnapshot
from .errors import ValidationError
from .graph import ActorCapecs, ActorPosts, BimodalGraph, Partition, node_table
from .pool import map_jobs
from .stats import describe

logger = logging.getLogger(__name__)

BRUTE_FORCE_NODE_CAP = 12

# Importing, starting and stopping a restart pool costs about 30 ms per call
# (2 vCPUs). At 560 nodes the pool cut ten restarts (0.16-0.26 s alone) by
# 16-84 ms for 40-110 ms more CPU; at 1,080 nodes it saved 0.13-0.41 s.
POOL_MIN_NODES = 1000

_GAIN_EPS = 1e-12  # floating-point guard: gains below this are treated as zero


class _Level:
    """One Leiden level as CSR: ``indices[indptr[v]:indptr[v + 1]]`` are v's other
    neighbours, ascending, with ``weights`` alongside and each entry's node in
    ``rows``; ``loop[v]`` is v's self-loop weight, and ``adj[v]`` v's
    (neighbour, weight) pairs as a Python list for the move loops."""

    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray, loop: np.ndarray):
        # one entry per distinct (src, dst) pair with its weights summed, sorted by pair
        pairs, which = np.unique(src * n + dst, return_inverse=True)
        self.n, self.loop = n, loop
        self.rows, self.indices = np.divmod(pairs, n)
        self.weights = np.bincount(which, w, len(pairs))
        self.indptr = np.searchsorted(self.rows, np.arange(n + 1))
        self.strength = np.bincount(self.rows, self.weights, n) + 2.0 * loop
        self.total_weight = float(self.strength.sum()) / 2.0
        entries = list(zip(self.indices.tolist(), self.weights.tolist()))
        bounds = self.indptr.tolist()
        self.adj = [entries[a:b] for a, b in zip(bounds, bounds[1:])]


def _index_graph(graph: BimodalGraph) -> tuple[list[str], _Level]:
    nodes = node_table(graph.actor_ids, graph.capec_ids)
    # one map for both modes: actor ids are str and CAPEC ids int, so none collide
    index = {node: i for i, (_, _, node) in enumerate(nodes)}
    ends = np.array([(index[a], index[c]) for a, c in graph.edges], dtype=np.int64).reshape(-1, 2)
    src, dst = np.concatenate([ends[:, 0], ends[:, 1]]), np.concatenate([ends[:, 1], ends[:, 0]])
    level = _Level(len(nodes), src, dst, np.ones(len(src)), np.zeros(len(nodes)))
    return [key for key, _, _ in nodes], level


def _quality(g: _Level, comm: Sequence[int]) -> float:
    W = g.total_weight
    if W <= 0:
        return 0.0
    renumbered = _renumber(comm)  # Q sums its terms in order of first appearance
    k, label = max(renumbered) + 1, np.array(renumbered)
    row_label = label[g.rows]
    inside = row_label == label[g.indices]
    # each edge inside a community is listed once per direction
    intra = np.bincount(row_label[inside], g.weights[inside], k) / 2.0 + np.bincount(label, g.loop, k)
    q = 0.0
    for e, d in zip(intra.tolist(), np.bincount(label, g.strength, k).tolist()):
        q += e / W - (d / (2.0 * W)) ** 2
    return q


def _local_move(g: _Level, comm: list[int], rng: random.Random) -> None:
    """Greedy single-node moves until a full pass changes nothing; in-place.

    When several destination communities offer the same (best) gain, one is
    picked at random rather than by label order. Equal-gain ties are common
    on small symmetric graphs, and breaking them the same way in every
    restart would make all restarts retrace the same trajectory.
    """
    W = g.total_weight
    if W <= 0:
        return
    strength, two_w2 = g.strength.tolist(), 2.0 * W * W
    # indexed by label; a label that empties is never a candidate again
    comm_strength = np.bincount(comm, g.strength).tolist()
    comm_size = np.bincount(comm).tolist()
    fresh = len(comm_size)
    while True:
        order = list(range(g.n))
        rng.shuffle(order)
        moved = False
        for v in order:
            cur = comm[v]
            k_v = strength[v]
            to_comm: dict[int, float] = {}
            for u, w in g.adj[v]:
                c = comm[u]
                to_comm[c] = to_comm[c] + w if c in to_comm else w
            k_v_cur = to_comm.pop(cur, 0.0)
            sigma_rest = comm_strength[cur] - k_v
            best_gain = _GAIN_EPS
            ties: list[int] = []
            for cand in sorted(to_comm):
                gain = (to_comm[cand] - k_v_cur) / W - k_v * (
                    comm_strength[cand] - sigma_rest
                ) / two_w2
                if gain > best_gain + _GAIN_EPS:
                    best_gain, ties = gain, [cand]
                elif ties and gain > best_gain - _GAIN_EPS:
                    ties.append(cand)
            best = cur
            if ties:
                best = ties[0] if len(ties) == 1 else ties[rng.randrange(len(ties))]
            # a fresh (empty) community must beat the best destination outright, not tie it
            if comm_size[cur] > 1 and -k_v_cur / W + k_v * sigma_rest / two_w2 > best_gain + _GAIN_EPS:
                best = fresh
            if best != cur:
                if best == fresh:
                    fresh += 1
                    comm_strength.append(0.0)
                    comm_size.append(0)
                comm_strength[cur] -= k_v
                comm_size[cur] -= 1
                comm_strength[best] += k_v
                comm_size[best] += 1
                comm[v] = best
                moved = True
        if not moved:
            return


def _refine(g: _Level, comm: Sequence[int], rng: random.Random) -> list[int]:
    """Refinement phase: merge singleton nodes into connected subsets of their community.

    Starting from singletons, a node may only join a refined community inside
    its local-moving community and only when it has at least one edge into it,
    so every refined community is connected by construction. Among the
    positive-gain candidates the merge target is chosen at random (not
    greedily): the randomness diversifies the aggregate graphs across
    restarts, which is what lets later levels escape local optima.
    """
    W = g.total_weight
    strength, two_w2 = g.strength.tolist(), 2.0 * W * W
    refined = list(range(g.n))
    ref_strength = list(strength)
    ref_size = [1] * g.n
    order = list(range(g.n))
    rng.shuffle(order)
    for v in order:
        if ref_size[refined[v]] != 1:
            continue
        c_v, k_v = comm[v], strength[v]
        to_ref: dict[int, float] = {}
        for u, w in g.adj[v]:
            if comm[u] == c_v:
                r = refined[u]
                to_ref[r] = to_ref[r] + w if r in to_ref else w
        to_ref.pop(refined[v], None)
        candidates = [
            c for c in sorted(to_ref) if to_ref[c] / W - k_v * ref_strength[c] / two_w2 > _GAIN_EPS
        ]
        if candidates:
            chosen = candidates[rng.randrange(len(candidates))]
            ref_strength[chosen] += k_v
            ref_size[chosen] += 1
            refined[v] = chosen
    return refined


def _aggregate(g: _Level, refined: list[int], comm: list[int]) -> tuple[_Level, np.ndarray, list]:
    """One node per refined community, numbered in sorted label order: the new
    level, each old node's new node, and each new node's local-moving community."""
    cid = np.unique(refined, return_inverse=True)[1]
    m = int(cid.max()) + 1
    src, dst = cid[g.rows], cid[g.indices]
    inside = src == dst
    # each edge inside a refined community is listed once per direction
    loop = np.bincount(src[inside], g.weights[inside], m) / 2.0 + np.bincount(cid, g.loop, m)
    init = np.empty(m, dtype=np.int64)
    init[cid] = comm
    out = ~inside
    return _Level(m, src[out], dst[out], g.weights[out], loop), cid, init.tolist()


def _split_disconnected(g: _Level, labels: Sequence[int]) -> list[int]:
    """Each node's connected component inside its community, named by its lowest node."""
    labels = np.asarray(labels)
    inside = labels[g.rows] == labels[g.indices]
    src, dst = g.rows[inside], g.indices[inside]
    # lowest reachable node: take the neighbours' minimum, then jump pointers
    comp = np.arange(g.n)
    while True:
        low = comp.copy()
        np.minimum.at(low, src, comp[dst])
        low = low[low]
        if np.array_equal(low, comp):
            return comp.tolist()
        comp = low


def _restart(g0: _Level, job: tuple[int, int]) -> tuple[float, list[int], int]:
    """Restart ``r`` from its own seed, split into components: (Q, labels, levels).

    Even restarts start from singletons, odd ones from ~n/3 random buckets:
    greedy moves from singletons only merge downhill into one family of optima,
    while from a coarse start the empty-community move carves communities apart.
    """
    r, run_seed = job
    rng = random.Random(run_seed)
    width = max(2, g0.n // 3)
    comm = list(range(g0.n)) if r % 2 == 0 else [rng.randrange(width) for _ in range(g0.n)]
    g, node_map, levels = g0, np.arange(g0.n), 1
    while True:
        _local_move(g, comm, rng)
        refined = _refine(g, comm, rng)
        if len(set(refined)) == g.n:
            break
        g, cid, comm = _aggregate(g, refined, comm)
        node_map, levels = cid[node_map], levels + 1
    labels = _split_disconnected(g0, np.array(comm)[node_map])
    return _quality(g0, labels), labels, levels


def _renumber(labels: Iterable[int]) -> list[int]:
    """Labels renumbered 0, 1, ... in order of first appearance."""
    first: dict[int, int] = {}
    return [first.setdefault(lab, len(first)) for lab in labels]


def modularity(graph: BimodalGraph, partition: Partition) -> float:
    """Newman modularity of a full assignment; 0 on an edgeless graph."""
    nodes, g = _index_graph(graph)
    return _quality(g, partition.labels(nodes))


def leiden(graph: BimodalGraph, seed: int = 0, restarts: int = DEFAULT_LEIDEN_RESTARTS) -> Partition:
    """Best-of-``restarts`` Leiden partition; deterministic in (seed, restarts).

    Each restart runs the full level loop from its own derived seed (see
    ``_restart``); the highest-modularity run wins, ties toward the earliest
    restart. The connected-components partition (whose Q is never below the
    all-in-one or singleton baselines) is kept as a floor candidate.
    """
    if graph.n_nodes == 0:
        raise ValidationError("cannot run community detection on an empty graph")
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1: {restarts}")
    if seed < 0:  # random.Random seeds with abs(seed): -7 would run seed 7
        raise ValidationError(f"seed must be >= 0: {seed}")
    nodes, g = _index_graph(graph)

    master = random.Random(seed)
    run_seeds = [master.getrandbits(64) for _ in range(restarts)]
    runs, procs = map_jobs(_restart, g, list(enumerate(run_seeds)), g.n >= POOL_MIN_NODES)

    best_labels = _split_disconnected(g, [0] * g.n)
    best_q, best = _quality(g, best_labels), None
    for r, (q, labels, levels) in enumerate(runs):
        logger.debug("leiden restart %d: Q=%r after %d levels", r, q, levels)
        if q > best_q:
            best_q, best_labels, best = q, labels, r
    how = "in-process" if procs == 1 else f"over {procs} processes"
    won = "the connected-components floor" if best is None else f"restart {best}"
    logger.debug("leiden: %d restarts on %d nodes %s; %s won at Q=%r", restarts, g.n, how, won, best_q)
    return Partition(assignment=dict(zip(nodes, _renumber(best_labels))), quality=best_q)


def brute_force_best_partition(graph: BimodalGraph) -> Partition:
    """Exhaustive modularity maximum over all set partitions; test oracle.

    Refuses graphs with more than 12 nodes. Ties keep the partition met first
    in the canonical enumeration (the all-in-one partition comes first).
    """
    if graph.n_nodes > BRUTE_FORCE_NODE_CAP:
        raise ValidationError(
            f"brute-force search refuses graphs with more than "
            f"{BRUTE_FORCE_NODE_CAP} nodes (got {graph.n_nodes})"
        )
    if graph.n_nodes == 0:
        raise ValidationError("cannot partition an empty graph")
    nodes, g = _index_graph(graph)
    W = g.total_weight
    best_labels = [0] * g.n
    best_q = _quality(g, best_labels)
    earlier = [[(j, w) for j, w in g.adj[i] if j < i] for i in range(g.n)]
    strength, loop = g.strength.tolist(), g.loop.tolist()
    # Restricted-growth strings enumerate each set partition once, labels in
    # order of first appearance; per-label intra-edge and degree totals ride
    # along, and each leaf sums Q's terms in label order, as _quality does.
    labels, intra, degree = [0] * g.n, [0.0] * g.n, [0.0] * g.n

    def grow(i: int, n_used: int) -> None:
        nonlocal best_q, best_labels
        if i == g.n:
            q = 0.0
            for e, d in zip(intra[:n_used], degree[:n_used]):
                q += e / W - (d / (2.0 * W)) ** 2
            if q > best_q:
                best_q, best_labels = q, list(labels)
            return
        inside = [loop[i]] * (n_used + 1)
        for j, w in earlier[i]:
            inside[labels[j]] += w
        for c in range(n_used + 1):
            labels[i] = c
            intra[c] += inside[c]
            degree[c] += strength[i]
            grow(i + 1, max(n_used, c + 1))
            intra[c] -= inside[c]
            degree[c] -= strength[i]

    if W > 0:  # on an edgeless graph every partition scores 0.0, so the first stands
        grow(0, 0)
    return Partition(assignment=dict(zip(nodes, _renumber(best_labels))), quality=best_q)


# --- community summaries ------------------------------------------------------

_TOKEN_RE = re.compile(r"[a-z]+")
_STOPWORDS = frozenset(
    "the a an and or of in on for to via with by as at from into through using based".split()
)


def keyword_digest(names: Iterable[str]) -> tuple[str, ...]:
    """The 5 most frequent name tokens, minus stopwords and sub-3-letter fragments."""
    counts: dict[str, int] = defaultdict(int)
    for name in names:
        for token in set(_TOKEN_RE.findall(name.lower())):
            if len(token) >= 3 and token not in _STOPWORDS:
                counts[token] += 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return tuple(token for token, _ in ranked[:5])


def summarize_communities(
    partition: Partition, posts: ActorPosts, adjacency: ActorCapecs, snapshot: CatalogSnapshot
) -> list[dict]:
    """Table-style overview of every community of a resolved-post table, given its
    ``actor_capecs``: one row per community, mirroring the reference tables' columns."""
    overviews = []
    for comm, (actors, capecs) in partition.members(adjacency).items():
        counts = [len(posts[a]) for a in actors]
        one_timers = sum(1 for c in counts if c == 1)
        overviews.append(
            {
                "community": comm,
                "nodes": len(actors) + len(capecs),
                "actors": len(actors),
                "capecs": len(capecs),
                "one_timer_pct": 100.0 * one_timers / len(actors) if actors else 0.0,
                "out_degree": describe(len(adjacency[a]) for a in actors),
                "specialized_posts": describe(counts),
                "keywords": list(keyword_digest(snapshot.capecs[c].name for c in capecs)),
                "capec_ids": sorted(capecs),
            }
        )
    return overviews
