"""Community detection on the bimodal graph.

Quality is plain Newman modularity with the graph treated as undirected and
unweighted: Q = sum_c [ e_c/m - (d_c/2m)^2 ]. The Leiden implementation runs
the three canonical phases (local moving, refinement, aggregation) with fully
deterministic behavior: node visit order is a seeded shuffle and ties in
quality gain break toward the lowest community label. Refinement grows
communities only by attaching nodes with at least one edge into them, which
keeps every returned community internally connected; a final component-split
pass enforces the same guarantee (splitting a disconnected community never
lowers Q).
"""

from __future__ import annotations

import random
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from .catalog import CatalogSnapshot
from .errors import ValidationError
from .graph import ActorPosts, BimodalGraph, node_key
from .stats import SummaryStats

BRUTE_FORCE_NODE_CAP = 12

_GAIN_EPS = 1e-12  # floating-point guard: gains below this are treated as zero


@dataclass
class Partition:
    """Node-key to community-index assignment plus its modularity."""

    assignment: dict[str, int]
    quality: float

    def communities(self) -> dict[int, frozenset[str]]:
        groups: dict[int, set[str]] = defaultdict(set)
        for key, comm in self.assignment.items():
            groups[comm].add(key)
        return {c: frozenset(members) for c, members in groups.items()}


class _WGraph:
    """Indexed weighted undirected graph used internally by Leiden levels."""

    __slots__ = ("n", "adj", "strength", "total_weight")

    def __init__(self, n: int, adj: list[dict[int, float]]):
        self.n = n
        self.adj = adj
        self.strength = [
            sum(w for u, w in neighbors.items() if u != v) + 2.0 * neighbors.get(v, 0.0)
            for v, neighbors in enumerate(adj)
        ]
        self.total_weight = sum(self.strength) / 2.0


def _graph_nodes(graph: BimodalGraph) -> list[str]:
    keys = [node_key("actor", a) for a in sorted(graph.actor_ids)]
    keys += [node_key("capec", c) for c in sorted(graph.capec_ids)]
    return keys


def _index_graph(graph: BimodalGraph) -> tuple[list[str], _WGraph]:
    nodes = _graph_nodes(graph)
    index = {key: i for i, key in enumerate(nodes)}
    adj: list[dict[int, float]] = [dict() for _ in nodes]
    for actor, capec in graph.edges:
        a = index[node_key("actor", actor)]
        c = index[node_key("capec", capec)]
        adj[a][c] = adj[a].get(c, 0.0) + 1.0
        adj[c][a] = adj[c].get(a, 0.0) + 1.0
    return nodes, _WGraph(len(nodes), adj)


def _quality(g: _WGraph, comm: Sequence[int]) -> float:
    W = g.total_weight
    if W <= 0:
        return 0.0
    intra: dict[int, float] = defaultdict(float)
    degree: dict[int, float] = defaultdict(float)
    for v in range(g.n):
        degree[comm[v]] += g.strength[v]
        for u, w in g.adj[v].items():
            if u < v:
                continue
            if comm[u] == comm[v]:
                intra[comm[v]] += w
    q = 0.0
    for c, d in degree.items():
        q += intra[c] / W - (d / (2.0 * W)) ** 2
    return q


def _local_move(g: _WGraph, comm: list[int], rng: random.Random) -> int:
    """Greedy single-node moves until a full pass changes nothing; in-place.

    When several destination communities offer the same (best) gain, one is
    picked at random rather than by label order. Equal-gain ties are common
    on small symmetric graphs, and breaking them the same way in every
    restart would make all restarts retrace the same trajectory.
    """
    W = g.total_weight
    if W <= 0:
        return 0
    comm_strength: dict[int, float] = defaultdict(float)
    comm_size: dict[int, int] = defaultdict(int)
    for v in range(g.n):
        comm_strength[comm[v]] += g.strength[v]
        comm_size[comm[v]] += 1
    next_label = max(comm) + 1
    total_moves = 0
    while True:
        order = list(range(g.n))
        rng.shuffle(order)
        moved = 0
        for v in order:
            cur = comm[v]
            k_v = g.strength[v]
            to_comm: dict[int, float] = defaultdict(float)
            for u, w in g.adj[v].items():
                if u != v:
                    to_comm[comm[u]] += w
            k_v_cur = to_comm.get(cur, 0.0)
            sigma_rest = comm_strength[cur] - k_v
            best_gain = _GAIN_EPS
            ties: list[int] = []
            for cand in sorted(to_comm):
                if cand == cur:
                    continue
                gain = (to_comm[cand] - k_v_cur) / W - k_v * (
                    comm_strength[cand] - sigma_rest
                ) / (2.0 * W * W)
                if gain > best_gain + _GAIN_EPS:
                    best_gain, ties = gain, [cand]
                elif ties and gain > best_gain - _GAIN_EPS:
                    ties.append(cand)
            if ties:
                best_comm = ties[0] if len(ties) == 1 else ties[rng.randrange(len(ties))]
            else:
                best_comm = cur
            if comm_size[cur] > 1:
                # fresh (empty) community; it must beat the best existing
                # destination outright, a tie is never enough to split
                gain = -k_v_cur / W + k_v * sigma_rest / (2.0 * W * W)
                if gain > best_gain + _GAIN_EPS:
                    best_gain, best_comm = gain, next_label
            if best_comm != cur:
                comm_strength[cur] -= k_v
                comm_size[cur] -= 1
                if comm_size[cur] == 0:
                    del comm_size[cur]
                    del comm_strength[cur]
                if best_comm == next_label:
                    next_label += 1
                comm_strength[best_comm] += k_v
                comm_size[best_comm] += 1
                comm[v] = best_comm
                moved += 1
        total_moves += moved
        if moved == 0:
            return total_moves


def _refine(g: _WGraph, comm: Sequence[int], rng: random.Random) -> list[int]:
    """Refinement phase: merge singleton nodes into connected subsets of their community.

    Starting from singletons, a node may only join a refined community inside
    its local-moving community and only when it has at least one edge into it,
    so every refined community is connected by construction. Among the
    positive-gain candidates the merge target is chosen at random (not
    greedily): the randomness diversifies the aggregate graphs across
    restarts, which is what lets later levels escape local optima.
    """
    W = g.total_weight
    refined = list(range(g.n))
    ref_strength = {v: g.strength[v] for v in range(g.n)}
    ref_size = {v: 1 for v in range(g.n)}
    order = list(range(g.n))
    rng.shuffle(order)
    for v in order:
        if ref_size[refined[v]] != 1:
            continue
        k_v = g.strength[v]
        to_ref: dict[int, float] = defaultdict(float)
        for u, w in g.adj[v].items():
            if u != v and comm[u] == comm[v]:
                to_ref[refined[u]] += w
        to_ref.pop(refined[v], None)
        candidates = [
            cand
            for cand in sorted(to_ref)
            if to_ref[cand] / W - k_v * ref_strength[cand] / (2.0 * W * W) > _GAIN_EPS
        ]
        if candidates:
            old = refined[v]
            chosen = candidates[rng.randrange(len(candidates))]
            ref_strength[chosen] += k_v
            ref_size[chosen] += 1
            del ref_strength[old]
            del ref_size[old]
            refined[v] = chosen
    return refined


def _aggregate(
    g: _WGraph, refined: Sequence[int], comm: Sequence[int]
) -> tuple[_WGraph, dict[int, int], list[int]]:
    labels = sorted(set(refined))
    cid = {lab: i for i, lab in enumerate(labels)}
    adj: list[dict[int, float]] = [dict() for _ in labels]
    for v in range(g.n):
        rv = cid[refined[v]]
        for u, w in g.adj[v].items():
            if u < v:
                continue
            ru = cid[refined[u]]
            if rv == ru:
                adj[rv][rv] = adj[rv].get(rv, 0.0) + w
            else:
                adj[rv][ru] = adj[rv].get(ru, 0.0) + w
                adj[ru][rv] = adj[ru].get(rv, 0.0) + w
    init = [0] * len(labels)
    for v in range(g.n):
        init[cid[refined[v]]] = comm[v]
    return _WGraph(len(labels), adj), cid, init


def _leiden_once(g0: _WGraph, rng: random.Random, init0: list[int] | None = None) -> list[int]:
    g = g0
    node_map = list(range(g0.n))
    init: list[int] | None = list(init0) if init0 is not None else None
    while True:
        comm = list(init) if init is not None else list(range(g.n))
        _local_move(g, comm, rng)
        refined = _refine(g, comm, rng)
        if len(set(refined)) == g.n:
            return [comm[node_map[v]] for v in range(g0.n)]
        g2, cid, init2 = _aggregate(g, refined, comm)
        node_map = [cid[refined[node_map[v]]] for v in range(g0.n)]
        g, init = g2, init2


def _split_disconnected(g: _WGraph, labels: list[int]) -> list[int]:
    """Split every community into its connected components; never lowers Q."""
    members: dict[int, list[int]] = defaultdict(list)
    for v, c in enumerate(labels):
        members[c].append(v)
    out = list(labels)
    next_label = max(labels) + 1 if labels else 0
    for c, nodes in sorted(members.items()):
        remaining = set(nodes)
        first = True
        while remaining:
            seed_node = min(remaining)
            component = {seed_node}
            frontier = [seed_node]
            while frontier:
                v = frontier.pop()
                for u in g.adj[v]:
                    if u in remaining and u not in component:
                        component.add(u)
                        frontier.append(u)
            remaining -= component
            if not first:
                for v in sorted(component):
                    out[v] = next_label
                next_label += 1
            first = False
    return out


def _canonicalize(nodes: list[str], labels: Sequence[int]) -> dict[str, int]:
    relabel: dict[int, int] = {}
    assignment: dict[str, int] = {}
    for key, lab in zip(nodes, labels):
        if lab not in relabel:
            relabel[lab] = len(relabel)
        assignment[key] = relabel[lab]
    return assignment


def _labels_from_partition(
    nodes: list[str], partition: Partition
) -> list[int]:
    labels = []
    for key in nodes:
        if key not in partition.assignment:
            raise ValidationError(f"partition does not assign node {key!r}")
        labels.append(partition.assignment[key])
    return labels


def modularity(graph: BimodalGraph, partition: Partition) -> float:
    """Newman modularity of a full assignment; 0 on an edgeless graph."""
    nodes, g = _index_graph(graph)
    return _quality(g, _labels_from_partition(nodes, partition))


def leiden(graph: BimodalGraph, seed: int = 0, restarts: int = 10) -> Partition:
    """Best-of-``restarts`` Leiden partition; deterministic in (seed, restarts).

    Each restart runs the full level loop from its own derived seed; the
    highest-modularity run wins, ties toward the earliest restart. Restarts
    alternate between the classic singleton start and a coarse random start
    (every node thrown into one of ~n/3 buckets): greedy moves from
    singletons only ever merge their way downhill into one family of optima,
    while a coarse start lets the empty-community move carve communities
    apart, reaching partitions the singleton start cannot. The
    connected-components partition (whose Q is never below the all-in-one or
    singleton baselines) is kept as a floor candidate.
    """
    if graph.n_nodes == 0:
        raise ValidationError("cannot run community detection on an empty graph")
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1: {restarts}")
    nodes, g = _index_graph(graph)

    master = random.Random(seed)
    run_seeds = [master.getrandbits(64) for _ in range(restarts)]

    best_labels = _split_disconnected(g, [0] * g.n)
    best_q = _quality(g, best_labels)
    for r, run_seed in enumerate(run_seeds):
        rng = random.Random(run_seed)
        if r % 2 == 0:
            init0 = None
        else:
            width = max(2, g.n // 3)
            init0 = [rng.randrange(width) for _ in range(g.n)]
        labels = _leiden_once(g, rng, init0)
        labels = _split_disconnected(g, labels)
        q = _quality(g, labels)
        if q > best_q:
            best_q, best_labels = q, labels

    return Partition(assignment=_canonicalize(nodes, best_labels), quality=best_q)


def _set_partitions(n: int) -> Iterable[list[int]]:
    # Restricted-growth strings: canonical enumeration of all set partitions.
    labels = [0] * n

    def rec(i: int, max_used: int):
        if i == n:
            yield list(labels)
            return
        for c in range(max_used + 2):
            labels[i] = c
            yield from rec(i + 1, max(max_used, c))

    if n == 0:
        return
    yield from rec(1, 0) if n else iter(())


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
    best_labels = [0] * g.n
    best_q = _quality(g, best_labels)
    for labels in _set_partitions(g.n):
        q = _quality(g, labels)
        if q > best_q:
            best_q, best_labels = q, list(labels)
    return Partition(assignment=_canonicalize(nodes, best_labels), quality=best_q)


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


@dataclass(frozen=True)
class CommunityOfInterest:
    """Per-community overview mirroring the reference tables' columns."""

    community_id: int
    actor_ids: frozenset[str]
    capec_ids: frozenset[int]
    one_timer_pct: float
    out_degree: SummaryStats
    specialized_posts: SummaryStats
    keywords: tuple[str, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.actor_ids) + len(self.capec_ids)

    def as_dict(self) -> dict:
        return {
            "community": self.community_id,
            "nodes": self.n_nodes,
            "actors": len(self.actor_ids),
            "capecs": len(self.capec_ids),
            "one_timer_pct": self.one_timer_pct,
            "out_degree": self.out_degree.as_dict(),
            "specialized_posts": self.specialized_posts.as_dict(),
            "keywords": list(self.keywords),
            "capec_ids": sorted(self.capec_ids),
        }


def summarize_communities(
    graph: BimodalGraph,
    partition: Partition,
    posts: ActorPosts,
    snapshot: CatalogSnapshot,
) -> list[CommunityOfInterest]:
    """Table-style overview of every community, from ``graph``'s surviving posts."""
    actor_adj = graph.actor_adjacency()

    members: dict[int, tuple[set[str], set[int]]] = defaultdict(lambda: (set(), set()))
    for actor in graph.actor_ids:
        comm = partition.assignment.get(node_key("actor", actor))
        if comm is None:
            raise ValidationError(f"partition does not assign actor {actor!r}")
        members[comm][0].add(actor)
    for capec in graph.capec_ids:
        comm = partition.assignment.get(node_key("capec", capec))
        if comm is None:
            raise ValidationError(f"partition does not assign CAPEC {capec}")
        members[comm][1].add(capec)

    overviews = []
    for comm in sorted(members):
        actors, capecs = members[comm]
        counts = [len(posts.get(a, ())) for a in sorted(actors)]
        one_timers = sum(1 for c in counts if c == 1)
        overviews.append(
            CommunityOfInterest(
                community_id=comm,
                actor_ids=frozenset(actors),
                capec_ids=frozenset(capecs),
                one_timer_pct=100.0 * one_timers / len(actors) if actors else 0.0,
                out_degree=SummaryStats.describe(len(actor_adj[a]) for a in sorted(actors)),
                specialized_posts=SummaryStats.describe(counts),
                keywords=keyword_digest(
                    snapshot.capecs[c].name for c in capecs if c in snapshot.capecs
                ),
            )
        )
    return overviews
