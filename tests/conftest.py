"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import csv
import json
import math
import random
import re
import tempfile
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Mapping
from xml.etree import ElementTree

import numpy as np
import pytest

from forumlens import cluster
from forumlens.catalog import CapecEntry, CatalogSnapshot, CveEntry, SkillLevel, build_snapshot
from forumlens.errors import ValidationError
from forumlens.graph import ActorCapecs, Partition, RemovalReport
from forumlens.ingest import (
    DEFAULT_VALID_FROM, DEFAULT_VALID_TO, CveId, PostRecord, extract_cve_ids,
)


def ts(text: str) -> datetime:
    """Short UTC timestamp builder: ts('2021-03-20') or full ISO."""
    if len(text) == 10:
        text += "T00:00:00"
    return datetime.fromisoformat(text).replace(tzinfo=timezone.utc)


@contextmanager
def lines_file(lines: Iterable[str]) -> Iterator[Path]:
    """A temporary file holding each of ``lines`` and a newline, for the post readers,
    which take a path; safe inside a hypothesis test, unlike ``tmp_path``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "posts.jsonl")
        path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
        yield path


def post(
    post_id: str,
    actor: str,
    when: str,
    content: str = "",
    forum: str = "f1",
) -> PostRecord:
    return PostRecord(
        post_id=post_id,
        actor_id=actor,
        forum_id=forum,
        timestamp=ts(when),
        content=content,
        mentions=frozenset(),
    )


def snapshot_from(
    cve_to_cwes: dict[str, list[str]],
    capecs: list[tuple[int, str, list[str]]],
    skills: dict[int, str] | None = None,
    parents: dict[int, list[int]] | None = None,
) -> CatalogSnapshot:
    """Compact snapshot builder: capecs as (id, name, related CWEs)."""
    skills = skills or {}
    parents = parents or {}
    cve_entries = [
        CveEntry(cve_id=CveId.parse(cve), cwe_ids=frozenset(cwes))
        for cve, cwes in cve_to_cwes.items()
    ]
    capec_entries = [
        CapecEntry(
            capec_id=cid,
            name=name,
            related_cwes=frozenset(cwes),
            parent_ids=frozenset(parents.get(cid, [])),
            child_ids=frozenset(),
            skill_scenarios=(
                (SkillLevel.parse(skills[cid]),) if cid in skills else ()
            ),
        )
        for cid, name, cwes in capecs
    ]
    return build_snapshot(cve_entries, capec_entries)


def effective_skill_oracle(snapshot: CatalogSnapshot, capec_id: int) -> SkillLevel | None:
    """The skill-imputation rule by its recursive definition, off a built snapshot.

    Direct scenarios take their maximum; else the maximum over parents of
    their upward values; else the maximum direct value among children.
    Exponential on shared ancestors and bounded by the recursion limit, so
    for small hierarchies only.
    """
    capecs = snapshot.capecs

    def direct(cid: int) -> SkillLevel | None:
        scenarios = capecs[cid].skill_scenarios
        return max(scenarios) if scenarios else None

    def upward(cid: int) -> SkillLevel | None:
        value = direct(cid)
        if value is not None:
            return value
        parent_values = [v for p in capecs[cid].parent_ids if (v := upward(p)) is not None]
        return max(parent_values) if parent_values else None

    value = upward(capec_id)
    if value is None:
        child_values = [v for c in capecs[capec_id].child_ids if (v := direct(c)) is not None]
        value = max(child_values) if child_values else None
    return value


def bigraph(edges: Iterable[tuple[str, int]]) -> ActorCapecs:
    """The actor -> CAPEC union of an edge list: the form every graph function takes."""
    adjacency: dict[str, set[int]] = {}
    for actor, capec in edges:
        adjacency.setdefault(actor, set()).add(capec)
    return {actor: frozenset(capecs) for actor, capecs in adjacency.items()}


def capecs_of(graph: ActorCapecs) -> frozenset[int]:
    """The CAPEC nodes of a union's graph."""
    return frozenset().union(*graph.values())


def edges_of(graph: ActorCapecs) -> frozenset[tuple[str, int]]:
    """The (actor, CAPEC) edges of a union's graph."""
    return frozenset((actor, capec) for actor, capecs in graph.items() for capec in capecs)


def node_keys(graph: ActorCapecs) -> list[str]:
    """Every node key of a union's graph, actors first."""
    return [f"actor:{a}" for a in graph] + [f"capec:{c}" for c in capecs_of(graph)]


def filtered(graph: ActorCapecs, report: RemovalReport) -> ActorCapecs:
    """The union the popularity filter leaves: its removed CAPECs cut, emptied actors gone."""
    kept = {actor: capecs.difference(report.removed_capecs) for actor, capecs in graph.items()}
    return {actor: capecs for actor, capecs in kept.items() if capecs}


_DOT_ID = r'"((?:[^"\\]|\\.)*)"'


def read_export(path: str | Path, fmt: str) -> ActorCapecs:
    """Read an ``export_graph`` file back into a union; graphml and dot list their nodes,
    which must be the union's own."""
    text = Path(path).read_text(encoding="utf-8")
    if fmt == "csv":
        rows = csv.DictReader(text.splitlines())
        return bigraph([(row["actor_id"], int(row["capec_id"])) for row in rows])
    if fmt == "graphml":
        root = ElementTree.fromstring(text)
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        nodes = [n.get("id") for n in root.iter(ns + "node")]
        pairs = [(e.get("source"), e.get("target")) for e in root.iter(ns + "edge")]
    else:
        def unquote(key: str) -> str:
            return re.sub(r"\\(.)", r"\1", key)

        nodes = [unquote(k) for k in re.findall(rf"^  {_DOT_ID} \[", text, re.M)]
        edge_re = rf"^  {_DOT_ID} -- {_DOT_ID};$"
        pairs = [(unquote(a), unquote(c)) for a, c in re.findall(edge_re, text, re.M)]
    graph = bigraph((a.split(":", 1)[1], int(c.split(":", 1)[1])) for a, c in pairs)
    assert sorted(nodes) == sorted(node_keys(graph)), "a listed node has no edge"
    return graph


def two_bicliques() -> ActorCapecs:
    """Two disjoint complete 2x2 bicliques: the Q = 0.5 hand example."""
    edges = [
        ("a1", 1), ("a1", 2), ("a2", 1), ("a2", 2),
        ("b1", 3), ("b1", 4), ("b2", 3), ("b2", 4),
    ]
    return bigraph(edges)


def random_bigraph(rng: random.Random, max_actors: int = 4, max_capecs: int = 4) -> ActorCapecs:
    """Random connected-ish bipartite graph with at least one edge."""
    n_a = rng.randint(1, max_actors)
    n_c = rng.randint(1, max_capecs)
    actors = [f"a{i}" for i in range(n_a)]
    capecs = list(range(1, n_c + 1))
    edges = {(rng.choice(actors), rng.choice(capecs))}
    for a in actors:
        for c in capecs:
            if rng.random() < 0.45:
                edges.add((a, c))
    return bigraph(sorted(edges))


def random_bigraph_exact(rng: random.Random, n_actors: int, n_capecs: int) -> ActorCapecs:
    """Random bipartite graph with exactly the requested node counts."""
    actors = [f"a{i}" for i in range(n_actors)]
    capecs = list(range(1, n_capecs + 1))
    edges = set()
    for a in actors:
        edges.add((a, rng.choice(capecs)))
    for c in capecs:
        edges.add((rng.choice(actors), c))
    for a in actors:
        for c in capecs:
            if rng.random() < 0.35:
                edges.add((a, c))
    return bigraph(sorted(edges))


def modularity_oracle(graph: ActorCapecs, assignment: dict[str, int]) -> float:
    """Direct-formula modularity computed straight off the edge list.

    Independent of the package's adjacency-based implementation: accumulates
    intra-community edges and community degree sums in one pass over edges.
    """
    edges = edges_of(graph)
    m = len(edges)
    if m == 0:
        return 0.0
    intra: dict[int, int] = {}
    degree_sum: dict[int, int] = {}
    for actor, capec in edges:
        ca = assignment[f"actor:{actor}"]
        cc = assignment[f"capec:{capec}"]
        degree_sum[ca] = degree_sum.get(ca, 0) + 1
        degree_sum[cc] = degree_sum.get(cc, 0) + 1
        if ca == cc:
            intra[ca] = intra.get(ca, 0) + 1
    return sum(
        intra.get(c, 0) / m - (d / (2 * m)) ** 2 for c, d in degree_sum.items()
    )


BRUTE_FORCE_NODE_CAP = 12


def brute_force_optimum(graph: ActorCapecs) -> Partition:
    """The exhaustive modularity maximum over every set partition of a union's graph.

    Restricted-growth strings enumerate each set partition once, labels in
    order of first appearance over :func:`node_keys`; each label's
    intra-community edge count and degree sum are updated as a node is placed,
    so a leaf sums Q's terms without a pass over the edges. Ties keep the
    partition met first, the all-in-one partition coming first. Refuses graphs
    of more than ``BRUTE_FORCE_NODE_CAP`` nodes.
    """
    keys = node_keys(graph)
    n = len(keys)
    if n > BRUTE_FORCE_NODE_CAP:
        raise ValidationError(
            f"brute-force search refuses graphs with more than {BRUTE_FORCE_NODE_CAP} nodes "
            f"(got {n})"
        )
    if n == 0:
        raise ValidationError("cannot partition an empty graph")
    index = {key: i for i, key in enumerate(keys)}
    earlier: list[list[int]] = [[] for _ in keys]  # each node's neighbours placed before it
    strength = [0] * n
    for actor, capec in edges_of(graph):
        a, c = index[f"actor:{actor}"], index[f"capec:{capec}"]
        earlier[max(a, c)].append(min(a, c))
        strength[a] += 1
        strength[c] += 1
    m = sum(strength) // 2
    labels, intra, degree = [0] * n, [0] * n, [0] * n
    # the all-in-one partition, the first leaf, scores 0.0, as every partition of an
    # edgeless graph does
    best_q, best_labels = 0.0, [0] * n

    def grow(i: int, n_used: int) -> None:
        nonlocal best_q, best_labels
        if i == n:
            q = 0.0
            for e, d in zip(intra[:n_used], degree[:n_used]):
                q += e / m - (d / (2 * m)) ** 2
            if q > best_q:
                best_q, best_labels = q, list(labels)
            return
        inside = [0] * (n_used + 1)
        for j in earlier[i]:
            inside[labels[j]] += 1
        for c in range(n_used + 1):
            labels[i] = c
            intra[c] += inside[c]
            degree[c] += strength[i]
            grow(i + 1, max(n_used, c + 1))
            intra[c] -= inside[c]
            degree[c] -= strength[i]

    if m:
        grow(0, 0)
    return Partition(assignment=dict(zip(keys, best_labels)), quality=best_q)


def grouped(assignment: Mapping) -> dict[int, frozenset]:
    """The keys of each label of an assignment, such as a partition's communities."""
    groups: dict[int, set] = {}
    for key, label in assignment.items():
        groups.setdefault(label, set()).add(key)
    return {label: frozenset(keys) for label, keys in groups.items()}


def post_capec_oracle(
    records: list[tuple[str, datetime, set[str]]],
    cve_cwes: dict[str, list[str]],
    capec_cwes: dict[int, list[str]],
) -> dict[str, list[tuple[datetime, frozenset[int]]]]:
    """Per-post CVE -> CWE -> CAPEC resolution off plain dicts, nothing shared or cached.

    ``records`` are (actor, timestamp, canonical CVE ids) in corpus order;
    posts and actors that resolve to no CAPEC are left out.
    """
    table: dict[str, list[tuple[datetime, frozenset[int]]]] = {}
    for actor, when, cves in records:
        capecs = {
            capec
            for cve in cves
            for cwe in cve_cwes.get(cve, [])
            for capec, related in capec_cwes.items()
            if cwe in related
        }
        if capecs:
            table.setdefault(actor, []).append((when, frozenset(capecs)))
    return table


def lloyd_reference(X, centroids, max_iter: int = 300, tol: float = 1e-8):
    """Pure-python Lloyd iteration from explicit starting centroids.

    Follows the documented update policy (assign, revive empty clusters at the
    farthest point, recompute means, stop on label fixpoint or a relative
    inertia change below ``tol``) without any numpy, as an independent check.
    Returns (labels, inertia).
    """
    points = [list(map(float, row)) for row in X]
    cents = [list(map(float, row)) for row in centroids]
    n, k = len(points), len(cents)

    def d2(p, q):
        return sum((a - b) ** 2 for a, b in zip(p, q))

    prev_labels = None
    prev_inertia = None
    labels = [0] * n
    inertia = 0.0
    for _ in range(max_iter):
        dists = [[d2(p, c) for c in cents] for p in points]
        labels = [min(range(k), key=lambda c: dists[i][c]) for i in range(n)]
        for _attempt in range(k):
            empties = [c for c in range(k) if c not in labels]
            if not empties:
                break
            to_own = [dists[i][labels[i]] for i in range(n)]
            for c in empties:
                far = max(range(n), key=lambda i: to_own[i])
                cents[c] = list(points[far])
                to_own[far] = -1.0
            dists = [[d2(p, c) for c in cents] for p in points]
            labels = [min(range(k), key=lambda c: dists[i][c]) for i in range(n)]
        for c in range(k):
            members = [points[i] for i in range(n) if labels[i] == c]
            if members:
                cents[c] = [sum(col) / len(members) for col in zip(*members)]
        inertia = sum(d2(points[i], cents[labels[i]]) for i in range(n))
        if prev_labels is not None and labels == prev_labels:
            break
        if prev_inertia is not None and abs(prev_inertia - inertia) < tol * max(prev_inertia, 1e-12):
            break
        prev_labels, prev_inertia = list(labels), inertia
    return labels, inertia


def lloyd_every_row(X, centroids, max_iter: int = 300, tol: float = 1e-8):
    """Lloyd iteration as first written: ``np.einsum`` distances for every row
    and ``mean`` over each cluster's member rows. Returns (labels, centroids,
    inertia, path); the bits :func:`forumlens.cluster.kmeans` must keep."""
    X, centroids = np.asarray(X, dtype=float), np.array(centroids, dtype=float)
    n, k = X.shape[0], centroids.shape[0]

    def d2(C):
        diff = X[:, None, :] - C[None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff)

    prev_labels, prev_inertia, path = None, math.inf, []
    dist = d2(centroids)
    for _ in range(max_iter):
        labels = dist.argmin(axis=1)
        for _attempt in range(k):
            empties = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
            if empties.size == 0:
                break
            to_own = dist[np.arange(n), labels].copy()
            for c in empties:
                far = int(to_own.argmax())
                centroids[c] = X[far]
                to_own[far] = -1.0
            dist = d2(centroids)
            labels = dist.argmin(axis=1)
        for c in range(k):
            members = X[labels == c]
            if members.size:
                centroids[c] = members.mean(axis=0)
        dist = d2(centroids)
        inertia = float(dist[np.arange(n), labels].sum())
        path.append(inertia)
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        if math.isfinite(prev_inertia) and abs(prev_inertia - inertia) < tol * max(prev_inertia, 1e-12):
            break
        prev_labels, prev_inertia = labels, inertia
    return labels, centroids, path[-1], path


def kmeans_from(X, init) -> cluster.KMeansModel:
    """The k-means model of one Lloyd run from the given starting centroids."""
    X = np.asarray(X, dtype=float)
    return cluster._model(cluster._lloyd(cluster._rows(X), np.asarray(init, dtype=float)))


def kmeans_pp_init_every_row(X, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding as first written, with distances for every row; the
    draws :func:`forumlens.cluster._kmeans_pp_init` must keep."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]), dtype=float)
    first = int(rng.integers(n))
    centers[0] = X[first]
    closest = ((X - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centers[i] = X[idx]
        closest = np.minimum(closest, ((X - centers[i]) ** 2).sum(axis=1))
    return centers


def silhouettes_every_row(X, labelings, block: int = 128) -> list[float]:
    """Silhouettes as first written: ``np.einsum`` distances, and every row
    scored on its own, in row-order blocks. The bits
    :func:`forumlens.cluster.silhouettes` must keep."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    scores = []
    for labels in labelings:
        _, own, sizes = np.unique(np.asarray(labels), return_inverse=True, return_counts=True)
        members = [np.flatnonzero(own == c) for c in range(sizes.size)]
        out = np.zeros(n)
        for start in range(0, n, block):
            stop = min(start + block, n)
            diff = X[start:stop, None, :] - X[None, :, :]
            dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            rows = np.arange(stop - start)
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
        scores.append(float(out.mean()))
    return scores


def silhouette_oracle(X, labels) -> float:
    """Definitional O(n^2) silhouette: per-point loops, no vectorization."""
    points = [list(map(float, row)) for row in X]
    labels = [int(lab) for lab in labels]
    n = len(points)

    def dist(i, j):
        return sum((a - b) ** 2 for a, b in zip(points[i], points[j])) ** 0.5

    clusters = sorted(set(labels))
    scores = []
    for i in range(n):
        own = labels[i]
        own_others = [j for j in range(n) if labels[j] == own and j != i]
        if not own_others:
            scores.append(0.0)
            continue
        a = sum(dist(i, j) for j in own_others) / len(own_others)
        b = min(
            sum(dist(i, j) for j in range(n) if labels[j] == c)
            / sum(1 for j in range(n) if labels[j] == c)
            for c in clusters
            if c != own
        )
        top = max(a, b)
        scores.append(0.0 if top == 0.0 else (b - a) / top)
    return sum(scores) / n


def community_members_connected(graph: ActorCapecs, members: set[str]) -> bool:
    """Whether the subgraph induced by a set of node keys is connected."""
    if not members:
        return True
    adjacency: dict[str, set[str]] = {key: set() for key in members}
    for actor, capec in edges_of(graph):
        a_key, c_key = f"actor:{actor}", f"capec:{capec}"
        if a_key in adjacency and c_key in adjacency:
            adjacency[a_key].add(c_key)
            adjacency[c_key].add(a_key)
    start = next(iter(members))
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for other in adjacency[node]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return seen == members


@pytest.fixture
def mapping_snapshot() -> CatalogSnapshot:
    """Catalog fixture reproducing the documented CVE-to-CAPEC worked example."""
    return snapshot_from(
        cve_to_cwes={"CVE-2022-45451": ["CWE-269"]},
        capecs=[(233, "Privilege Escalation", ["CWE-269"])],
        skills={233: "High"},
    )


def _oracle_timestamp(value: str) -> datetime:
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        when = datetime.fromisoformat(text)
        if when.tzinfo is None:
            when = when.replace(tzinfo=timezone.utc)
        return when.astimezone(timezone.utc).replace(microsecond=0)
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"unparseable timestamp: {value!r}") from exc


def _oracle_record(line: str) -> PostRecord:
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValidationError("record is not a JSON object")
    keys = ("post_id", "actor_id", "forum_id", "timestamp", "content")
    if not all(isinstance(obj.get(key), str) for key in keys):
        raise ValidationError("missing or non-string key")
    when = _oracle_timestamp(obj["timestamp"])
    if not DEFAULT_VALID_FROM <= when <= DEFAULT_VALID_TO:
        raise ValidationError("timestamp outside validity window")
    raw = obj.get("mentions", [])
    if not isinstance(raw, list) or not all(isinstance(c, str) for c in raw):
        raise ValidationError("key 'mentions' must be a list of strings")
    mentions = frozenset(CveId.parse(c) for c in raw)
    return PostRecord(
        obj["post_id"], obj["actor_id"], obj["forum_id"], when, obj["content"], mentions
    )


def ingest_oracle(data: bytes) -> tuple[bytes, dict, int]:
    """The corpus file, the ``corpus_stats.json`` payload and the skip count of a posts file,
    by the parse -> build -> save path ingest took before it streamed: every post
    is parsed into a record, the corpus is assembled whole, then written.

    Nothing is shared or cached between lines. A duplicate ``post_id`` raises
    ``ValidationError``.
    """
    records, skipped = [], 0
    for line in data.split(b"\n"):
        try:
            text = line.decode("utf-8")
            if text.strip():
                records.append(_oracle_record(text))
        except (ValueError, RecursionError):
            skipped += 1
    kept, seen = [], set()
    for post in records:
        if post.post_id in seen:
            raise ValidationError(f"duplicate post_id: {post.post_id!r}")
        seen.add(post.post_id)
        mentions = post.mentions or frozenset(extract_cve_ids(post.content))
        if mentions:
            kept.append((post, mentions))
    rows = [
        {
            "post_id": post.post_id,
            "actor_id": post.actor_id,
            "forum_id": post.forum_id,
            "timestamp": post.timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
            "content": post.content,
            "mentions": sorted(str(c) for c in mentions),
        }
        for post, mentions in kept
    ]
    stats = {
        "posts": len(kept),
        "actors": len({post.actor_id for post, _ in kept}),
        "forums": len({post.forum_id for post, _ in kept}),
        "distinct_cves": len({c for _, mentions in kept for c in mentions}),
    }
    corpus = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    return corpus.encode("utf-8"), stats, skipped
