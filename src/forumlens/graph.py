"""The unweighted actor-CAPEC bimodal graph.

Edges are set-semantic: an actor mentioning a CAPEC once or more yields one
edge. The popularity filter removes CAPEC nodes shared by more than a
threshold number of actors and then prunes actors left without edges; one
CAPEC pass followed by one actor pass suffices because removing actors can
only lower CAPEC degrees.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import TYPE_CHECKING
from xml.etree import ElementTree

from .catalog import CatalogSnapshot, map_cve_to_capecs
from .errors import ValidationError
from .ingest import Corpus, CveId
from .stats import SummaryStats
from .workspace import replacing

if TYPE_CHECKING:
    from .community import Partition

EXPORT_FORMATS = ("graphml", "dot", "csv")
DEFAULT_CAPEC_THRESHOLD = 500


@dataclass(frozen=True)
class BimodalGraph:
    """Bipartite actor-CAPEC graph; edges only connect the two modes."""

    actor_ids: frozenset[str]
    capec_ids: frozenset[int]
    edges: frozenset[tuple[str, int]]

    def __post_init__(self) -> None:
        for actor, capec in self.edges:
            if actor not in self.actor_ids or capec not in self.capec_ids:
                raise ValidationError(f"edge ({actor!r}, {capec}) references unknown node")

    @property
    def n_nodes(self) -> int:
        return len(self.actor_ids) + len(self.capec_ids)

    def actor_adjacency(self) -> dict[str, set[int]]:
        adj: dict[str, set[int]] = {a: set() for a in self.actor_ids}
        for actor, capec in self.edges:
            adj[actor].add(capec)
        return adj

    def capec_adjacency(self) -> dict[int, set[str]]:
        adj: dict[int, set[str]] = {c: set() for c in self.capec_ids}
        for actor, capec in self.edges:
            adj[capec].add(actor)
        return adj


# per actor, in corpus order: (timestamp, CAPEC ids) of each post that resolves
ActorPosts = dict[str, list[tuple[datetime, frozenset[int]]]]


def post_capec_sets(corpus: Corpus, snapshot: CatalogSnapshot) -> ActorPosts:
    """Resolve posts to CAPECs; posts (and actors) resolving to none are left out.

    Each distinct mention set is resolved once per call, and posts with equal
    mention sets share one CAPEC frozenset.
    """
    by_set: dict[frozenset[CveId], frozenset[int]] = {}
    posts: ActorPosts = {}
    for post in corpus.posts:
        capecs = by_set.get(post.mentions)
        if capecs is None:
            capecs = frozenset().union(*(map_cve_to_capecs(snapshot, c) for c in post.mentions))
            by_set[post.mentions] = capecs
        if capecs:
            posts.setdefault(post.actor_id, []).append((post.timestamp, capecs))
    return posts


def graph_of(posts: ActorPosts) -> BimodalGraph:
    """The bimodal graph of resolved posts: one edge per (actor, CAPEC) pair."""
    edges = frozenset((a, c) for a, a_posts in posts.items() for _, cs in a_posts for c in cs)
    return BimodalGraph(frozenset(a for a, _ in edges), frozenset(c for _, c in edges), edges)


def build_graph(corpus: Corpus, snapshot: CatalogSnapshot) -> BimodalGraph:
    """Build the bimodal graph; actors whose CVEs map to no CAPEC are dropped."""
    return graph_of(post_capec_sets(corpus, snapshot))


def surviving_posts(posts: ActorPosts, graph: BimodalGraph) -> ActorPosts:
    """Cut posts to ``graph``: only its actors and CAPECs stay; emptied posts and actors go."""
    cut: ActorPosts = {}
    for actor, actor_posts in posts.items():
        if actor in graph.actor_ids:
            kept = [(when, capecs & graph.capec_ids) for when, capecs in actor_posts]
            if kept := [(when, capecs) for when, capecs in kept if capecs]:
                cut[actor] = kept
    return cut


def surviving_post_counts(posts: ActorPosts) -> dict[str, int]:
    """Posts per actor of a :func:`surviving_posts` table."""
    return {actor: len(actor_posts) for actor, actor_posts in posts.items()}


@dataclass(frozen=True)
class RemovalReport:
    """What the popularity filter removed: CAPECs (with degree) and orphaned actors."""

    threshold: int
    removed_capecs: dict[int, int]
    removed_actors: frozenset[str]

    def as_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "removed_capecs": {str(c): d for c, d in sorted(self.removed_capecs.items())},
            "removed_actors": sorted(self.removed_actors),
            "n_removed_capecs": len(self.removed_capecs),
            "n_removed_actors": len(self.removed_actors),
        }


def filter_popular_capecs(
    graph: BimodalGraph, threshold: int = DEFAULT_CAPEC_THRESHOLD
) -> tuple[BimodalGraph, RemovalReport]:
    """Remove CAPECs mentioned by strictly more than ``threshold`` actors.

    Actors left without any edge afterwards are removed as well.
    """
    if threshold < 1:
        raise ValidationError(f"threshold must be >= 1: {threshold}")

    capec_deg = {c: len(actors) for c, actors in graph.capec_adjacency().items()}
    removed_capecs = {c: d for c, d in capec_deg.items() if d > threshold}
    kept_capecs = graph.capec_ids - removed_capecs.keys()
    kept_edges = frozenset((a, c) for a, c in graph.edges if c in kept_capecs)
    kept_actors = frozenset(a for a, _ in kept_edges)
    removed_actors = graph.actor_ids - kept_actors

    filtered = BimodalGraph(actor_ids=kept_actors, capec_ids=kept_capecs, edges=kept_edges)
    report = RemovalReport(
        threshold=threshold,
        removed_capecs=removed_capecs,
        removed_actors=removed_actors,
    )
    return filtered, report


@dataclass(frozen=True)
class DegreeStats:
    """Per-mode degree statistics plus both density conventions.

    ``density`` uses bipartite-possible pairs (|E| / |actors|*|capecs|);
    ``density_all_pairs`` uses all node pairs, the convention under which the
    2,584-node reference network has density 0.009.
    """

    n_actors: int
    n_capecs: int
    n_edges: int
    actor_degree: SummaryStats
    capec_degree: SummaryStats
    density: float
    density_all_pairs: float
    posts: SummaryStats
    posts_non_one_timers: SummaryStats
    one_timer_share: float

    def as_dict(self) -> dict:
        return {
            "n_actors": self.n_actors,
            "n_capecs": self.n_capecs,
            "n_edges": self.n_edges,
            "actor_degree": self.actor_degree.as_dict(),
            "capec_degree": self.capec_degree.as_dict(),
            "density": self.density,
            "density_all_pairs": self.density_all_pairs,
            "posts": self.posts.as_dict(),
            "posts_non_one_timers": self.posts_non_one_timers.as_dict(),
            "one_timer_share": self.one_timer_share,
        }


def degree_stats(graph: BimodalGraph, post_counts: dict[str, int]) -> DegreeStats:
    """Degree statistics plus the one-timer block from per-actor post counts."""
    # sorted id order: the float sums in SummaryStats must not follow set order,
    # which varies with the interpreter's hash seed
    actor_degrees = [len(s) for _, s in sorted(graph.actor_adjacency().items())]
    capec_degrees = [len(s) for _, s in sorted(graph.capec_adjacency().items())]
    n_actors, n_capecs, n_edges = len(graph.actor_ids), len(graph.capec_ids), len(graph.edges)

    density = n_edges / (n_actors * n_capecs) if n_actors and n_capecs else 0.0
    n_nodes = n_actors + n_capecs
    all_pairs = n_nodes * (n_nodes - 1) / 2
    density_all = n_edges / all_pairs if all_pairs else 0.0

    counts = [post_counts.get(a, 0) for a in sorted(graph.actor_ids)]
    return DegreeStats(
        n_actors=n_actors,
        n_capecs=n_capecs,
        n_edges=n_edges,
        actor_degree=SummaryStats.describe(actor_degrees),
        capec_degree=SummaryStats.describe(capec_degrees),
        density=density,
        density_all_pairs=density_all,
        posts=SummaryStats.describe(counts),
        posts_non_one_timers=SummaryStats.describe(c for c in counts if c > 1),
        one_timer_share=sum(1 for c in counts if c == 1) / len(counts) if counts else 0.0,
    )


# --- serialization -----------------------------------------------------------

def node_key(mode: str, node_id: str | int) -> str:
    """Stable string key for a node: 'actor:<id>' or 'capec:<id>'."""
    return f"{mode}:{node_id}"


def save_graph(graph: BimodalGraph, path: str | Path) -> None:
    payload = {
        "actors": sorted(graph.actor_ids),
        "capecs": sorted(graph.capec_ids),
        "edges": sorted([a, c] for a, c in graph.edges),
    }
    with replacing(path) as handle:
        handle.write(json.dumps(payload, sort_keys=True) + "\n")


def load_graph(path: str | Path) -> BimodalGraph:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return BimodalGraph(
        actor_ids=frozenset(payload["actors"]),
        capec_ids=frozenset(int(c) for c in payload["capecs"]),
        edges=frozenset((a, int(c)) for a, c in payload["edges"]),
    )


def save_posts(posts: ActorPosts, path: str | Path) -> None:
    """Write a resolved-post table: actor -> [[timestamp, sorted CAPEC ids], ...]."""
    payload = {a: [[when.isoformat(), sorted(cs)] for when, cs in ps] for a, ps in posts.items()}
    with replacing(path) as handle:
        handle.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_posts(path: str | Path) -> ActorPosts:
    items = json.loads(Path(path).read_text(encoding="utf-8")).items()
    return {a: [(datetime.fromisoformat(ts), frozenset(cs)) for ts, cs in ps] for a, ps in items}


def _community_of(partition: "Partition | None", key: str) -> int | None:
    if partition is None:
        return None
    return partition.assignment.get(key)


def export_graph(
    graph: BimodalGraph,
    fmt: str,
    path: str | Path,
    partition: "Partition | None" = None,
) -> None:
    """Serialize the graph for external tools: 'graphml', 'dot' or 'csv'.

    Every node carries a ``mode`` attribute and, when a partition is given,
    its ``community`` id. Nodes are named by :func:`node_key`; the CSV form
    has one row per edge and no node rows.
    """
    if fmt not in EXPORT_FORMATS:
        raise ValidationError(f"unknown export format {fmt!r}; expected one of {EXPORT_FORMATS}")
    text = {
        "graphml": _to_graphml,
        "dot": _to_dot,
        "csv": _to_csv,
    }[fmt](graph, partition)
    with replacing(path) as handle:
        handle.write(text)


def _sorted_nodes(graph: BimodalGraph) -> list[tuple[str, str]]:
    nodes = [("actor", a) for a in sorted(graph.actor_ids)]
    nodes += [("capec", str(c)) for c in sorted(graph.capec_ids)]
    return nodes


def _to_graphml(graph: BimodalGraph, partition: "Partition | None") -> str:
    root = ElementTree.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
    for key_id, attr in (("d_mode", "mode"), ("d_comm", "community")):
        key = ElementTree.SubElement(root, "key")
        key.set("id", key_id)
        key.set("for", "node")
        key.set("attr.name", attr)
        key.set("attr.type", "string" if attr == "mode" else "long")
    g = ElementTree.SubElement(root, "graph", edgedefault="undirected")
    for mode, raw in _sorted_nodes(graph):
        key = node_key(mode, raw)
        node = ElementTree.SubElement(g, "node", id=key)
        data = ElementTree.SubElement(node, "data", key="d_mode")
        data.text = mode
        comm = _community_of(partition, key)
        if comm is not None:
            data = ElementTree.SubElement(node, "data", key="d_comm")
            data.text = str(comm)
    for actor, capec in sorted(graph.edges):
        ElementTree.SubElement(
            g, "edge", source=node_key("actor", actor), target=node_key("capec", capec)
        )
    return ElementTree.tostring(root, encoding="unicode", xml_declaration=True) + "\n"


def _dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _to_dot(graph: BimodalGraph, partition: "Partition | None") -> str:
    lines = ["graph bimodal {"]
    for mode, raw in _sorted_nodes(graph):
        key = node_key(mode, raw)
        attrs = [f"mode={mode}"]
        comm = _community_of(partition, key)
        if comm is not None:
            attrs.append(f"community={comm}")
        lines.append(f"  {_dot_quote(key)} [{', '.join(attrs)}];")
    for actor, capec in sorted(graph.edges):
        lines.append(
            f"  {_dot_quote(node_key('actor', actor))} -- {_dot_quote(node_key('capec', capec))};"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _to_csv(graph: BimodalGraph, partition: "Partition | None") -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["actor_id", "capec_id", "actor_community", "capec_community"])
    for actor, capec in sorted(graph.edges):
        a_comm = _community_of(partition, node_key("actor", actor))
        c_comm = _community_of(partition, node_key("capec", capec))
        writer.writerow(
            [actor, capec, "" if a_comm is None else a_comm, "" if c_comm is None else c_comm]
        )
    return buffer.getvalue()
