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
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Iterable

from . import DEFAULT_CAPEC_THRESHOLD, EXPORT_FORMATS
from .catalog import CatalogSnapshot, SkillLevel, map_cve_to_capecs
from .errors import ValidationError
from .ingest import Corpus, Memo, PostTable, encodable
from .stats import describe
from .workspace import field, read_json_object, replacing


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

    def capec_adjacency(self) -> dict[int, set[str]]:
        adj: dict[int, set[str]] = {c: set() for c in self.capec_ids}
        for actor, capec in self.edges:
            adj[capec].add(actor)
        return adj


# per actor, in corpus order: (timestamp, CAPEC ids) of each post that resolves
ActorPosts = dict[str, list[tuple[datetime, frozenset[int]]]]
ActorCapecs = dict[str, frozenset[int]]  # per actor: the union of its posts' CAPEC ids


def post_capec_sets(table: PostTable, snapshot: CatalogSnapshot) -> ActorPosts:
    """Resolve a post table's posts to CAPECs; posts (and actors) resolving to none are left out.

    Each distinct CVE and each distinct mention set is resolved once per call,
    and posts with equal mention sets share one CAPEC frozenset.
    """
    by_cve = Memo(lambda cve: map_cve_to_capecs(snapshot, cve))
    by_set = Memo(lambda ms: frozenset().union(*map(by_cve.__getitem__, ms)))
    posts: ActorPosts = {}
    for actor, when, mentions in table:
        capecs = by_set[mentions]
        if capecs:
            posts.setdefault(actor, []).append((when, capecs))
    return posts


def actor_capecs(posts: ActorPosts) -> ActorCapecs:
    """Each actor's CAPECs in a resolved-post table: the union of its posts' sets."""
    return {a: frozenset().union(*(cs for _, cs in a_posts)) for a, a_posts in posts.items()}


def graph_of(adjacency: ActorCapecs) -> BimodalGraph:
    """The bimodal graph of a table's :func:`actor_capecs`: one edge per (actor, CAPEC) pair."""
    edges = frozenset((a, c) for a, cs in adjacency.items() for c in cs)
    return BimodalGraph(frozenset(a for a, _ in edges), frozenset(c for _, c in edges), edges)


def build_graph(corpus: Corpus, snapshot: CatalogSnapshot) -> BimodalGraph:
    """Build the bimodal graph; actors whose CVEs map to no CAPEC are dropped."""
    return graph_of(actor_capecs(post_capec_sets(corpus.table(), snapshot)))


def surviving_posts(posts: ActorPosts, graph: BimodalGraph) -> ActorPosts:
    """Cut posts to ``graph``: only its actors and CAPECs stay; emptied posts and actors go.

    Each distinct CAPEC set is cut once per call, and posts with equal sets
    share the cut one.
    """
    cut_of = Memo(lambda capecs: capecs & graph.capec_ids)
    cut: ActorPosts = {}
    for actor, actor_posts in posts.items():
        if actor in graph.actor_ids:
            kept = [(when, left) for when, capecs in actor_posts if (left := cut_of[capecs])]
            if kept:
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


def removal_by_skill(
    full: BimodalGraph, removal: RemovalReport, snapshot: CatalogSnapshot
) -> list[dict]:
    """The filter's ledger per skill level of ``full``'s CAPECs, Low to High, then
    ``unknown`` for CAPECs with no level: the level's CAPECs, the CAPECs removed and
    the edges they carried. A level with no CAPEC in ``full`` has no row."""
    capecs = Counter(snapshot.skills[c] for c in full.capec_ids)
    removed, edges = Counter(), Counter()
    for c, degree in removal.removed_capecs.items():
        removed[snapshot.skills[c]] += 1
        edges[snapshot.skills[c]] += degree
    return [
        {"level": level.label() if level else "unknown", "capecs": capecs[level],
         "removed_capecs": removed[level], "removed_edges": edges[level]}
        for level in (*SkillLevel, None) if capecs[level]
    ]


def degree_stats(posts: ActorPosts, adjacency: ActorCapecs) -> dict:
    """Degree statistics of a post table's union plus the one-timer block of its post counts.

    ``density`` uses bipartite-possible pairs (|E| / |actors|*|capecs|);
    ``density_all_pairs`` uses all node pairs, the convention under which the
    2,584-node reference network has density 0.009.
    """
    actor_degrees = [len(cs) for cs in adjacency.values()]
    capec_degrees = list(Counter(c for cs in adjacency.values() for c in cs).values())
    n_actors, n_capecs, n_edges = len(adjacency), len(capec_degrees), sum(actor_degrees)

    density = n_edges / (n_actors * n_capecs) if n_actors and n_capecs else 0.0
    n_nodes = n_actors + n_capecs
    all_pairs = n_nodes * (n_nodes - 1) / 2
    density_all = n_edges / all_pairs if all_pairs else 0.0

    counts = list(surviving_post_counts(posts).values())
    return {
        "n_actors": n_actors,
        "n_capecs": n_capecs,
        "n_edges": n_edges,
        "actor_degree": describe(actor_degrees),
        "capec_degree": describe(capec_degrees),
        "density": density,
        "density_all_pairs": density_all,
        "posts": describe(counts),
        "posts_non_one_timers": describe(c for c in counts if c > 1),
        "one_timer_share": sum(1 for c in counts if c == 1) / len(counts) if counts else 0.0,
    }


# --- serialization -----------------------------------------------------------

def node_table(actors: Iterable[str], capecs: Iterable[int]) -> list[tuple[str, str, str | int]]:
    """Every node as (key, mode, id), keyed 'actor:<id>' or 'capec:<id>': actors sorted,
    then CAPECs sorted by number. The one place node order and node keys are decided."""
    return [(f"actor:{a}", "actor", a) for a in sorted(actors)] + [
        (f"capec:{c}", "capec", c) for c in sorted(capecs)
    ]


def save_graph(graph: BimodalGraph, path: str | Path) -> None:
    nodes = node_table(graph.actor_ids, graph.capec_ids)
    payload = {
        "actors": [node for _, mode, node in nodes if mode == "actor"],
        "capecs": [node for _, mode, node in nodes if mode == "capec"],
        "edges": sorted([a, c] for a, c in graph.edges),
    }
    with replacing(path) as handle:
        handle.write(json.dumps(payload, sort_keys=True) + "\n")


def _actor_id(actor: object) -> str:
    """An actor id as a stage writes it: a string that encodes as UTF-8 (a lone
    surrogate would fail only where a later stage writes the id)."""
    if not isinstance(actor, str):
        raise ValidationError(f"actor id must be a string, got {type(actor).__name__}")
    return encodable(actor, "actor id")


def _capec_ids(ids: object) -> tuple[int, ...]:
    """CAPEC ids as a stage writes them: a non-empty list of JSON integers."""
    key = tuple(ids)  # a non-iterable fails here, as any other row of the wrong shape does
    # checked before a caller hashes the key, so a string is named as written and a list
    # or an object among the ids as an id, not as unhashable; a bool's type is not int
    if not isinstance(ids, list) or not key or not {int}.issuperset(map(type, key)):
        raise ValidationError(f"CAPEC ids must be a list of one or more integers: {ids!r}")
    return key


def load_graph(path: str | Path) -> BimodalGraph:
    """Read a saved graph; every edge shares its actor's ``actor_ids`` string.

    A file that is no graph object with ``actors``, ``capecs`` and ``edges``
    lists raises ``ValidationError`` naming the file and the key. Each actor
    and the CAPEC list are checked as :func:`load_posts` checks them: an actor
    id that is no string or does not encode as UTF-8 (a lone surrogate, which
    JSON allows) is named with the file, and ``capecs`` must be a non-empty
    list of JSON integers; no stage writes an empty one, as ``graph`` refuses
    an empty graph. An edge names a listed node, or the graph's check refuses it,
    and its CAPEC is a JSON integer, or it is named as one in ``capecs`` would be.
    """
    payload = read_json_object(path)
    for key in ("actors", "capecs", "edges"):
        if not isinstance(payload.get(key), list):
            problem = "missing" if key not in payload else "expected a list"
            raise ValidationError(f"{path}: {key}: {problem}")
    actors = {a: field(path, a, lambda: _actor_id(a)) for a in payload["actors"]}
    capecs = {c: c for c in field(path, "capecs", lambda: _capec_ids(payload["capecs"]))}
    # an unlisted node keeps its own value, and the graph's check refuses it; an edge's
    # CAPEC is checked first, as true and 12.0 equal the listed CAPECs 1 and 12
    return field(path, "edges", lambda: BimodalGraph(
        actor_ids=frozenset(actors),
        capec_ids=frozenset(capecs),
        edges=frozenset((actors.get(a, a), capecs.get(*_capec_ids([c]), c))
                        for a, c in payload["edges"]),
    ))


def save_posts(posts: ActorPosts, path: str | Path) -> None:
    """Write a resolved-post table: actor -> [[timestamp, sorted CAPEC ids], ...].

    The bytes are those of ``json.dumps(table, sort_keys=True, separators=(",", ":"))``,
    written one actor at a time, so the whole text is never held. Each distinct
    CAPEC set is rendered once per call.
    """
    ids = Memo(lambda capecs: "[" + ",".join(map(str, sorted(capecs))) + "]")
    with replacing(path) as handle:
        sep = "{"
        for actor in sorted(posts):
            rows = ",".join([f'["{when.isoformat()}",{ids[cs]}]' for when, cs in posts[actor]])
            handle.write(f"{sep}{json.dumps(actor)}:[{rows}]")
            sep = ","
        handle.write("}\n" if posts else "{}\n")


def load_posts(path: str | Path, snapshot: CatalogSnapshot) -> ActorPosts:
    """Read a resolved-post table; posts with equal CAPEC lists share one frozenset.

    Each actor's value must be a non-empty list of ``[timestamp, [CAPEC ids]]``
    rows, each timestamp with a UTC offset and each CAPEC list non-empty and in
    ``snapshot``, as :func:`save_posts` writes them, and each actor id must
    encode as UTF-8; anything else raises ``ValidationError`` naming the file
    and the actor.
    """
    @Memo
    def shared(key: tuple) -> frozenset[int]:
        if lacked := sorted(set(key) - snapshot.capecs.keys()):
            raise ValidationError(f"CAPEC ids the catalog lacks: {lacked}")
        return frozenset(key)

    def rows(actor: str, ps: list) -> list[tuple[datetime, frozenset[int]]]:
        _actor_id(actor)
        if not isinstance(ps, list) or not ps:
            raise ValidationError("expected a list of one or more [timestamp, [CAPEC ids]] rows")
        table = [(datetime.fromisoformat(ts), shared[_capec_ids(cs)]) for ts, cs in ps]
        # a naive timestamp would fail only where expertise compares it with an aware one
        if any(when.tzinfo is None for when, _ in table):
            raise ValidationError("timestamp without a UTC offset")
        return table

    return {a: field(path, a, lambda: rows(a, ps)) for a, ps in read_json_object(path).items()}


# --- partitions --------------------------------------------------------------

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

    def labels(self, keys: list[str]) -> list[int]:
        """The community of each node key, in order; the first key left unassigned is refused."""
        try:
            return [self.assignment[key] for key in keys]
        except KeyError as exc:
            raise ValidationError(f"partition does not assign node {exc.args[0]!r}") from exc

    def members(self, adjacency: ActorCapecs) -> dict[int, tuple[frozenset[str], frozenset[int]]]:
        """Each community's (actors, CAPECs) in a post table's union, in community order;
        a node left unassigned is refused, the first in :func:`node_table` order named."""
        nodes = node_table(adjacency, frozenset().union(*adjacency.values()))
        groups: dict[int, tuple[set[str], set[int]]] = defaultdict(lambda: (set(), set()))
        for (_, mode, node), comm in zip(nodes, self.labels([key for key, _, _ in nodes])):
            groups[comm][mode == "capec"].add(node)
        return {c: (frozenset(a), frozenset(p)) for c, (a, p) in sorted(groups.items())}


def load_partition(path: str | Path) -> Partition:
    """Read the partition a saved ``communities.json`` holds; a fault names the file and key.

    Community ids must be JSON integers and the modularity a number, none a
    bool: ``int()`` would move a node at 2.7, "3" or true to another community.
    """
    data = read_json_object(path)

    def community(value: object) -> int:
        if type(value) is not int:
            raise ValidationError(f"expected an integer community id, got {value!r}")
        return value

    def quality(value: object) -> float:
        if type(value) not in (int, float):
            raise ValidationError(f"expected a number, got {value!r}")
        return float(value)

    assignment = field(
        path, "assignment", lambda: {k: community(v) for k, v in data["assignment"].items()}
    )
    return Partition(assignment, field(path, "modularity", lambda: quality(data["modularity"])))


def export_graph(
    graph: BimodalGraph, fmt: str, path: str | Path, partition: Partition | None = None
) -> None:
    """Serialize the graph for external tools: 'graphml', 'dot' or 'csv'.

    Every node carries a ``mode`` attribute and, when a partition is given,
    its ``community`` id. Nodes and their order come from :func:`node_table`;
    the CSV form has one row per edge and no node rows. A node key that XML 1.0
    cannot carry is refused for GraphML before anything is written.
    """
    if fmt not in EXPORT_FORMATS:
        raise ValidationError(f"unknown export format {fmt!r}; expected one of {EXPORT_FORMATS}")
    assignment = partition.assignment if partition else {}
    # a node row is (key, mode, id, community or None), an edge row its two node rows;
    # one map holds both modes, as actor ids are str and CAPEC ids int
    rows = {node: (key, mode, node, assignment.get(key))
            for key, mode, node in node_table(graph.actor_ids, graph.capec_ids)}
    edges = [(rows[a], rows[c]) for a, c in sorted(graph.edges)]
    text = {"graphml": _to_graphml, "dot": _to_dot, "csv": _to_csv}[fmt](list(rows.values()), edges)
    with replacing(path) as handle:
        handle.write(text)


# a character outside XML 1.0's Char production, which no XML document can hold
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _to_graphml(nodes: list[tuple], edges: list[tuple]) -> str:
    from xml.etree import ElementTree  # only this export needs it
    if bad := next((key for key, _, _, _ in nodes if _NOT_XML_CHAR.search(key)), None):
        raise ValidationError(f"node {bad!r} holds a character XML 1.0 cannot carry; use dot or csv")
    root = ElementTree.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
    for key_id, attr, kind in (("d_mode", "mode", "string"), ("d_comm", "community", "long")):
        attrs = {"id": key_id, "for": "node", "attr.name": attr, "attr.type": kind}
        ElementTree.SubElement(root, "key", attrs)
    g = ElementTree.SubElement(root, "graph", edgedefault="undirected")
    for key, mode, _, comm in nodes:
        node = ElementTree.SubElement(g, "node", id=key)
        data = ElementTree.SubElement(node, "data", key="d_mode")
        data.text = mode
        if comm is not None:
            data = ElementTree.SubElement(node, "data", key="d_comm")
            data.text = str(comm)
    for actor, capec in edges:
        ElementTree.SubElement(g, "edge", source=actor[0], target=capec[0])
    return ElementTree.tostring(root, encoding="unicode", xml_declaration=True) + "\n"


def _dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _to_dot(nodes: list[tuple], edges: list[tuple]) -> str:
    lines = ["graph bimodal {"]
    for key, mode, _, comm in nodes:
        attrs = f"mode={mode}" if comm is None else f"mode={mode}, community={comm}"
        lines.append(f"  {_dot_quote(key)} [{attrs}];")
    for actor, capec in edges:
        lines.append(f"  {_dot_quote(actor[0])} -- {_dot_quote(capec[0])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _to_csv(nodes: list[tuple], edges: list[tuple]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["actor_id", "capec_id", "actor_community", "capec_community"])
    # csv writes None, an unassigned node's community, as an empty field
    writer.writerows([a, c, a_comm, c_comm] for (_, _, a, a_comm), (_, _, c, c_comm) in edges)
    return buffer.getvalue()
