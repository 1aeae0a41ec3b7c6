"""Assemble the final report bundle from workspace artifacts.

One machine-readable JSON document plus one human-readable text rendering,
covering the corpus overview, the popularity-filter removal ledger, the
community-of-interest table, sample descriptive statistics, and the labeled
cluster table.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .workspace import Workspace, replacing


def build_report(ws: Workspace) -> dict:
    corpus = ws.read_json("corpus_stats.json")
    graph_stats = ws.read_json("graph_stats.json")
    removal = ws.read_json("removal.json")
    communities = ws.read_json("communities.json")
    sample = ws.read_json("sample_stats.json")
    clusters = ws.read_json("clusters.json")
    return {
        "corpus": corpus,
        "graph": {
            "before_filter": graph_stats["before"],
            "after_filter": graph_stats["after"],
            "removal": removal,
        },
        "communities": {
            "modularity": communities["modularity"],
            "count": communities["n_communities"],
            "seed": communities.get("seed"),
            "restarts": communities.get("restarts"),
            "overview": communities["communities"],
        },
        "sample": sample,
        "clusters": clusters,
    }


def _fmt(value, digits: int = 2) -> str:
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> list[str]:
    materialized = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in materialized)
    return out


def _stats_row(name: str, block: dict) -> list[str]:
    values = (block[key] for key in ("mean", "std", "min", "median", "p75", "max"))
    return [name, str(block["count"]), *(_fmt(float(v)) for v in values)]


def render_text(report: dict) -> str:
    lines: list[str] = []

    corpus = report["corpus"]
    lines.append("== Corpus ==")
    lines.append(
        f"posts: {corpus['posts']}  actors: {corpus['actors']}  "
        f"forums: {corpus['forums']}  distinct CVEs: {corpus['distinct_cves']}"
    )
    lines.append("")

    graph = report["graph"]
    removal = graph["removal"]
    lines.append("== Bimodal graph and popularity filter ==")
    rows = []
    for label, block in (("before", graph["before_filter"]), ("after", graph["after_filter"])):
        rows.append(
            [
                label,
                block["n_actors"],
                block["n_capecs"],
                block["n_edges"],
                _fmt(float(block["density"]), 6),
            ]
        )
    lines.extend(_table(["graph", "actors", "capecs", "edges", "density"], rows))
    lines.append(
        f"filter: in-degree threshold {removal['threshold']}, removed "
        f"{len(removal['removed_capecs'])} CAPEC(s) and {len(removal['removed_actors'])} actor(s)"
    )
    lines.append("")

    comm = report["communities"]
    lines.append("== Communities of interest ==")
    lines.append(
        f"communities: {comm['count']}  modularity: {_fmt(float(comm['modularity']), 4)}"
    )
    rows = [
        [
            row["community"],
            row["nodes"],
            row["actors"],
            row["capecs"],
            _fmt(float(row["one_timer_pct"]), 1),
            f"{_fmt(float(row['out_degree']['mean']))} ± {_fmt(float(row['out_degree']['std']))}",
            f"{_fmt(float(row['specialized_posts']['mean']))} ± {_fmt(float(row['specialized_posts']['std']))}",
            " ".join(row["keywords"]),
        ]
        for row in comm["overview"]
    ]
    lines.extend(
        _table(
            ["community", "nodes", "actors", "capecs", "% one-timers", "out-degree", "posts", "keywords"],
            rows,
        )
    )
    lines.append("")

    sample = report["sample"]
    lines.append("== Analysis sample ==")
    lines.append(f"actors in sample: {sample['n_actors']}")
    if sample["n_actors"]:
        feature_blocks = [
            ("posts", sample["n_posts"]),
            ("skill values per actor", sample["skill_values_len"]),
            ("skill score", sample["skill_score"]),
            ("commitment %", sample["commitment_pct"]),
            ("activity days", sample["activity_days"]),
            ("activity rate", sample["activity_rate"]),
        ]
        lines.extend(
            _table(
                ["feature", "count", "mean", "std", "min", "median", "p75", "max"],
                [_stats_row(name, block) for name, block in feature_blocks],
            )
        )
    lines.append("")

    clusters = report["clusters"]
    lines.append("== Clusters ==")
    if clusters.get("skipped"):
        lines.append(f"clustering skipped: {clusters['reason']}")
    else:
        lines.append(
            f"k: {clusters['k']}  silhouette: {_fmt(float(clusters['silhouette']), 4)}"
        )
        centroid = ("skill", "commitment", "activity_rate")
        rows = [
            [
                row["cluster"],
                *(_fmt(float(row["centroid_raw"][f])) for f in centroid),
                row["members"],
                _fmt(float(row["pct_of_sample"]), 1),
                row["label"],
            ]
            for row in clusters["clusters"]
        ]
        lines.extend(
            _table(
                ["cluster", "skill", "commitment", "activity", "members", "% sample", "label"],
                rows,
            )
        )
    lines.append("")
    return "\n".join(lines)


def emit_report(ws: Workspace) -> tuple:
    """Write report.json and report.txt; returns both paths."""
    report = build_report(ws)
    json_path = ws.write_json("report.json", report)
    with replacing(ws.path("report.txt")) as handle:
        handle.write(render_text(report))
    return json_path, ws.path("report.txt")
