"""Assemble the final report bundle from workspace artifacts.

One machine-readable JSON document plus one human-readable text rendering,
covering the corpus overview, the popularity-filter removal ledger, the
community-of-interest table, sample descriptive statistics, and the labeled
cluster table.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .workspace import STAGE_ARTIFACTS, STAGE_INPUTS, Workspace, field, read_json_object, replacing


def _fmt(value, digits: int = 2) -> str:
    return f"{float(value):.{digits}f}"


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
    return [name, str(block["count"]), *(_fmt(v) for v in values)]


# Each part below puts one input artifact into the report document and returns
# the text lines it renders.


def _corpus(corpus: dict, report: dict) -> list[str]:
    report["corpus"] = corpus
    return [
        "== Corpus ==",
        f"posts: {corpus['posts']}  actors: {corpus['actors']}  "
        f"forums: {corpus['forums']}  distinct CVEs: {corpus['distinct_cves']}",
        "",
    ]


def _graph(graph_stats: dict, report: dict) -> list[str]:
    report["graph"] = {"before_filter": graph_stats["before"], "after_filter": graph_stats["after"]}
    rows = []
    for label, block in (("before", graph_stats["before"]), ("after", graph_stats["after"])):
        rows.append(
            [
                label,
                block["n_actors"],
                block["n_capecs"],
                block["n_edges"],
                _fmt(block["density"], 6),
            ]
        )
    lines = ["== Bimodal graph and popularity filter =="]
    lines.extend(_table(["graph", "actors", "capecs", "edges", "density"], rows))
    return lines


def _removal(removal: dict, report: dict) -> list[str]:
    report["graph"]["removal"] = removal
    by_skill = [
        f"{row['level']} {row['removed_capecs']} of {row['capecs']} CAPECs, "
        f"{row['removed_edges']} edges"
        for row in removal["by_skill"] if row["removed_capecs"]
    ]
    return [
        f"filter: in-degree threshold {removal['threshold']}, removed "
        f"{len(removal['removed_capecs'])} CAPEC(s) and {len(removal['removed_actors'])} actor(s)",
        f"removed by skill level: {'; '.join(by_skill) or 'none'}",
        "",
    ]


def _communities(communities: dict, report: dict) -> list[str]:
    comm = report["communities"] = {
        "modularity": communities["modularity"],
        "count": communities["n_communities"],
        "seed": communities["seed"],
        "restarts": communities["restarts"],
        "overview": communities["communities"],
    }
    lines = ["== Communities of interest =="]
    lines.append(
        f"communities: {comm['count']}  modularity: {_fmt(comm['modularity'], 4)}"
    )
    rows = [
        [
            row["community"],
            row["nodes"],
            row["actors"],
            row["capecs"],
            _fmt(row["one_timer_pct"], 1),
            f"{_fmt(row['out_degree']['mean'])} ± {_fmt(row['out_degree']['std'])}",
            f"{_fmt(row['specialized_posts']['mean'])} ± {_fmt(row['specialized_posts']['std'])}",
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
    return lines


def _sample(sample: dict, report: dict) -> list[str]:
    report["sample"] = sample
    lines = ["== Analysis sample =="]
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
    return lines


def _clusters(clusters: dict, report: dict) -> list[str]:
    report["clusters"] = clusters
    # the paper states its findings as these shares; the text keeps the table's order
    shares = report["quadrant_shares"] = {}
    lines = ["== Clusters =="]
    if clusters.get("skipped"):
        lines.append(f"clustering skipped: {clusters['reason']}")
    else:
        lines.append(
            f"k: {clusters['k']}  silhouette: {_fmt(clusters['silhouette'], 4)}"
        )
        centroid = ("skill", "commitment", "activity_rate")
        rows = [
            [
                row["cluster"],
                *(_fmt(row["centroid_raw"][f]) for f in centroid),
                row["members"],
                _fmt(row["pct_of_sample"], 1),
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
        for row in clusters["clusters"]:
            shares[row["quadrant"]] = shares.get(row["quadrant"], 0.0) + row["pct_of_sample"]
        shown = ", ".join(f"{q} {_fmt(pct, 1)}%" for q, pct in shares.items())
        lines.append(f"quadrant shares: {shown}")
    lines.append("")
    return lines


# one part per report input, in the order of STAGE_INPUTS["report"]
_PARTS = (_corpus, _graph, _removal, _communities, _sample, _clusters)


def build_report(ws: Workspace) -> tuple[dict, str]:
    """The report document and its text, part by part.

    Each part is built under the guard of the artifact it comes from, so a
    missing key or a wrong type in an input raises ``ValidationError`` as
    ``<file>: <key>: missing`` or ``<file>: <problem>``.
    """
    names = STAGE_INPUTS["report"]
    inputs = [ws.load(name, read_json_object) for name in names]
    report: dict = {}
    lines: list[str] = []
    for name, part, data in zip(names, _PARTS, inputs, strict=True):
        lines += field(ws.path(name), None, lambda: part(data, report))
    return report, "\n".join(lines)


def emit_report(ws: Workspace) -> tuple:
    """Write the report document as JSON and its text; returns both paths."""
    report, text = build_report(ws)
    json_name, text_name = STAGE_ARTIFACTS["report"]
    json_path = ws.write_json(json_name, report)
    with replacing(ws.path(text_name)) as handle:
        handle.write(text)
    return json_path, ws.path(text_name)
