"""Command-line pipeline orchestrator.

Subcommands map one-to-one onto pipeline stages over a persistent workspace
directory. Exit codes: 0 success, 1 validation error (including stale
artifacts and bad flags) or any unexpected error, 2 missing upstream stage,
3 I/O or lock trouble. Errors print one line; ``-v`` adds the traceback of
an unexpected one.
"""

from __future__ import annotations

import argparse
import logging
from pathlib import Path
from typing import Sequence

from . import __version__, catalog, cluster, community, convert, expertise, graph, ingest, synth
from .errors import ForumlensError, MissingUpstreamError, ValidationError
from .report import emit_report
from .workspace import Workspace, WorkspaceLockedError, default_root

logger = logging.getLogger(__name__)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workspace",
        default=None,
        help="workspace directory (default: $FORUMLENS_WORKSPACE or ./workspace)",
    )
    parser.add_argument("--force", action="store_true", help="accept changed upstream artifacts")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")


def _add_catalog_inputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nvd-json", help="NVD CVE feed (JSON) to convert")
    parser.add_argument("--capec-xml", help="CAPEC catalog (XML) to convert")
    parser.add_argument("--cve-cwe", help="pre-normalized CVE-to-CWE CSV")
    parser.add_argument("--capec-json", help="pre-normalized CAPEC JSON")


def _add_graph_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--capec-threshold",
        type=int,
        default=graph.DEFAULT_CAPEC_THRESHOLD,
        help="drop CAPECs referenced by strictly more than this many actors (default %(default)s)",
    )


def _add_communities_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="community detection seed")
    parser.add_argument("--restarts", type=int, default=10, help="community detection restarts")


def _add_expertise_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--min-posts", type=int, default=expertise.DEFAULT_MIN_POSTS,
        help="minimum posts to stay in the sample (default %(default)s)",
    )
    parser.add_argument(
        "--skill-percentile", type=int, default=expertise.DEFAULT_SKILL_PERCENTILE,
        help="percentile for the skill score (default %(default)s)",
    )


def _add_cluster_flags(parser: argparse.ArgumentParser, seed_flag: str = "--seed") -> None:
    parser.add_argument("--k-min", type=int, default=cluster.DEFAULT_K_MIN, help="smallest k to try")
    parser.add_argument("--k-max", type=int, default=cluster.DEFAULT_K_MAX, help="largest k to try")
    parser.add_argument(seed_flag, dest="cluster_seed", type=int, default=0, help="k-means seed")
    parser.add_argument(
        "--cluster-restarts", type=int, default=cluster.DEFAULT_RESTARTS,
        help="k-means restarts per k (default %(default)s)",
    )


def _add_synth_flags(parser: argparse.ArgumentParser, seed_flag: str = "--seed") -> None:
    parser.add_argument(seed_flag, dest="synth_seed", type=int, default=0, help="generator seed")
    parser.add_argument("--communities", type=int, default=4, help="planted communities")
    parser.add_argument("--actors", type=int, default=25, help="actors per community")
    parser.add_argument("--capecs", type=int, default=10, help="CAPECs per community")
    parser.add_argument("--noise", type=float, default=0.05, help="cross-community noise rate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forumlens",
        description="Batch pipeline from forum posts with CVE mentions to labeled actor clusters.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse the post JSONL into the corpus artifact")
    _add_common(p)
    p.add_argument("--posts", required=True, help="input JSONL of forum posts")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("convert-catalog", help="normalize the CVE/CWE/CAPEC catalog snapshot")
    _add_common(p)
    _add_catalog_inputs(p)
    p.set_defaults(func=cmd_convert_catalog)

    p = sub.add_parser("graph", help="build and popularity-filter the bimodal graph")
    _add_common(p)
    _add_graph_flags(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("communities", help="detect communities of interest")
    _add_common(p)
    _add_communities_flags(p)
    p.set_defaults(func=cmd_communities)

    p = sub.add_parser("expertise", help="compute actor profiles and the analysis sample")
    _add_common(p)
    _add_expertise_flags(p)
    p.set_defaults(func=cmd_expertise)

    p = sub.add_parser("cluster", help="cluster the sample and label the clusters")
    _add_common(p)
    _add_cluster_flags(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("report", help="emit the report bundle")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    _add_common(p)
    _add_synth_flags(p)
    p.add_argument("--out", default=None, help="output directory (default: WORKSPACE/synth)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("export-graph", help="export the filtered graph for external tools")
    _add_common(p)
    p.add_argument("--format", choices=graph.EXPORT_FORMATS, default="graphml")
    p.add_argument("--out", default=None, help="output file (default: WORKSPACE/graph.<ext>)")
    p.set_defaults(func=cmd_export_graph)

    p = sub.add_parser("run-all", help="run ingest through report in order")
    _add_common(p)
    p.add_argument("--posts", required=True, help="input JSONL of forum posts")
    _add_catalog_inputs(p)
    _add_graph_flags(p)
    _add_communities_flags(p)
    _add_expertise_flags(p)
    _add_cluster_flags(p, seed_flag="--cluster-seed")
    p.set_defaults(func=cmd_run_all)

    return parser


# --- stage commands -----------------------------------------------------------


def cmd_ingest(ws: Workspace, args: argparse.Namespace) -> int:
    with ws.lock():
        parsed = ingest.parse_posts(args.posts)
        if parsed.skipped:
            logger.warning("skipped %d malformed input line(s)", parsed.skipped)
        corpus = ingest.build_corpus(parsed.records)
        ingest.save_corpus(corpus, ws.path("corpus.jsonl"))
        ingest.save_corpus_stats(corpus, ws.path("corpus_stats.json"))
        ws.record_stage("ingest", {"posts": str(args.posts), "skipped_lines": parsed.skipped})
    s = corpus.stats
    print(
        f"ingested {s.n_posts} posts from {s.n_actors} actors "
        f"({s.n_forums} forums, {s.n_cves} distinct CVEs)"
    )
    return 0


def cmd_convert_catalog(ws: Workspace, args: argparse.Namespace) -> int:
    raw = bool(args.nvd_json or args.capec_xml)
    pre = bool(args.cve_cwe or args.capec_json)
    if raw == pre:
        raise ValidationError(
            "provide either --nvd-json with --capec-xml, or --cve-cwe with --capec-json"
        )
    with ws.lock():
        ws.root.mkdir(parents=True, exist_ok=True)
        if raw:
            if not (args.nvd_json and args.capec_xml):
                raise ValidationError("--nvd-json and --capec-xml must be given together")
            snapshot = convert.convert_catalog(args.nvd_json, args.capec_xml, ws.root)
            config = {"nvd_json": str(args.nvd_json), "capec_xml": str(args.capec_xml)}
        else:
            if not (args.cve_cwe and args.capec_json):
                raise ValidationError("--cve-cwe and --capec-json must be given together")
            snapshot = catalog.load_snapshot(args.cve_cwe, args.capec_json)
            catalog.save_snapshot(snapshot, ws.root)
            config = {"cve_cwe": str(args.cve_cwe), "capec_json": str(args.capec_json)}
        ws.record_stage("convert-catalog", config)
    print(f"catalog snapshot: {len(snapshot.cves)} CVEs, {len(snapshot.capecs)} CAPECs")
    return 0


def _load_snapshot(ws: Workspace) -> catalog.CatalogSnapshot:
    return catalog.load_snapshot(ws.require("cve_cwe.csv"), ws.require("capec.json"))


def cmd_graph(ws: Workspace, args: argparse.Namespace) -> int:
    with ws.lock():
        # the catalog is checked first, so a missing one fails before the corpus parse
        snapshot = _load_snapshot(ws)
        # the corpus is only needed to resolve posts, so no name keeps it alive
        posts = graph.post_capec_sets(ingest.load_corpus(ws.require("corpus.jsonl")), snapshot)
        full = graph.graph_of(posts)
        if full.n_nodes == 0:
            raise ValidationError("no post mentions a CVE that maps to any catalog CAPEC")
        before = graph.degree_stats(full, graph.surviving_post_counts(posts))
        filtered, removal = graph.filter_popular_capecs(full, threshold=args.capec_threshold)
        posts = graph.surviving_posts(posts, filtered)
        after = graph.degree_stats(filtered, graph.surviving_post_counts(posts))
        graph.save_graph(filtered, ws.path("graph.json"))
        graph.save_posts(posts, ws.path("capec_posts.json"))
        ws.write_json("graph_stats.json", {"before": before.as_dict(), "after": after.as_dict()})
        ws.write_json("removal.json", removal.as_dict())
        ws.record_stage("graph", {"capec_threshold": args.capec_threshold})
    print(
        f"graph: {len(filtered.actor_ids)} actors, {len(filtered.capec_ids)} CAPECs, "
        f"{len(filtered.edges)} edges "
        f"(removed {len(removal.removed_capecs)} CAPECs, {len(removal.removed_actors)} actors)"
    )
    return 0


def cmd_communities(ws: Workspace, args: argparse.Namespace) -> int:
    if args.restarts < 1:
        raise ValidationError(f"--restarts must be >= 1: {args.restarts}")
    with ws.lock():
        g = graph.load_graph(ws.require("graph.json"))
        posts, snapshot = graph.load_posts(ws.require("capec_posts.json")), _load_snapshot(ws)
        part = community.leiden(g, seed=args.seed, restarts=args.restarts)
        overview = community.summarize_communities(g, part, posts, snapshot)
        ws.write_json(
            "communities.json",
            {
                "modularity": part.quality,
                "n_communities": len(set(part.assignment.values())),
                "seed": args.seed,
                "restarts": args.restarts,
                "assignment": part.assignment,
                "communities": [o.as_dict() for o in overview],
            },
        )
        ws.record_stage("communities", {"seed": args.seed, "restarts": args.restarts})
    print(f"communities: {len(overview)} at modularity {part.quality:.4f}")
    return 0


def _load_partition(ws: Workspace) -> community.Partition:
    data = ws.read_json("communities.json")
    return community.Partition(
        assignment={k: int(v) for k, v in data["assignment"].items()},
        quality=float(data["modularity"]),
    )


def cmd_expertise(ws: Workspace, args: argparse.Namespace) -> int:
    with ws.lock():
        g = graph.load_graph(ws.require("graph.json"))
        posts, part = graph.load_posts(ws.require("capec_posts.json")), _load_partition(ws)
        profiles = expertise.build_profiles(
            posts, _load_snapshot(ws), g, part, skill_percentile=args.skill_percentile
        )
        sample = expertise.build_sample(profiles, min_posts=args.min_posts)
        expertise.save_profiles(profiles, ws.path("profiles.csv"))
        expertise.save_profiles(sample, ws.path("sample.csv"))
        ws.write_json("sample_stats.json", expertise.sample_stats(sample))
        ws.record_stage(
            "expertise", {"min_posts": args.min_posts, "skill_percentile": args.skill_percentile}
        )
    print(f"profiles: {len(profiles)} actors, sample keeps {len(sample)}")
    return 0


def cmd_cluster(ws: Workspace, args: argparse.Namespace) -> int:
    if args.k_min < 2:
        raise ValidationError(f"--k-min must be >= 2: {args.k_min}")
    if args.k_max < args.k_min:
        raise ValidationError(f"--k-max must be >= --k-min: {args.k_max}")
    if args.cluster_restarts < 1:
        raise ValidationError(f"--cluster-restarts must be >= 1: {args.cluster_restarts}")
    with ws.lock():
        sample = expertise.load_profiles(ws.require("sample.csv"))
        n = len(sample)

        def skip(reason: str) -> int:
            logger.warning("clustering skipped: %s", reason)
            ws.write_json(
                "clusters.json", {"skipped": True, "reason": reason, "n_sample": n}
            )
            ws.record_stage("cluster", _cluster_config(args))
            print(f"clustering skipped: {reason}")
            return 0

        if n < 3 or n < args.k_min:
            return skip(f"sample of {n} actor(s) is too small to cluster")
        k_max = min(args.k_max, n)
        if k_max < args.k_max:
            logger.info("clamping --k-max to the sample size %d", n)
        X = cluster.feature_matrix(sample)
        try:
            Z, scaler = cluster.standardize(X)
            models = cluster.sweep_k(
                Z, args.k_min, k_max, seed=args.cluster_seed, restarts=args.cluster_restarts
            )
        except ValidationError as exc:
            return skip(str(exc))
        best = cluster.with_raw_centroids(cluster.best_by_silhouette(models), scaler)
        summaries = cluster.summarize_clusters(best, sample)
        ws.write_json(
            "clusters.json",
            {
                "k": best.k,
                "silhouette": best.silhouette,
                "inertia": best.inertia,
                "sweep": [
                    {"k": m.k, "silhouette": m.silhouette, "inertia": m.inertia} for m in models
                ],
                "scaler": {
                    "mean": list(scaler.mean),
                    "std": list(scaler.std),
                    "constant": list(scaler.constant),
                },
                "clusters": [s.as_dict() for s in summaries],
                "assignments": {
                    p.actor_id: int(lab) for p, lab in zip(sample, best.labels)
                },
                "seed": args.cluster_seed,
                "restarts": args.cluster_restarts,
            },
        )
        ws.record_stage("cluster", _cluster_config(args))
    print(f"clusters: k={best.k}, silhouette {best.silhouette:.4f}")
    for s in summaries:
        print(f"  cluster {s.cluster_id}: {s.n_members} actors, {s.label.display()}")
    return 0


def _cluster_config(args: argparse.Namespace) -> dict:
    return {
        "k_min": args.k_min,
        "k_max": args.k_max,
        "seed": args.cluster_seed,
        "restarts": args.cluster_restarts,
    }


def cmd_report(ws: Workspace, args: argparse.Namespace) -> int:
    with ws.lock():
        json_path, txt_path = emit_report(ws)
        ws.record_stage("report", {})
    print(f"report written: {json_path} and {txt_path}")
    return 0


def cmd_synth(ws: Workspace, args: argparse.Namespace) -> int:
    config = synth.SynthConfig(
        seed=args.synth_seed,
        n_communities=args.communities,
        capecs_per_community=args.capecs,
        actors_per_community=args.actors,
        noise=args.noise,
    )
    corpus, snapshot, truth = synth.generate(config)
    out_dir = Path(args.out) if args.out else ws.path("synth")
    with ws.lock():
        paths = synth.write_synth(out_dir, corpus, snapshot, truth)
        if out_dir == ws.path("synth"):
            ws.record_stage(
                "synth",
                {
                    "seed": args.synth_seed,
                    "communities": args.communities,
                    "actors": args.actors,
                    "capecs": args.capecs,
                    "noise": args.noise,
                },
            )
    print(
        f"synthetic corpus: {corpus.stats.n_posts} posts by {corpus.stats.n_actors} actors "
        f"-> {paths['posts']}"
    )
    return 0


def cmd_export_graph(ws: Workspace, args: argparse.Namespace) -> int:
    with ws.lock():
        g = graph.load_graph(ws.require("graph.json"))
        part = None
        if ws.path("communities.json").exists():
            part = _load_partition(ws)
        out = Path(args.out) if args.out else ws.path(f"graph.{args.format}")
        graph.export_graph(g, args.format, out, partition=part)
    print(f"exported {args.format} graph to {out}")
    return 0


def cmd_run_all(ws: Workspace, args: argparse.Namespace) -> int:
    for step in (
        cmd_ingest,
        cmd_convert_catalog,
        cmd_graph,
        cmd_communities,
        cmd_expertise,
        cmd_cluster,
        cmd_report,
    ):
        code = step(ws, args)
        if code:
            return code
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    ws = Workspace(args.workspace if args.workspace else default_root(), force=args.force)
    try:
        return args.func(ws, args)
    except MissingUpstreamError as exc:
        logger.error("%s", exc)
        return 2
    except WorkspaceLockedError as exc:
        logger.error("%s", exc)
        return 3
    except ForumlensError as exc:
        logger.error("%s", exc)
        return 1
    except OSError as exc:
        logger.error("%s", exc)
        return 3
    except Exception as exc:
        logger.error("error: %s: %s", type(exc).__name__, exc, exc_info=args.verbose)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
