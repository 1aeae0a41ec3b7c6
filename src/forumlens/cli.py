"""Command-line pipeline orchestrator.

Subcommands map one-to-one onto pipeline stages over a persistent workspace
directory; ``run-all`` runs the seven pipeline stages in order and takes
their flags. Each flag is declared once, with the lowest value it accepts,
in ``build_parser``'s table of commands. A command checks its flags, then
holds the workspace lock from its first stage to its last, recording each
stage in the manifest as it ends. Exit codes: 0 success, 1 validation error
(including stale artifacts and bad flags) or any unexpected error, 2 missing
upstream stage, 3 I/O or lock trouble. Errors print one line; ``-v`` adds the
traceback of an unexpected one.

Each command imports the stage modules it runs when it runs, so a process
that runs ``report`` or ``expertise`` never imports numpy, which only
``community`` and ``cluster`` compute with.
"""

from __future__ import annotations

import argparse
import gc
import logging
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from . import (
    DEFAULT_CAPEC_THRESHOLD, DEFAULT_CLUSTER_RESTARTS, DEFAULT_K_MAX, DEFAULT_K_MIN,
    DEFAULT_LEIDEN_RESTARTS, DEFAULT_MIN_POSTS, DEFAULT_SKILL_PERCENTILE, EXPORT_FORMATS,
    __version__,
)
from .errors import ForumlensError, MissingUpstreamError, ValidationError
from .workspace import Workspace, WorkspaceLockedError, default_root, field

if TYPE_CHECKING:
    from . import catalog, graph, synth
logger = logging.getLogger(__name__)


def _flag(*names: str, low: int | None = None, **spec: object) -> tuple:
    """An option: its names, the lowest value it accepts (None for no bound), its argparse spec."""
    return names, low, spec


# the flags every command takes
COMMON = (
    _flag("--workspace", default=None,
          help="workspace directory (default: $FORUMLENS_WORKSPACE or ./workspace)"),
    _flag("--force", action="store_true", help="accept changed upstream artifacts"),
    _flag("-v", "--verbose", action="store_true", help="debug logging"),
)

# run-all's stages, in pipeline order
PIPELINE = ("ingest", "convert-catalog", "graph", "communities", "expertise", "cluster", "report")

# a stage function returns what to record for it beside its flags (ingest's skipped_lines),
# or None to record nothing; main records each of the stage's own flags that is set under
# its dest, so cluster's are cluster_seed and cluster_restarts and synth's seed is synth_seed
Stage = Callable[[Workspace, argparse.Namespace], "dict | None"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forumlens",
        description="Batch pipeline from forum posts with CVE mentions to labeled actor clusters.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # each command's stage, one-line summary and flags, in the order --help lists them
    commands: dict[str, tuple[Stage, str, tuple]] = {
        "ingest": (cmd_ingest, "parse the post JSONL into the corpus artifact", (
            _flag("--posts", required=True, help="input JSONL of forum posts"),
        )),
        "convert-catalog": (cmd_convert_catalog, "normalize the CVE/CWE/CAPEC catalog snapshot", (
            _flag("--nvd-json", help="NVD CVE feed (JSON) to convert"),
            _flag("--capec-xml", help="CAPEC catalog (XML) to convert"),
            _flag("--cve-cwe", help="pre-normalized CVE-to-CWE CSV"),
            _flag("--capec-json", help="pre-normalized CAPEC JSON"),
        )),
        "graph": (cmd_graph, "build and popularity-filter the bimodal graph", (
            _flag("--capec-threshold", low=1, type=int, default=DEFAULT_CAPEC_THRESHOLD,
                  help="drop CAPECs referenced by strictly more than this many actors "
                       "(default %(default)s)"),
        )),
        "communities": (cmd_communities, "detect communities of interest", (
            _flag("--seed", low=0, type=int, default=0, help="community detection seed"),
            _flag("--restarts", low=1, type=int, default=DEFAULT_LEIDEN_RESTARTS,
                  help="community detection restarts (default %(default)s)"),
        )),
        "expertise": (cmd_expertise, "compute actor profiles and the analysis sample", (
            _flag("--min-posts", low=1, type=int, default=DEFAULT_MIN_POSTS,
                  help="minimum posts to stay in the sample (default %(default)s)"),
            _flag("--skill-percentile", type=int, default=DEFAULT_SKILL_PERCENTILE,
                  help="percentile for the skill score (default %(default)s)"),
        )),
        "cluster": (cmd_cluster, "cluster the sample and label the clusters", (
            _flag("--k-min", low=2, type=int, default=DEFAULT_K_MIN, help="smallest k to try"),
            _flag("--k-max", type=int, default=DEFAULT_K_MAX, help="largest k to try"),
            _flag("--seed", low=0, dest="cluster_seed", type=int, default=0, help="k-means seed"),
            _flag("--cluster-restarts", low=1, type=int, default=DEFAULT_CLUSTER_RESTARTS,
                  help="k-means restarts per k (default %(default)s)"),
        )),
        "report": (cmd_report, "emit the report bundle", ()),
        "synth": (cmd_synth, "generate a synthetic corpus with ground truth", (
            _flag("--seed", dest="synth_seed", type=int, default=0, help="generator seed"),
            _flag("--communities", type=int, default=4, help="planted communities"),
            _flag("--actors", type=int, default=25, help="actors per community"),
            _flag("--capecs", type=int, default=10, help="CAPECs per community"),
            _flag("--noise", type=float, default=0.05, help="cross-community noise rate"),
            _flag("--out", default=None, help="output directory (default: WORKSPACE/synth)"),
        )),
        "export-graph": (cmd_export_graph, "export the filtered graph for external tools", (
            _flag("--format", choices=EXPORT_FORMATS, default="graphml"),
            _flag("--out", default=None, help="output file (default: WORKSPACE/graph.<ext>)"),
        )),
    }

    def command(name: str, summary: str, stages: dict[str, tuple[Stage, Sequence[tuple]]]) -> None:
        """Add command ``name``, which runs each of ``stages``: a stage function and its flags."""
        p = sub.add_parser(name, help=summary)
        for names, _, spec in COMMON:  # unbounded, and recorded by no stage
            p.add_argument(*names, **spec)
        bounds = []  # (dest, flag, lowest value) of each bounded flag, checked by _check_flags
        recorded = {}  # each stage's function and the dests of its own flags, which main records
        for stage, (run, flags) in stages.items():
            recorded[stage] = run, (dests := [])
            for names, low, spec in flags:
                dests.append(p.add_argument(*names, **spec).dest)
                if low is not None:
                    bounds.append((dests[-1], names[0], low))
        p.set_defaults(stages=recorded, bounds=bounds)

    for name, (stage, summary, flags) in commands.items():
        command(name, summary, {name: (stage, flags)})
    # run-all takes its stages' flags; cluster's --seed becomes --cluster-seed, clear of
    # communities' --seed
    renamed = {"cluster_seed": ("--cluster-seed",)}
    command("run-all", "run ingest through report in order", {name: (commands[name][0], [
        (renamed.get(spec.get("dest"), names), low, spec) for names, low, spec in commands[name][2]
    ]) for name in PIPELINE})
    return parser


def _check_flags(args: argparse.Namespace) -> None:
    """Refuse a bad flag before the lock is taken or any artifact is read."""
    for dest, flag, low in args.bounds:
        if getattr(args, dest) < low:
            raise ValidationError(f"{flag} must be >= {low}: {getattr(args, dest)}")
    given = vars(args)
    if "k_max" in given and args.k_max < args.k_min:
        raise ValidationError(f"--k-max must be >= --k-min: {args.k_max}")
    if "skill_percentile" in given and not 0 < args.skill_percentile <= 100:
        raise ValidationError(f"--skill-percentile must be in (0, 100]: {args.skill_percentile}")
    if "synth_seed" in given:
        _synth_config(args).validate()
    if "nvd_json" in given:
        raw, pre = (args.nvd_json, args.capec_xml), (args.cve_cwe, args.capec_json)
        if any(raw) == any(pre):
            raise ValidationError(
                "provide either --nvd-json with --capec-xml, or --cve-cwe with --capec-json"
            )
        if not all(raw) and not all(pre):
            pair = "--nvd-json and --capec-xml" if any(raw) else "--cve-cwe and --capec-json"
            raise ValidationError(f"{pair} must be given together")


# --- stage commands -----------------------------------------------------------


def cmd_ingest(ws: Workspace, args: argparse.Namespace) -> dict:
    from . import ingest
    done = ingest.ingest_posts(args.posts, ws.path("corpus.jsonl"))
    if done.skipped:
        logger.warning("skipped %d malformed input line(s)", done.skipped)
    ingest.save_corpus_stats(done.stats, ws.path("corpus_stats.json"))
    ws.hand_off("corpus.jsonl", done.table)
    s = done.stats
    print(
        f"ingested {s.n_posts} posts from {s.n_actors} actors "
        f"({s.n_forums} forums, {s.n_cves} distinct CVEs)"
    )
    return {"skipped_lines": done.skipped}


def cmd_convert_catalog(ws: Workspace, args: argparse.Namespace) -> dict:
    from . import catalog, convert
    if args.nvd_json:
        snapshot = catalog.build_snapshot(
            convert.parse_nvd_cve_json(args.nvd_json), convert.parse_capec_xml(args.capec_xml)
        )
    else:
        snapshot = catalog.load_snapshot(args.cve_cwe, args.capec_json)
    catalog.save_snapshot(snapshot, ws.root)
    print(f"catalog snapshot: {len(snapshot.cves)} CVEs, {len(snapshot.capecs)} CAPECs")
    return {}


def _load_snapshot(ws: Workspace) -> catalog.CatalogSnapshot:
    from . import catalog
    return catalog.load_snapshot(ws.require("cve_cwe.csv"), ws.require("capec.json"))


def cmd_graph(ws: Workspace, args: argparse.Namespace) -> dict:
    from . import graph, ingest
    # the catalog is checked first, so a missing one fails before the corpus parse
    snapshot = _load_snapshot(ws)
    # the post table is only needed to resolve posts, so no name keeps it alive
    posts = graph.post_capec_sets(ws.load("corpus.jsonl", ingest.load_post_table), snapshot)
    adjacency = graph.actor_capecs(posts)
    full, before = graph.graph_of(adjacency), graph.degree_stats(posts, adjacency)
    del adjacency  # the cut gets its own union; kept, this one adds about 1 MB to the peak at L
    if full.n_nodes == 0:
        raise ValidationError("no post mentions a CVE that maps to any catalog CAPEC")
    filtered, removal = graph.filter_popular_capecs(full, threshold=args.capec_threshold)
    if not filtered.capec_ids:
        least = min(removal.removed_capecs.values())
        raise ValidationError(
            f"--capec-threshold {args.capec_threshold} removes every CAPEC; the least-shared "
            f"one has {least} actors, so a threshold of {least} or more keeps it"
        )
    by_skill = graph.removal_by_skill(full, removal, snapshot)
    _warn_emptied_skill_levels(removal.threshold, by_skill)
    posts = graph.surviving_posts(posts, filtered)
    after = graph.degree_stats(posts, graph.actor_capecs(posts))
    graph.save_graph(filtered, ws.path("graph.json"))
    graph.save_posts(posts, ws.path("capec_posts.json"))
    ws.hand_off("capec_posts.json", posts)
    ws.write_json("graph_stats.json", {"before": before, "after": after})
    ws.write_json("removal.json", {**removal.as_dict(), "by_skill": by_skill})
    print(
        f"graph: {len(filtered.actor_ids)} actors, {len(filtered.capec_ids)} CAPECs, "
        f"{len(filtered.edges)} edges "
        f"(removed {len(removal.removed_capecs)} CAPECs, {len(removal.removed_actors)} actors)"
    )
    return {}


def _warn_emptied_skill_levels(threshold: int, by_skill: list[dict]) -> None:
    """Log one warning per skill level of a :func:`graph.removal_by_skill` ledger whose
    every CAPEC the popularity filter removed."""
    for row in by_skill:
        if row["level"] != "unknown" and row["removed_capecs"] == row["capecs"]:
            logger.warning(
                "--capec-threshold %d removes every %s-skill CAPEC: %d CAPECs carrying %d edges",
                threshold, row["level"], row["capecs"], row["removed_edges"],
            )


def _load_cut_posts(
    ws: Workspace,
) -> tuple[catalog.CatalogSnapshot, graph.ActorPosts, graph.ActorCapecs]:
    """The catalog, the cut post table checked against it, and the table's actor_capecs."""
    from . import graph
    snapshot = _load_snapshot(ws)
    posts = ws.load("capec_posts.json", lambda path: graph.load_posts(path, snapshot))
    return snapshot, posts, graph.actor_capecs(posts)


def cmd_communities(ws: Workspace, args: argparse.Namespace) -> dict:
    from . import community, graph
    snapshot, posts, adjacency = _load_cut_posts(ws)
    part = community.leiden(graph.graph_of(adjacency), seed=args.seed, restarts=args.restarts)
    overview = community.summarize_communities(part, posts, adjacency, snapshot)
    ws.write_json(
        "communities.json",
        {
            "modularity": part.quality,
            "n_communities": len(set(part.assignment.values())),
            "seed": args.seed,
            "restarts": args.restarts,
            "assignment": part.assignment,
            "communities": overview,
        },
    )
    print(f"communities: {len(overview)} at modularity {part.quality:.4f}")
    return {}


def cmd_expertise(ws: Workspace, args: argparse.Namespace) -> dict:
    from . import expertise, graph
    snapshot, posts, adjacency = _load_cut_posts(ws)
    part = ws.load("communities.json", graph.load_partition)
    try:
        profiles = expertise.build_profiles(
            posts, adjacency, snapshot, part, skill_percentile=args.skill_percentile
        )
    except ValidationError as exc:  # a node the partition leaves out
        # each file read well on its own, so they disagree, as a --force can leave them
        raise ValidationError(
            f"capec_posts.json and communities.json in {ws.root} disagree: {exc.args[0]}"
        ) from exc
    sample = expertise.build_sample(profiles, min_posts=args.min_posts)
    expertise.save_profiles(profiles, ws.path("profiles.csv"))
    expertise.save_profiles(sample, ws.path("sample.csv"))
    ws.write_json("sample_stats.json", expertise.sample_stats(sample))
    print(f"profiles: {len(profiles)} actors, sample keeps {len(sample)}")
    return {}


def cmd_cluster(ws: Workspace, args: argparse.Namespace) -> dict:
    from . import cluster, expertise
    sample = ws.load("sample.csv", expertise.load_profiles)
    n = len(sample)

    def skip(reason: str) -> dict:
        logger.warning("clustering skipped: %s", reason)
        ws.write_json(
            "clusters.json", {"skipped": True, "reason": reason, "n_sample": n}
        )
        print(f"clustering skipped: {reason}")
        return {}

    if n < 3 or n < args.k_min:
        return skip(f"sample of {n} actor(s) is too small to cluster")
    k_max = min(args.k_max, n)
    if k_max < args.k_max:
        logger.info("clamping --k-max to the sample size %d", n)
    X = cluster.feature_matrix(sample)
    Z, scaler = field(ws.path("sample.csv"), None, lambda: cluster.standardize(X))
    models = cluster.sweep_k(
        Z, args.k_min, k_max, seed=args.cluster_seed, restarts=args.cluster_restarts
    )
    if not models:
        return skip("no k in range produced 2 or more distinct clusters")
    best = cluster.with_raw_centroids(cluster.best_by_silhouette(models), X)
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
            "scaler": asdict(scaler),
            "clusters": summaries,
            "assignments": {
                p.actor_id: int(lab) for p, lab in zip(sample, best.labels)
            },
            "seed": args.cluster_seed,
            "restarts": args.cluster_restarts,
        },
    )
    print(f"clusters: k={best.k}, silhouette {best.silhouette:.4f}")
    for s in summaries:
        print(f"  cluster {s['cluster']}: {s['members']} actors, {s['label']}")
    return {}


def cmd_report(ws: Workspace, args: argparse.Namespace) -> dict:
    from .report import emit_report
    json_path, txt_path = emit_report(ws)
    print(f"report written: {json_path} and {txt_path}")
    return {}


def _synth_config(args: argparse.Namespace) -> synth.SynthConfig:
    from .synth import SynthConfig
    return SynthConfig(
        seed=args.synth_seed,
        n_communities=args.communities,
        capecs_per_community=args.capecs,
        actors_per_community=args.actors,
        noise=args.noise,
    )


def cmd_synth(ws: Workspace, args: argparse.Namespace) -> dict | None:
    from . import synth
    corpus, snapshot, truth = synth.generate(_synth_config(args))
    out_dir = Path(args.out) if args.out else ws.path("synth")
    paths = synth.write_synth(out_dir, corpus, snapshot, truth)
    print(
        f"synthetic corpus: {corpus.stats.n_posts} posts by {corpus.stats.n_actors} actors "
        f"-> {paths['posts']}"
    )
    # files outside the workspace are no stage of it, be --out relative or absolute
    return {} if out_dir.resolve() == ws.path("synth").resolve() else None


def cmd_export_graph(ws: Workspace, args: argparse.Namespace) -> None:
    from . import graph
    g = ws.load("graph.json", graph.load_graph)
    # the manifest decides, so a recorded partition is checked and a stray file ignored
    recorded = "communities" in ws.load_manifest()["stages"]
    part = ws.load("communities.json", graph.load_partition) if recorded else None
    out = Path(args.out) if args.out else ws.path(f"graph.{args.format}")
    graph.export_graph(g, args.format, out, partition=part)
    print(f"exported {args.format} graph to {out}")


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
    collecting = gc.isenabled()
    try:
        _check_flags(args)
        # no cyclic collection while the stages run: a stage leaves a few hundred cycles,
        # a number its input does not move, while collections rescan its growing tables,
        # and the pool workers a stage forks would copy the pages they scan
        gc.disable()
        # one lock from the command's first stage to its last, so no other run interleaves
        with ws.lock():
            names = tuple(args.stages)
            for i, (name, (stage, dests)) in enumerate(args.stages.items()):
                # a handed-off object is held until the last of these that opens it
                ws.to_come = names[i + 1:]
                facts = stage(ws, args)
                if facts is not None:
                    given = {dest: getattr(args, dest) for dest in dests}
                    ws.record_stage(name, {k: v for k, v in given.items() if v is not None} | facts)
                # later stages' collections, and the pool workers they fork, need not
                # scan what this stage left alive
                gc.freeze()
        return 0
    except MissingUpstreamError as exc:
        logger.error("%s", exc)
        return 2
    except (WorkspaceLockedError, OSError) as exc:
        logger.error("%s", exc)
        return 3
    except ForumlensError as exc:
        logger.error("%s", exc)
        return 1
    except Exception as exc:
        logger.error("error: %s: %s", type(exc).__name__, exc, exc_info=args.verbose)
        return 1
    finally:
        gc.unfreeze()  # an in-process caller keeps no permanent generation, and its collector
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
