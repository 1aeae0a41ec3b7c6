"""forumlens benchmark: drive the CLI as child processes and check what it wrote.

    python3 perfbench/run.py --workload full-L --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root; the program is imported and run from ``src/``
(``PYTHONPATH=src python -m forumlens``, since it need not be installed).

Each run, for one workload and one seed:

1. Set-up: generate the synthetic corpus, catalog and planted truth with
   ``synth.generate`` / ``synth.write_synth`` under the workload seed; for
   ``rerun-M`` also one priming ``run-all``. Done ``SETUP_REPS`` times in
   fresh directories (once with ``--trace 1``); ``setup_s`` is the median.
2. Measured loop: the workload's CLI invocations, one process at a time (a
   closed loop with one client), repeated until ``--seconds`` have passed
   (at least three times for ``rerun-M``, whose repetitions are short).
   ``wall_s`` and ``cpu_s`` (user+sys from ``os.wait4``) are per repetition,
   ``peak_rss_mb`` is the largest ``ru_maxrss`` of any child.
3. Checks: every invocation exits 0, every artifact digest equals the first
   repetition for this seed (for ``rerun-M``: the priming ``run-all``),
   modularity matches a direct recomputation from ``graph.json``, and the
   quality metrics are in range. An invocation that fails a check counts in
   ``failed``.
4. With ``--trace 1``: one more repetition in which each CLI process is
   replaced by ``perfbench/tracer.py``, which calls ``cli.main`` per stage
   with spans around the public functions of every layer. Its digests must
   match the untraced ones. Prints the per-layer metrics instead.

The last stdout line is the result object; the line before it, prefixed
``detail:``, carries environment, sample statistics, digests and spans.

Not measured: ``convert-catalog``'s raw NVD JSON / CAPEC XML path (the
generator writes only the pre-normalised pair, so every workload takes the
pass-through path) and ``export-graph``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import SETUP_TARGETS, Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_REPS = 2
RUN_BUDGET_S = 170.0  # a run must end within 180 s
PIPELINE = ("ingest", "convert-catalog", "graph", "communities", "expertise", "cluster", "report")
RERUN = ("communities", "expertise", "cluster", "report")


@dataclass(frozen=True)
class Workload:
    name: str
    communities: int
    actors: int
    rerun: bool = False
    posts_range: tuple[int, int] | None = None
    min_units: int = 1
    why: str = ""
    moves: str = ""
    still: str = ""


# ``why`` is the line in BENCHMARK.json; ``moves`` and ``still`` say which
# layers should and should not move this workload's end-to-end metrics.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "full-L", 8, 600,
            why="run-all on synth 8x600 (56k posts, 4.8k actors), popularity filter active; "
            "clustering dominates (silhouette builds an n*n*d tensor), so cluster work moves "
            "wall_s and peak_rss_mb",
            moves="Clustering dominates: silhouette and kmeans take most of the time and the "
            "silhouette difference tensor sets peak RSS; Leiden and graph building are next. "
            "Exercises bounded-memory silhouette (ROADMAP item 3) and the memory aim.",
            still="Nothing is bypassed: every layer runs once at full size, so every change "
            "shows here in proportion to its layer's share.",
        ),
        Workload(
            "chatty", 8, 60, posts_range=(80, 160),
            why="run-all on synth 8x60 at 80-160 posts per actor: full-L's post volume from 480 "
            "actors; ingest, catalog, graph and expertise carry wall_s, Leiden and clustering "
            "should not move it",
            moves="parse_posts and build_corpus run 4 times, post_capec_sets 5 times, and "
            "build_profiles is large: a resolve-once change (ROADMAP item 2) shows most here.",
            still="Leiden and clustering take well under a second: a cluster or Leiden change "
            "should show no change here.",
        ),
        Workload(
            "rerun-M", 8, 250, rerun=True, min_units=3,
            why="synth 8x250 and a priming run-all in set-up, then communities, expertise, "
            "cluster, report as 4 processes: reload, re-hash, start-up and Leiden move it; "
            "no ingest or graph build",
            moves="Corpus and catalog reload, upstream re-hashing at every gate, manifest "
            "rewrites and 4 interpreter and numpy start-ups; Leiden has its largest share "
            "here. A persisted resolved table or atomic writes (ROADMAP item 5) show here.",
            still="There is no ingest or graph build: an in-memory run-all hand-off should "
            "show no gain here.",
        ),
    )
}

SMOKE_SCALE = {"full-L": (4, 25), "chatty": (4, 5), "rerun-M": (4, 25)}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("modularity", "Q"),
    ("planted_agreement", "fraction"),
    ("silhouette", "score"),
)

# (span, fields): ``s`` is total time, ``self_s`` total minus child spans.
SPAN_METRICS = (
    ("ingest.parse_posts", ("s", "calls")),
    ("ingest.build_corpus", ("s", "calls")),
    ("ingest.load_corpus", ("calls",)),
    ("ingest.save_corpus", ("s",)),
    ("catalog.load_snapshot", ("s", "calls")),
    ("catalog.map_cve_to_capecs", ("calls",)),
    ("catalog.effective_skill", ("calls",)),
    ("graph.post_capec_sets", ("s", "calls")),
    ("graph.build_graph", ("s",)),
    ("graph.surviving_post_counts", ("s",)),
    ("graph.filter_popular_capecs", ("s",)),
    ("graph.degree_stats", ("s",)),
    ("graph.save_graph", ("s",)),
    ("graph.load_graph", ("s", "calls")),
    ("community.leiden", ("s",)),
    ("community.summarize_communities", ("s",)),
    ("expertise.build_profiles", ("s", "self_s")),
    ("expertise.save_profiles", ("s",)),
    ("expertise.load_profiles", ("s",)),
    ("cluster.sweep_k", ("s",)),
    ("cluster.kmeans", ("s", "calls")),
    ("cluster.silhouette", ("s", "calls")),
    ("workspace.sha256_file", ("s", "calls")),
    ("workspace.Workspace.require", ("s", "calls")),
    ("workspace.Workspace.record_stage", ("s",)),
    ("workspace.Workspace.write_json", ("s",)),
    ("workspace.Workspace.load_manifest", ("calls",)),
    ("report.emit_report", ("s",)),
    ("synth.generate", ("s",)),
    ("synth.write_synth", ("s",)),
)

COUNT_METRICS = (
    ("ingest.posts", "count"),
    ("ingest.skipped", "count"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("graph.removed_capecs", "count"),
    ("community.n_communities", "count"),
    ("expertise.profiles", "count"),
    ("expertise.sample", "count"),
    ("cluster.sample_n", "count"),
    ("cluster.silhouette.pairs", "count"),
    ("cluster.silhouette.bytes", "B"),
    ("workspace.sha256_file.bytes", "B"),
)

PER_LAYER = (
    tuple((f"stage.{s}.s", "s") for s in PIPELINE)
    + tuple((f"stage.{s}.rss_mb", "MB") for s in PIPELINE)
    + (("cli.start_s", "s"),)
    + tuple(
        (f"{span}.{f}", "count" if f == "calls" else "s")
        for span, fields in SPAN_METRICS
        for f in fields
    )
    + COUNT_METRICS
    + (("trace.overhead_s", "s"),)
)


# --- child processes ------------------------------------------------------------


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    log: Path


class Runner:
    """Spawns one child at a time, accounts operations, enforces the deadline."""

    def __init__(self, work: Path, deadline: float, hash_seed: int):
        self.work = work
        self.deadline = deadline
        # graph.degree_stats sums actor degrees in set iteration order, so the
        # last digit of a std in graph_stats.json (and report.json) depends on
        # the interpreter's hash seed. Tying it to the workload seed keeps the
        # artifacts of one seed comparable across repetitions and runs.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._serial = 0

    def spawn(self, argv: list[str]) -> Child:
        self._serial += 1
        log = self.work / "logs" / f"{self._serial:03d}.log"
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped
        return Child(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            code=proc.returncode,
            log=log,
        )

    def cli(self, argv: list[str]) -> Child:
        return self.spawn([sys.executable, "-m", "forumlens", *argv])

    def account(self, book: "DigestBook", ws: Path, code: int, stages, label: str, log: Path) -> None:
        """One stage invocation: it fails on a non-zero exit or changed artifacts."""
        self.attempted += 1
        bad = book.check(ws, stages)
        if code != 0:
            self.failed += 1
            self.problems.append(f"{label} exited {code}: {_log_tail(log)}")
        elif bad:
            self.failed += 1
            self.problems.append(f"{label} wrote artifacts that differ from the first repetition: {bad}")


def _log_tail(path: Path, lines: int = 3) -> str:
    try:
        return " | ".join(path.read_text(errors="replace").strip().splitlines()[-lines:])
    except OSError:
        return ""


# --- workload steps ----------------------------------------------------------------


def _stage_argv(stage: str, ws: Path, seed: int) -> list[str]:
    argv = [stage, "--workspace", str(ws)]
    if stage == "ingest":
        argv += ["--posts", str(ws / "synth" / "posts.jsonl")]
    elif stage == "convert-catalog":
        argv += [
            "--cve-cwe", str(ws / "synth" / "cve_cwe.csv"),
            "--capec-json", str(ws / "synth" / "capec.json"),
        ]
    elif stage in ("communities", "cluster"):
        argv += ["--seed", str(seed)]
    return argv


def _run_all_argv(ws: Path, seed: int) -> list[str]:
    synth_dir = ws / "synth"
    return [
        "run-all", "--workspace", str(ws),
        "--posts", str(synth_dir / "posts.jsonl"),
        "--cve-cwe", str(synth_dir / "cve_cwe.csv"),
        "--capec-json", str(synth_dir / "capec.json"),
        "--seed", str(seed), "--cluster-seed", str(seed),
    ]


def _invocations(w: Workload, ws: Path, seed: int) -> list[tuple[list[str], tuple[str, ...]]]:
    """The measured CLI processes: argv and the stages whose artifacts each writes."""
    if w.rerun:
        return [(_stage_argv(s, ws, seed), (s,)) for s in RERUN]
    return [(_run_all_argv(ws, seed), PIPELINE)]


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _digests(ws: Path, stages) -> dict[str, str]:
    from forumlens.workspace import STAGE_ARTIFACTS

    out = {}
    for stage in stages:
        for name in STAGE_ARTIFACTS[stage]:
            path = ws / name
            out[name] = _digest(path) if path.exists() else "missing"
    return out


class DigestBook:
    """First-seen artifact digests for one seed; later writes must match."""

    def __init__(self) -> None:
        self.reference: dict[str, str] = {}

    def check(self, ws: Path, stages) -> list[str]:
        current = _digests(ws, stages)
        bad = []
        for name, digest in current.items():
            ref = self.reference.setdefault(name, digest)
            if digest != ref or digest == "missing":
                bad.append(name)
        return bad


def _synth_config(w: Workload, seed: int):
    from forumlens import synth

    archetypes = synth.DEFAULT_ARCHETYPES
    if w.posts_range is not None:
        archetypes = tuple(dataclasses.replace(a, posts_range=w.posts_range) for a in archetypes)
    return synth.SynthConfig(
        seed=seed, n_communities=w.communities, actors_per_community=w.actors, archetypes=archetypes
    )


def setup_once(w: Workload, seed: int, ws: Path, runner: Runner, book: DigestBook) -> tuple[float, int]:
    """Generate and write the inputs (and prime ``rerun-M``); returns (seconds, posts)."""
    from forumlens import synth

    config = _synth_config(w, seed)
    start = time.perf_counter()
    corpus, snapshot, truth = synth.generate(config)
    synth.write_synth(ws / "synth", corpus, snapshot, truth)
    n_posts = corpus.stats.n_posts
    del corpus, snapshot, truth
    if w.rerun:
        child = runner.cli(_run_all_argv(ws, seed))
        elapsed = time.perf_counter() - start
        runner.account(book, ws, child.code, PIPELINE, "priming run-all", child.log)
    else:
        elapsed = time.perf_counter() - start
    synth_bad = book.check(ws, ("synth",))
    if synth_bad:
        runner.problems.append(f"set-up wrote different synthetic inputs for the same seed: {synth_bad}")
    return elapsed, n_posts


def run_unit(w: Workload, ws: Path, seed: int, runner: Runner, book: DigestBook) -> dict:
    """One untraced repetition of the workload's CLI processes."""
    children = []
    start = time.perf_counter()
    for argv, stages in _invocations(w, ws, seed):
        child = runner.cli(argv)
        children.append(child)
        runner.account(book, ws, child.code, stages, f"measured {argv[0]}", child.log)
    return {
        "wall_s": time.perf_counter() - start,
        "cpu_s": sum(c.cpu_s for c in children),
        "rss_mb": max(c.rss_mb for c in children),
    }


def run_traced(w: Workload, ws: Path, seed: int, runner: Runner, book: DigestBook) -> dict:
    """The traced repetition: one tracer process per CLI process of the workload."""
    groups = [[s] for s in RERUN] if w.rerun else [list(PIPELINE)]
    runs, walls, stage_rss = [], [], {}
    start = time.perf_counter()
    for i, stages in enumerate(groups):
        spec_path = runner.work / f"trace-{i}.spec.json"
        out_path = runner.work / f"trace-{i}.out.json"
        spec = {
            "src": str(SRC),
            "run_id": f"{w.name}-s{seed}-p{i}",
            "stages": [_stage_argv(s, ws, seed) for s in stages],
        }
        spec_path.write_text(json.dumps(spec))
        child = runner.spawn([sys.executable, str(HERE / "tracer.py"), str(spec_path), str(out_path)])
        walls.append(child.wall_s)
        try:
            dump = json.loads(out_path.read_text())
        except (OSError, ValueError):
            dump = {"spans": [], "counts": {}, "codes": [], "rss_mb": []}
        runs.append(dump)
        # a stage the tracer never reported on failed with the process
        codes = dump["codes"] + [child.code or -1] * (len(stages) - len(dump["codes"]))
        for stage, code in zip(stages, codes):
            runner.account(book, ws, code, (stage,), f"traced {stage}", child.log)
        stage_rss.update(zip(stages, dump["rss_mb"]))
    return {
        "wall_s": time.perf_counter() - start,
        "child_walls": walls,
        "runs": runs,
        "stage_rss": stage_rss,
    }


# --- output checks -------------------------------------------------------------


def _direct_modularity(graph_payload: dict, assignment: dict[str, int]) -> float:
    """Newman modularity of an unweighted bipartite graph, straight from the definition."""
    from collections import Counter

    edges = graph_payload["edges"]
    m = len(edges)
    degree: Counter = Counter()
    inside: Counter = Counter()
    for actor, capec in edges:
        a, c = f"actor:{actor}", f"capec:{capec}"
        degree[a] += 1
        degree[c] += 1
        if assignment[a] == assignment[c]:
            inside[assignment[a]] += 1
    strength: Counter = Counter()
    for node, d in degree.items():
        strength[assignment[node]] += d
    return sum(inside[c] / m - (strength[c] / (2.0 * m)) ** 2 for c in strength)


def quality(ws: Path, n_posts: int, runner: Runner) -> dict[str, float]:
    """End-to-end quality metrics from the artifacts, with sanity checks."""
    from forumlens import community, synth

    def read(name):
        return json.loads((ws / name).read_text(encoding="utf-8"))

    out = {"modularity": 0.0, "planted_agreement": 0.0, "silhouette": 0.0}
    try:
        stats, comms = read("corpus_stats.json"), read("communities.json")
        clusters, graph_payload = read("clusters.json"), read("graph.json")
    except (OSError, ValueError) as exc:
        runner.problems.append(f"cannot read artifacts: {exc}")
        return out
    if stats["posts"] != n_posts:
        runner.problems.append(
            f"corpus_stats.json counts {stats['posts']} posts, the generator wrote {n_posts}"
        )
    q = float(comms["modularity"])
    direct = _direct_modularity(graph_payload, comms["assignment"])
    if not math.isclose(q, direct, rel_tol=1e-9, abs_tol=1e-9):
        runner.problems.append(f"communities.json modularity {q} differs from the formula: {direct}")
    truth = synth.load_truth(ws / "synth" / "truth.json")
    assignment = {k: int(v) for k, v in comms["assignment"].items()}
    partition = community.Partition(assignment=assignment, quality=q)
    agreement = synth.community_agreement(partition, truth)
    if clusters.get("skipped"):
        runner.problems.append(f"clustering skipped: {clusters.get('reason')}")
        return {**out, "modularity": q, "planted_agreement": agreement}
    sil = float(clusters["silhouette"])
    if sil != max(s["silhouette"] for s in clusters["sweep"]):
        runner.problems.append("clusters.json silhouette is not the best of its sweep")
    checks = (("modularity", q, 0.0), ("planted_agreement", agreement, 0.0), ("silhouette", sil, -1.0))
    for name, value, lo in checks:
        if not lo < value <= 1.0:
            runner.problems.append(f"{name} {value} outside ({lo}, 1]")
    return {"modularity": q, "planted_agreement": agreement, "silhouette": sil}


def artifact_counts(ws: Path) -> dict[str, int]:
    def read(name):
        return json.loads((ws / name).read_text(encoding="utf-8"))

    def rows(name):
        with open(ws / name, encoding="utf-8") as handle:
            return sum(1 for _ in handle) - 1

    graph_payload = read("graph.json")
    manifest = read("manifest.json")
    return {
        "ingest.posts": read("corpus_stats.json")["posts"],
        "ingest.skipped": manifest["stages"]["ingest"]["config"]["skipped_lines"],
        "graph.nodes": len(graph_payload["actors"]) + len(graph_payload["capecs"]),
        "graph.edges": len(graph_payload["edges"]),
        "graph.removed_capecs": len(read("removal.json")["removed_capecs"]),
        "community.n_communities": read("communities.json")["n_communities"],
        "expertise.profiles": rows("profiles.csv"),
        "expertise.sample": rows("sample.csv"),
        "cluster.sample_n": len(read("clusters.json").get("assignments", {})),
    }


# --- statistics and environment ----------------------------------------------------


def time_stats(samples: list[float]) -> dict:
    """Median, count and samples, plus the highest percentile that has at least
    ten samples beyond it (there is none below twenty samples)."""
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples), "samples": samples}
    if n >= 20:
        p = 1 - 10 / n
        out[f"p{100 * p:g}"] = sorted(samples)[math.ceil(p * n) - 1]
    return out


def environment() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    for path in sorted((SRC / "forumlens").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


# --- one run -------------------------------------------------------------------


def per_layer(traced: dict, setup_table: dict, counts: dict, untraced_wall: float) -> dict[str, float]:
    """Every per-layer metric from the traced spans, counters and artifact counts."""
    table = {**summarize(traced["runs"]), **setup_table}
    counters: dict[str, int] = {}
    for run in traced["runs"]:
        for key, value in run["counts"].items():
            counters[key] = counters.get(key, 0) + value
    values: dict[str, float] = {}
    stage_total = 0.0
    for stage in PIPELINE:
        total = table.get(f"stage.{stage}", {}).get("total_s", 0.0)
        stage_total += total
        values[f"stage.{stage}.s"] = total
        values[f"stage.{stage}.rss_mb"] = traced["stage_rss"].get(stage, 0.0)
    values["cli.start_s"] = sum(traced["child_walls"]) - stage_total
    for span, fields in SPAN_METRICS:
        row = table.get(span, {})
        for f in fields:
            if f == "calls":
                values[f"{span}.calls"] = row.get("calls", counters.get(f"{span}.calls", 0))
            else:
                values[f"{span}.{f}"] = row.get("total_s" if f == "s" else f, 0.0)
    values.update(counts)
    for key in ("cluster.silhouette.pairs", "cluster.silhouette.bytes", "workspace.sha256_file.bytes"):
        values[key] = counters.get(key, 0)
    values["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    return values


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    """Set up, measure, check; returns (result, detail)."""
    started = time.monotonic()
    runner = Runner(work, started + RUN_BUDGET_S, hash_seed=seed % 2**32)
    load_start = os.getloadavg()
    book = DigestBook()

    # set-up
    setup_times, setup_table = [], {}
    ws = None
    for rep in range(1 if trace else SETUP_REPS):
        if ws is not None:
            shutil.rmtree(ws, ignore_errors=True)
        ws = work / f"ws{rep}"
        if trace:
            tracer = Tracer(f"{w.name}-s{seed}-setup")
            tracer.install(SETUP_TARGETS)
            try:
                elapsed, n_posts = setup_once(w, seed, ws, runner, book)
            finally:
                tracer.restore()
            setup_table = summarize([tracer.dump()])
        else:
            elapsed, n_posts = setup_once(w, seed, ws, runner, book)
        setup_times.append(elapsed)

    # measured loop
    units = []
    measure_start = time.perf_counter()
    while True:
        units.append(run_unit(w, ws, seed, runner, book))
        traced_reserve = 1.6 * units[0]["wall_s"] if trace else 0.0
        if len(units) >= w.min_units and time.perf_counter() - measure_start >= seconds:
            break
        if time.monotonic() + units[-1]["wall_s"] * 1.3 + traced_reserve + 5.0 > runner.deadline:
            break
    walls = [u["wall_s"] for u in units]
    cpus = [u["cpu_s"] for u in units]
    untraced_digests = _digests(ws, PIPELINE)
    qual = quality(ws, n_posts, runner)

    traced = None
    if trace:
        traced = run_traced(w, ws, seed, runner, book)
        try:
            counts = artifact_counts(ws)
        except (OSError, ValueError, KeyError) as exc:
            runner.problems.append(f"cannot count artifacts: {exc}")
            counts = {}
        values = per_layer(traced, setup_table, counts, statistics.median(walls))
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}
        missing = [name for name, _ in PER_LAYER if name not in values]
        if missing:
            runner.problems.append(f"per-layer metrics not computed: {missing}")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": max(u["rss_mb"] for u in units),
            **qual,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    result = {
        "correct": not runner.problems and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    detail = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": {"communities": w.communities, "actors": w.actors, "posts_range": w.posts_range},
        "moves": w.moves,
        "still": w.still,
        "environment": {
            **environment(),
            "pythonhashseed": runner.env["PYTHONHASHSEED"],
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
        },
        "failed_ops": f"{runner.failed}/{runner.attempted}",
        "problems": runner.problems,
        "setup_s": time_stats(setup_times),
        "wall_s": time_stats(walls),
        "cpu_s": time_stats(cpus),
        "quality": qual,
        "digests": untraced_digests,
    }
    if traced is not None:
        table = summarize(traced["runs"])
        detail["traced_wall_s"] = traced["wall_s"]
        detail["spans_by_self_s"] = [
            {"span": k, **table[k]} for k in sorted(table, key=lambda k: -table[k]["self_s"])
        ]
        detail["digests_traced"] = _digests(ws, PIPELINE)
    return result, detail


# --- entry points ----------------------------------------------------------------


def _one(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    work = WORK_ROOT / f"{w.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run_workload(w, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def smoke(seed: int) -> int:
    """Every workload at a tiny scale, both modes; every declared metric must appear."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    declared_why = {x["name"]: x["why"] for x in spec["workloads"]}
    for w in WORKLOADS.values():
        if declared_why.get(w.name) != w.why:
            problems.append(f"{w.name}: BENCHMARK.json does not declare it with this why")
        communities, actors = SMOKE_SCALE[w.name]
        tiny = dataclasses.replace(w, communities=communities, actors=actors)
        for trace in (0, 1):
            result, detail = _one(tiny, seed, 0.0, bool(trace))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != declared[trace]:
                differ = sorted(set(got.items()) ^ set(declared[trace].items()))
                problems.append(f"{w.name} trace={trace}: metrics differ from BENCHMARK.json: {differ}")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(
                    f"{w.name} trace={trace}: {detail['failed_ops']} failed, {detail['problems']}"
                )
            print(f"smoke {w.name} trace={trace}: failed_ops {detail['failed_ops']}, {len(got)} metrics")
    for p in problems:
        print(f"smoke FAIL {p}")
    print("smoke ok" if not problems else "smoke FAILED")
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload at a tiny scale, then exit")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and reaped and the
    # work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "forumlens" / "cli.py").is_file():
        print(f"perfbench: no forumlens sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke(args.seed)
    result, detail = _one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    summary = " ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in result["metrics"].items())
    print(f"{args.workload} seed={args.seed} failed_ops={detail['failed_ops']} {summary}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
