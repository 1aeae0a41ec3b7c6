"""Outside-in tracing of forumlens: spans around the public functions of each layer.

``Tracer.install`` replaces every binding of a listed function inside the
``forumlens`` package (the defining module and every module that imported
the name) with a wrapper that records a span or only counts calls;
``Tracer.restore`` puts the originals back. Nothing under ``src/`` changes.

Run as a script, this file is the traced stand-in for one CLI process:

    python3 perfbench/tracer.py SPEC.json OUT.json

SPEC is ``{"src": ..., "run_id": ..., "stages": [[argv...], ...]}``. Each
argv is passed to ``forumlens.cli.main`` in this process inside a
``stage.<name>`` span, and the process high-water RSS is sampled after it.
OUT receives the spans, counters, exit codes and RSS samples as JSON.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from collections import defaultdict
from typing import Callable

# (module, qualified name) of the functions that get a span each.
SPAN_TARGETS: tuple[tuple[str, str], ...] = (
    ("ingest", "parse_posts"),
    ("ingest", "build_corpus"),
    ("ingest", "load_corpus"),
    ("ingest", "save_corpus"),
    ("catalog", "load_snapshot"),
    ("catalog", "save_snapshot"),
    ("graph", "post_capec_sets"),
    ("graph", "build_graph"),
    ("graph", "surviving_post_counts"),
    ("graph", "filter_popular_capecs"),
    ("graph", "degree_stats"),
    ("graph", "save_graph"),
    ("graph", "load_graph"),
    ("community", "leiden"),
    ("community", "summarize_communities"),
    ("expertise", "build_profiles"),
    ("expertise", "build_sample"),
    ("expertise", "save_profiles"),
    ("expertise", "load_profiles"),
    ("cluster", "standardize"),
    ("cluster", "sweep_k"),
    ("cluster", "kmeans"),
    ("cluster", "silhouette"),
    ("workspace", "sha256_file"),
    ("workspace", "Workspace.require"),
    ("workspace", "Workspace.record_stage"),
    ("workspace", "Workspace.write_json"),
    ("report", "emit_report"),
)

# Hot per-item functions: a span each would cost more than their work, so
# only their calls are counted.
COUNT_TARGETS: tuple[tuple[str, str], ...] = (
    ("catalog", "map_cve_to_capecs"),
    ("catalog", "effective_skill"),
    ("workspace", "Workspace.load_manifest"),
)

# Set-up runs in the benchmark process itself.
SETUP_TARGETS: tuple[tuple[str, str], ...] = (
    ("synth", "generate"),
    ("synth", "write_synth"),
)


def _sha256_bytes(args: tuple, kwargs: dict) -> dict[str, int]:
    path = kwargs.get("path", args[0] if args else None)
    return {"workspace.sha256_file.bytes": os.path.getsize(path)}


def _silhouette_size(args: tuple, kwargs: dict) -> dict[str, int]:
    # computed, not measured: the n x n x d float64 difference tensor the
    # current kernel materialises
    X = kwargs.get("X", args[0] if args else None)
    n, d = X.shape
    return {"cluster.silhouette.pairs": n * n, "cluster.silhouette.bytes": n * n * d * 8}


# Counters derived from a call's arguments, recorded outside its span.
OBSERVERS: dict[str, Callable[[tuple, dict], dict[str, int]]] = {
    "workspace.sha256_file": _sha256_bytes,
    "cluster.silhouette": _silhouette_size,
}


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` plus named counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        observe = OBSERVERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if observe is not None:
                    for key, value in observe(args, kwargs).items():
                        counts[key] += value

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, spans=(), counted=()) -> None:
        """Wrap every binding of each target inside the forumlens package."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("forumlens") and m]
        for targets, make in ((spans, self._span_wrapper), (counted, self._count_wrapper)):
            for module_name, qualname in targets:
                owner = importlib.import_module(f"forumlens.{module_name}")
                *cls_path, attr = qualname.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapped = make(f"{module_name}.{qualname}", original)
                self._replace(owner, attr, original, wrapped)
                if not cls_path:
                    for module in modules:
                        for name, value in list(vars(module).items()):
                            if value is original and module is not owner:
                                self._replace(module, name, original, wrapped)

    def _replace(self, owner: object, attr: str, original: object, wrapped: object) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans, "counts": dict(self.counts)}


def summarize(runs: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name over all runs: ``total_s``, ``self_s`` and ``calls``.

    Self time is a span's duration minus the durations of its direct
    children; spans never overlap their siblings, since every traced run is
    single-threaded.
    """
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0})
    for run in runs:
        spans = run["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        for (name, start, end, _), covered in zip(spans, child_time):
            if end is None:
                continue
            row = table[name]
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
            row["calls"] += 1
    return dict(table)


def main(argv: list[str]) -> int:
    spec_path, out_path = argv
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    from forumlens import cli

    tracer = Tracer(spec["run_id"])
    codes: list[int] = []
    rss_mb: list[float] = []
    tracer.install(SPAN_TARGETS, COUNT_TARGETS)
    try:
        for stage_argv in spec["stages"]:
            idx = tracer.open(f"stage.{stage_argv[0]}")
            try:
                codes.append(cli.main(stage_argv))
            finally:
                tracer.close(idx)
            rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    finally:
        tracer.restore()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({**tracer.dump(), "codes": codes, "rss_mb": rss_mb}, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
