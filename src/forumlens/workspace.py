"""Persistent staged workspace: artifacts, manifest, hash gating, lock file.

Every stage writes its artifacts into the workspace root and records their
SHA-256 digests, the flags it ran with, and the digests of the upstream
artifacts it was built from (``inputs``) in ``manifest.json``. A stage may
run only when all upstream stages are recorded, their files exist, their
digests still match, and each upstream's ``inputs`` still match the manifest;
a mismatch is refused as stale unless forced, in which case the manifest is
re-baselined to the current file contents.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .errors import ForumlensError, MissingUpstreamError, StaleArtifactError

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1

WORKSPACE_ENV_VAR = "FORUMLENS_WORKSPACE"
DEFAULT_WORKSPACE = "workspace"

STAGE_ARTIFACTS: dict[str, tuple[str, ...]] = {
    "synth": ("synth/posts.jsonl", "synth/cve_cwe.csv", "synth/capec.json", "synth/truth.json"),
    "ingest": ("corpus.jsonl", "corpus_stats.json"),
    "convert-catalog": ("cve_cwe.csv", "capec.json"),
    "graph": ("graph.json", "graph_stats.json", "removal.json", "capec_posts.json"),
    "communities": ("communities.json",),
    "expertise": ("profiles.csv", "sample.csv", "sample_stats.json"),
    "cluster": ("clusters.json",),
    "report": ("report.json", "report.txt"),
}

STAGE_UPSTREAM: dict[str, tuple[str, ...]] = {
    "synth": (),
    "ingest": (),
    "convert-catalog": (),
    "graph": ("ingest", "convert-catalog"),
    "communities": ("ingest", "convert-catalog", "graph"),
    "expertise": ("ingest", "convert-catalog", "graph", "communities"),
    "cluster": ("expertise",),
    "report": ("ingest", "convert-catalog", "graph", "communities", "expertise", "cluster"),
    "export-graph": ("graph",),
}


class WorkspaceLockedError(ForumlensError):
    """Another process holds the workspace lock."""


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _inputs(stage: str, stages: Mapping) -> dict:
    """The recorded artifact digests of ``stage``'s upstream stages."""
    return {u: stages[u]["artifacts"] for u in STAGE_UPSTREAM.get(stage, ()) if u in stages}


def default_root() -> Path:
    return Path(os.environ.get(WORKSPACE_ENV_VAR, DEFAULT_WORKSPACE))


class Workspace:
    """File-based pipeline workspace rooted at one directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path(self, name: str) -> Path:
        return self.root / name

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def load_manifest(self) -> dict:
        if not self.manifest_path.exists():
            return {"version": MANIFEST_VERSION, "stages": {}}
        try:
            with self.manifest_path.open("r", encoding="utf-8") as handle:
                manifest = json.load(handle)
            if not isinstance(manifest, dict) or not isinstance(manifest.get("stages"), dict):
                raise ValueError("no 'stages' object")
        except ValueError as exc:
            raise ForumlensError(
                f"{self.manifest_path} is not a valid manifest ({exc}); "
                "delete it and re-run the pipeline from the first stage"
            ) from exc
        return manifest

    def save_manifest(self, manifest: dict) -> None:
        # write a sibling file and swap it in: a crash mid-write keeps the old manifest
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.manifest_path.with_name(MANIFEST_NAME + ".tmp")
        try:
            with tmp.open("w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, self.manifest_path)
        finally:
            tmp.unlink(missing_ok=True)

    def record_stage(self, stage: str, config: Mapping, artifacts: Sequence[str]) -> dict:
        """Hash the stage's artifacts and store them with its config and inputs."""
        entry = {
            "config": dict(config),
            "artifacts": {name: sha256_file(self.path(name)) for name in artifacts},
        }
        manifest = self.load_manifest()
        entry["inputs"] = _inputs(stage, manifest["stages"])
        manifest["stages"][stage] = entry
        self.save_manifest(manifest)
        return entry

    def stage_entry(self, stage: str) -> dict | None:
        return self.load_manifest()["stages"].get(stage)

    def require(self, stage: str, *, needed_by: str, force: bool = False) -> None:
        """Ensure ``stage`` ran and its artifacts are intact and current before ``needed_by``.

        Missing stage or files raise a missing-upstream error naming the stage
        to run. A digest mismatch is refused as stale, and so is an upstream
        whose artifacts changed after ``stage`` recorded them in its
        ``inputs``; that check reads the manifest only. With ``force`` the
        manifest is re-baselined to the file contents on disk instead.
        """
        manifest = self.load_manifest()
        entry = manifest["stages"].get(stage)
        if entry is None:
            raise MissingUpstreamError(
                stage, f"stage {needed_by!r} needs {stage!r}, which has not been run yet"
            )
        rebaselined = {}
        for name, digest in entry["artifacts"].items():
            path = self.path(name)
            if not path.exists():
                raise MissingUpstreamError(
                    stage,
                    f"stage {needed_by!r} needs artifact {name!r} from {stage!r}; "
                    f"re-run {stage!r}",
                )
            current = sha256_file(path)
            if current != digest:
                if not force:
                    raise StaleArtifactError(
                        f"artifact {name!r} changed since stage {stage!r} recorded it; "
                        f"re-run {stage!r} or pass --force to accept the current file"
                    )
                rebaselined[name] = current
        # an entry written before inputs were recorded has none to compare
        changed = sorted(
            upstream
            for upstream, digests in entry.get("inputs", {}).items()
            if manifest["stages"].get(upstream, {}).get("artifacts") != digests
        )
        if changed and not force:
            raise StaleArtifactError(
                f"stage {stage!r} was built from artifacts of {', '.join(map(repr, changed))} "
                f"that changed since; re-run {stage!r} or pass --force to accept it"
            )
        if rebaselined:
            logger.warning(
                "force: accepting changed artifacts from stage %s: %s",
                stage,
                ", ".join(sorted(rebaselined)),
            )
            entry["artifacts"].update(rebaselined)
        if changed:
            logger.warning(
                "force: accepting stage %s built from since-changed %s", stage, ", ".join(changed)
            )
            entry["inputs"] = _inputs(stage, manifest["stages"])
        if rebaselined or changed:
            self.save_manifest(manifest)

    def require_upstream(self, stage: str, force: bool = False) -> None:
        for upstream in STAGE_UPSTREAM.get(stage, ()):
            self.require(upstream, needed_by=stage, force=force)

    @contextmanager
    def lock(self) -> Iterator[None]:
        """Single-writer lock; raises if another process holds it."""
        self.root.mkdir(parents=True, exist_ok=True)
        lock_path = self.root / ".lock"
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise WorkspaceLockedError(
                f"workspace {self.root} is locked by another process; "
                f"remove {lock_path} if that process is gone"
            ) from None
        try:
            os.write(fd, f"{os.getpid()}\n".encode("ascii"))
            os.close(fd)
            yield
        finally:
            try:
                lock_path.unlink()
            except FileNotFoundError:
                pass

    def write_json(self, name: str, payload: Mapping) -> Path:
        path = self.path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    def read_json(self, name: str) -> dict:
        with self.path(name).open("r", encoding="utf-8") as handle:
            return json.load(handle)
