"""Persistent staged workspace: artifacts, manifest, hash gating, lock file.

Every stage writes its artifacts into the workspace root and records their
SHA-256 digests plus the flags it ran with in ``manifest.json``. A stage may
run only when all upstream stages are recorded, their files exist, and their
digests still match; a mismatch is refused as stale unless forced, in which
case the manifest is re-baselined to the current file contents.
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
    "graph": ("graph.json", "graph_stats.json", "removal.json"),
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
        self.root.mkdir(parents=True, exist_ok=True)
        with self.manifest_path.open("w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")

    def record_stage(self, stage: str, config: Mapping, artifacts: Sequence[str]) -> dict:
        """Hash the stage's artifacts and store them with its config."""
        entry = {
            "config": dict(config),
            "artifacts": {name: sha256_file(self.path(name)) for name in artifacts},
        }
        manifest = self.load_manifest()
        manifest["stages"][stage] = entry
        self.save_manifest(manifest)
        return entry

    def stage_entry(self, stage: str) -> dict | None:
        return self.load_manifest()["stages"].get(stage)

    def require(self, stage: str, *, needed_by: str, force: bool = False) -> None:
        """Ensure ``stage`` ran and its artifacts are intact before ``needed_by``.

        Missing stage or files raise a missing-upstream error naming the stage
        to run; a digest mismatch is refused as stale. With ``force`` the
        manifest is re-baselined to the file contents on disk instead.
        """
        entry = self.stage_entry(stage)
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
        if rebaselined:
            logger.warning(
                "force: accepting changed artifacts from stage %s: %s",
                stage,
                ", ".join(sorted(rebaselined)),
            )
            manifest = self.load_manifest()
            manifest["stages"][stage]["artifacts"].update(rebaselined)
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
