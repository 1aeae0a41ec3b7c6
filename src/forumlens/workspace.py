"""Persistent staged workspace: artifacts, manifest, hash gating, lock file.

Every stage writes its artifacts into the workspace root and records their
SHA-256 digests, the flags it ran with, and the digests of the artifacts it
opened (``inputs``) in ``manifest.json``. A stage opens an artifact only
through ``Workspace.require``, which checks that the stage writing it is
recorded, the file exists, its digest still matches, and that stage's
``inputs`` still match the manifest; a mismatch is refused as stale unless
forced, in which case the manifest is re-baselined to the current contents.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping

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

# the stage that writes each artifact
_WRITER = {name: stage for stage, names in STAGE_ARTIFACTS.items() for name in names}


class WorkspaceLockedError(ForumlensError):
    """Another process holds the workspace lock."""


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _digest(stages: Mapping, name: str) -> str | None:
    """The digest the manifest records for artifact ``name``, or None."""
    return stages.get(_WRITER.get(name), {}).get("artifacts", {}).get(name)


def default_root() -> Path:
    return Path(os.environ.get(WORKSPACE_ENV_VAR, DEFAULT_WORKSPACE))


class Workspace:
    """File-based pipeline workspace rooted at one directory."""

    def __init__(self, root: str | Path, force: bool = False):
        self.root = Path(root)
        self.force = force
        self._reads: dict[str, str] = {}

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

    def record_stage(self, stage: str, config: Mapping) -> dict:
        """Hash the stage's artifacts and store them with its config and inputs.

        ``inputs`` are the digests of the artifacts ``require`` checked since
        the last record.
        """
        entry = {
            "config": dict(config),
            "artifacts": {name: sha256_file(self.path(name)) for name in STAGE_ARTIFACTS[stage]},
            "inputs": self._reads,
        }
        self._reads = {}
        manifest = self.load_manifest()
        manifest["stages"][stage] = entry
        self.save_manifest(manifest)
        return entry

    def require(self, name: str) -> Path:
        """Check artifact ``name`` before a stage opens it, and return its path.

        A missing writing stage or file raises a missing-upstream error naming
        the stage to run. A digest mismatch is refused as stale, and so is a
        writing stage whose ``inputs`` differ from the manifest now; that
        check reads the manifest only. With ``force`` the manifest is
        re-baselined to what is current instead.
        """
        stage = _WRITER[name]
        manifest = self.load_manifest()
        stages = manifest["stages"]
        entry = stages.get(stage)
        if entry is None:
            raise MissingUpstreamError(
                stage, f"artifact {name!r} comes from stage {stage!r}, which has not been run yet"
            )
        path = self.path(name)
        recorded = entry["artifacts"].get(name)
        if recorded is None or not path.exists():
            raise MissingUpstreamError(
                stage, f"artifact {name!r} from stage {stage!r} is missing; re-run {stage!r}"
            )
        current = sha256_file(path)
        if current != recorded and not self.force:
            raise StaleArtifactError(
                f"artifact {name!r} changed since stage {stage!r} recorded it; "
                f"re-run {stage!r} or pass --force to accept the current file"
            )
        # an entry written before inputs were recorded has none to compare
        inputs = entry.get("inputs", {})
        changed = sorted(
            {_WRITER.get(n, n) for n, digest in inputs.items() if _digest(stages, n) != digest}
        )
        if changed and not self.force:
            raise StaleArtifactError(
                f"stage {stage!r} was built from artifacts of {', '.join(map(repr, changed))} "
                f"that changed since; re-run {stage!r} or pass --force to accept it"
            )
        if current != recorded:
            logger.warning("force: accepting changed artifacts from stage %s: %s", stage, name)
            entry["artifacts"][name] = current
        if changed:
            logger.warning(
                "force: accepting stage %s built from since-changed %s", stage, ", ".join(changed)
            )
            entry["inputs"] = {n: d for n in inputs if (d := _digest(stages, n)) is not None}
        if current != recorded or changed:
            self.save_manifest(manifest)
        self._reads[name] = current
        return path

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
        with self.require(name).open("r", encoding="utf-8") as handle:
            return json.load(handle)
