"""Persistent staged workspace: artifacts, manifest, hash gating, lock, file writes.

Every stage writes its artifacts into the workspace root and records their
SHA-256 digests, the flags it ran with, and the digests of the artifacts it
opened (``inputs``) in ``manifest.json``. A stage opens an artifact only
through ``Workspace.require``, which checks that the stage writing it is
recorded, the file exists, its digest still matches, and that stage's
``inputs`` still match the manifest; a mismatch is refused as stale unless
forced, in which case the manifest is re-baselined to the current contents.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping, TextIO

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


@contextmanager
def replacing(path: str | Path) -> Iterator[TextIO]:
    """Write ``<path>.tmp`` and move it over ``path`` once the block succeeds.

    Every file the package writes goes through here, so a crash or kill
    leaves the previous file or the complete new one under ``path``, never a
    partial one; on an exception the temp file is removed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload: object) -> Path:
    """Write ``payload`` as indented JSON with sorted keys and a final newline."""
    with replacing(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return Path(path)


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
        write_json(self.manifest_path, manifest)

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
        """Single-writer lock; raises if another process holds it.

        The kernel holds a flock on ``.lock`` and drops it when the holder
        exits or is killed. The file is never unlinked, so all lockers share
        one inode.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / ".lock", "a") as handle:
            try:
                fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise WorkspaceLockedError(
                    f"workspace {self.root} is locked by another running process"
                ) from None
            yield

    def write_json(self, name: str, payload: Mapping) -> Path:
        return write_json(self.path(name), payload)

    def read_json(self, name: str) -> dict:
        with self.require(name).open("r", encoding="utf-8") as handle:
            return json.load(handle)
