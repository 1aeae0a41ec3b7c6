"""Persistent staged workspace: artifacts, manifest, hash gating, lock, file reads and writes.

Every stage writes its artifacts into the workspace root and records their
SHA-256 digests, the flags it ran with, and the digests of the artifacts it
opened (``inputs``) in ``manifest.json``. A stage opens an artifact only
through ``Workspace.require``, which checks that the stage writing it is
recorded, the file exists, its digest still matches, and that stage's
``inputs`` still match the manifest; a mismatch is refused as stale unless
forced, in which case the manifest is re-baselined to the current contents.

Inside one command a stage may also hand the object it wrote to the later
stages that open the artifact (``hand_off`` and ``load``). ``STAGE_INPUTS``
declares the artifacts each stage opens, and the command names the stages
still to come (``to_come``). The object is stamped with the digest recorded
for the file, handed to each later reader while the file still has that
digest (otherwise the reader parses the file), and released in the load of
the last one, so it does not outlive its use.
"""

from __future__ import annotations

import csv
import fcntl
import hashlib
import json
import logging
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, TextIO, TypeVar

from .errors import ForumlensError, MissingUpstreamError, StaleArtifactError, ValidationError

logger = logging.getLogger(__name__)

T = TypeVar("T")

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

# the artifacts each stage opens; a recorded stage's manifest ``inputs`` hold these keys,
# and the report's sections follow the order of its inputs here
STAGE_INPUTS: dict[str, tuple[str, ...]] = {
    "synth": (),
    "ingest": (),
    "convert-catalog": (),
    "graph": ("cve_cwe.csv", "capec.json", "corpus.jsonl"),
    "communities": ("cve_cwe.csv", "capec.json", "capec_posts.json"),
    "expertise": ("cve_cwe.csv", "capec.json", "capec_posts.json", "communities.json"),
    "cluster": ("sample.csv",),
    "report": (
        "corpus_stats.json", "graph_stats.json", "removal.json", "communities.json",
        "sample_stats.json", "clusters.json",
    ),
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
    """Write ``payload`` as indented JSON with sorted keys and a final newline.

    A non-finite float, which JSON has no value for, raises ``ValidationError``
    naming the file, and the previous file stays.
    """
    try:
        with replacing(path) as handle:
            json.dump(payload, handle, indent=2, sort_keys=True, allow_nan=False)
            handle.write("\n")
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return Path(path)


def _refuse_constant(name: str) -> Any:
    raise ValueError(f"{name} is not a JSON value")


def read_json(path: str | Path) -> Any:
    """Parse a JSON file, a leading byte order mark ignored; invalid UTF-8 or JSON,
    which includes the ``NaN`` and ``Infinity`` that ``json`` otherwise accepts,
    raises ``ValidationError`` naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"), parse_constant=_refuse_constant)
    except (ValueError, RecursionError) as exc:  # ValueError covers both decode errors
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc


@contextmanager
def reading_csv(path: str | Path) -> Iterator[csv.DictReader]:
    """A ``csv.DictReader`` over a UTF-8 file, a leading byte order mark ignored; invalid
    UTF-8 or a CSV fault, such as a field over the csv module's size limit, raises
    ``ValidationError`` naming the file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            yield csv.DictReader(handle)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def field(path: str | Path, key: str | None, build: Callable[[], T]) -> T:
    """``build()``, with a fault in the data it reads raised as ``ValidationError``.

    A missing key reads ``<path>: <missing key>: missing``; a wrong type or
    value ``<path>: <key>: <problem>``, or ``<path>: <problem>`` where ``key``
    is None because the caller cannot know it.
    """
    try:
        return build()
    except KeyError as exc:
        raise ValidationError(f"{path}: {exc.args[0]}: missing") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        where = path if key is None else f"{path}: {key}"
        raise ValidationError(f"{where}: {exc}") from exc


def _object(value: object) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    return value


def read_json_object(path: str | Path) -> dict:
    """Parse a JSON file that holds one object; a fault names the file."""
    payload = read_json(path)
    return field(path, None, lambda: _object(payload))


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
        # the stages of the running command after the one running now
        self.to_come: tuple[str, ...] = ()
        # objects offered by the running stage, and recorded ones with their digest
        self._offered: dict[str, Any] = {}
        self._held: dict[str, tuple[str, Any]] = {}

    def path(self, name: str) -> Path:
        return self.root / name

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def load_manifest(self) -> dict:
        path = self.manifest_path
        if not path.exists():
            return {"version": MANIFEST_VERSION, "stages": {}}
        try:
            manifest = read_json_object(path)
            if not isinstance(manifest.get("stages"), dict):
                raise ValueError("no 'stages' object")
            # the shapes require and record_stage index
            for stage, entry in manifest["stages"].items():
                field(path, stage, lambda: _object(entry))
                field(path, f"{stage}: artifacts", lambda: _object(entry.get("artifacts")))
                field(path, f"{stage}: inputs", lambda: _object(entry.get("inputs")))
        except ValueError as exc:
            raise ForumlensError(
                f"{path} is not a valid manifest ({exc}); "
                "delete it and re-run the pipeline from the first stage"
            ) from exc
        return manifest

    def save_manifest(self, manifest: dict) -> None:
        write_json(self.manifest_path, manifest)

    def record_stage(self, stage: str, config: Mapping) -> dict:
        """Hash the stage's artifacts and store them with its config and inputs.

        ``inputs`` are the digests of the artifacts ``require`` checked since
        the last record. Objects the stage offered through ``hand_off`` for
        its artifacts are stamped with the digests recorded here and held for
        the stages to come that open them; other offers are dropped.
        """
        entry = {
            "config": dict(config),
            "artifacts": {name: sha256_file(self.path(name)) for name in STAGE_ARTIFACTS[stage]},
            "inputs": self._reads,
        }
        self._reads = {}
        for name, obj in self._offered.items():
            if name in entry["artifacts"] and self._read_later(name):
                self._held[name] = (entry["artifacts"][name], obj)
        self._offered = {}
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
        inputs = entry["inputs"]
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

    def hand_off(self, name: str, obj: object) -> None:
        """Offer ``obj``, which the running stage wrote as artifact ``name``.

        The offer counts once the stage is recorded, and only for the stages
        in ``to_come`` that open the artifact. ``obj`` must equal what the
        artifact's reader gives for the file written.
        """
        self._offered[name] = obj

    def load(self, name: str, read: Callable[[Path], T]) -> T:
        """Check artifact ``name`` as ``require`` does, and return its contents.

        The object held for it comes back while the file's digest is still the
        one recorded with it; otherwise ``read(path)`` parses the file and the
        object is dropped. When no stage in ``to_come`` opens the artifact,
        this load, the last reader's, releases the object: only the caller
        keeps it.
        """
        path = self.require(name)
        held = self._held.pop(name, None)
        if held is None or held[0] != self._reads[name]:
            del held  # a stale object is not kept alive while the file is parsed
            return read(path)
        if self._read_later(name):
            self._held[name] = held
        return held[1]

    def _read_later(self, name: str) -> bool:
        """Whether a stage in ``to_come`` opens artifact ``name``."""
        return any(name in STAGE_INPUTS[stage] for stage in self.to_come)

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
