"""Local CVE -> CWE -> CAPEC catalog snapshot.

The snapshot is a normalized offline form of the public MITRE/NVD data:
``cve_cwe.csv`` holds one (cve_id, cwe_id) pair per row and ``capec.json``
holds one entry per attack pattern with its CWE links, hierarchy links and
required-skill scenarios. Converting official feed exports into this form
lives in :mod:`forumlens.convert`. CWE and CAPEC ids are read only here, by
:func:`normalize_cwe` and :func:`parse_capec_id`.
"""

from __future__ import annotations

import csv
import logging
import re
from dataclasses import dataclass, replace
from enum import IntEnum
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import Iterable

from .errors import ValidationError
from .ingest import CveId
from .workspace import field, read_json, reading_csv, replacing, write_json

logger = logging.getLogger(__name__)

_CWE_RE = re.compile(r"(?:CWE-)?(\d+)$", re.IGNORECASE)


class SkillLevel(IntEnum):
    """Required-skill level of an attack-pattern scenario; Low < Medium < High."""

    LOW = 1
    MEDIUM = 2
    HIGH = 3

    @classmethod
    def parse(cls, value: "str | int | SkillLevel") -> "SkillLevel":
        if isinstance(value, SkillLevel):
            return value
        if type(value) is int:
            return cls(value)
        name = value.strip().upper() if isinstance(value, str) else None
        if name in cls.__members__:
            return cls[name]
        raise ValidationError(f"unknown skill level: {value!r}")

    def label(self) -> str:
        return self.name.capitalize()


def normalize_cwe(value: str | int) -> str:
    """Normalize a CWE reference ('79', 'CWE-79', 79) to canonical 'CWE-79'."""
    m = _CWE_RE.fullmatch(str(value).strip())
    if m is None:
        raise ValidationError(f"not a CWE identifier: {value!r}")
    return f"CWE-{int(m.group(1))}"


def parse_capec_id(value: object) -> int:
    """A CAPEC id from a non-negative JSON integer (not a bool) or a decimal string."""
    if type(value) is int and value >= 0:
        return value
    if isinstance(value, str) and re.fullmatch(r"\s*[0-9]+\s*", value):
        return int(value)
    raise ValidationError(f"not a CAPEC identifier: {value!r}")


@dataclass(frozen=True)
class CveEntry:
    cve_id: CveId
    cwe_ids: frozenset[str] = frozenset()


@dataclass(frozen=True)
class CapecEntry:
    capec_id: int
    name: str
    related_cwes: frozenset[str] = frozenset()
    parent_ids: frozenset[int] = frozenset()
    child_ids: frozenset[int] = frozenset()
    skill_scenarios: tuple[SkillLevel, ...] = ()


@dataclass(frozen=True)
class CatalogSnapshot:
    """A validated catalog with its derived CWE -> CAPECs index and the
    effective skill of every CAPEC; :func:`build_snapshot` makes one."""

    cves: dict[CveId, CveEntry]
    capecs: dict[int, CapecEntry]
    cwe_to_capecs: dict[str, frozenset[int]]
    skills: dict[int, SkillLevel | None]


def _derive_cwe_index(capecs: dict[int, CapecEntry]) -> dict[str, frozenset[int]]:
    index: dict[str, set[int]] = {}
    for entry in capecs.values():
        for cwe in entry.related_cwes:
            index.setdefault(cwe, set()).add(entry.capec_id)
    return {cwe: frozenset(ids) for cwe, ids in index.items()}


def build_snapshot(
    cve_entries: Iterable[CveEntry], capec_entries: Iterable[CapecEntry]
) -> CatalogSnapshot:
    """Validate entries and assemble a snapshot with its derived tables.

    Duplicate CVE or CAPEC ids and cyclic hierarchies are fatal; hierarchy links
    that point at ids outside the snapshot are dropped with a warning.

    A CAPEC's effective skill is the maximum of its direct scenarios, so a
    pattern with mixed scenarios is scored by its hardest one. Without
    scenarios it is imputed: the maximum over its parents' imputed-upward
    values (through gaps of any depth), else the maximum direct value among
    its children, else None. One parents-first pass (``graphlib``) fills every
    value.
    """
    cves: dict[CveId, CveEntry] = {}
    for entry in cve_entries:
        if entry.cve_id in cves:
            raise ValidationError(f"duplicate CVE in snapshot: {entry.cve_id}")
        cves[entry.cve_id] = entry

    capecs: dict[int, CapecEntry] = {}
    for entry in capec_entries:
        if entry.capec_id in capecs:
            raise ValidationError(f"duplicate CAPEC in snapshot: {entry.capec_id}")
        capecs[entry.capec_id] = entry

    # Symmetrize hierarchy links so parent/child declarations agree, then
    # drop links to ids the snapshot does not contain.
    parents: dict[int, set[int]] = {cid: set() for cid in capecs}
    children: dict[int, set[int]] = {cid: set() for cid in capecs}
    for cid, entry in capecs.items():
        for pid in entry.parent_ids:
            if pid not in capecs:
                logger.warning("CAPEC %d: dropping unknown parent %d", cid, pid)
                continue
            parents[cid].add(pid)
            children[pid].add(cid)
        for kid in entry.child_ids:
            if kid not in capecs:
                logger.warning("CAPEC %d: dropping unknown child %d", cid, kid)
                continue
            children[cid].add(kid)
            parents[kid].add(cid)

    # parents first, so each upward value reads its parents' values
    direct = {cid: max(e.skill_scenarios, default=None) for cid, e in capecs.items()}
    up: dict[int, SkillLevel | None] = {}
    try:
        for cid in TopologicalSorter(parents).static_order():
            known = [up[p] for p in parents[cid] if up[p] is not None]
            up[cid] = direct[cid] if direct[cid] is not None else max(known, default=None)
    except CycleError as exc:
        # graphlib lists the cycle parent first; name it as a walk up to the parents
        cycle = reversed(exc.args[1])
        raise ValidationError("cyclic CAPEC hierarchy: " + " -> ".join(map(str, cycle))) from None

    skills = {cid: up[cid] for cid in capecs}
    for cid, value in skills.items():
        if value is None:
            below = [direct[k] for k in children[cid] if direct[k] is not None]
            skills[cid] = max(below, default=None)
    capecs = {
        cid: replace(entry, parent_ids=frozenset(parents[cid]), child_ids=frozenset(children[cid]))
        for cid, entry in capecs.items()
    }
    return CatalogSnapshot(
        cves=cves,
        capecs=capecs,
        cwe_to_capecs=_derive_cwe_index(capecs),
        skills=skills,
    )


def load_snapshot(cve_cwe_path: str | Path, capec_path: str | Path) -> CatalogSnapshot:
    """Load the normalized snapshot files; load order does not affect the result."""
    cve_cwe_path = Path(cve_cwe_path)
    capec_path = Path(capec_path)
    for path in (cve_cwe_path, capec_path):
        if not path.is_file():
            raise ValidationError(f"catalog file not found: {path}")

    cwe_map: dict[CveId, set[str]] = {}
    with reading_csv(cve_cwe_path) as reader:
        if reader.fieldnames is not None:
            missing = {"cve_id", "cwe_id"} - set(reader.fieldnames)
            if missing:
                raise ValidationError(f"{cve_cwe_path}: missing columns {sorted(missing)}")
        for row in reader:
            where = f"line {reader.line_num}"
            cve = field(cve_cwe_path, where, lambda: CveId.parse(row["cve_id"]))
            cwes = cwe_map.setdefault(cve, set())
            raw = (row.get("cwe_id") or "").strip()
            if raw:
                cwes.add(field(cve_cwe_path, where, lambda: normalize_cwe(raw)))
    cve_entries = [
        CveEntry(cve_id=cve, cwe_ids=frozenset(cwes)) for cve, cwes in cwe_map.items()
    ]

    raw_capecs = read_json(capec_path)
    if not isinstance(raw_capecs, list):
        raise ValidationError(f"{capec_path}: expected a JSON list of CAPEC entries")
    capec_entries = []
    for obj in raw_capecs:
        try:
            for key in ("related_cwes", "parents", "children", "skill_scenarios"):
                if not isinstance(obj.get(key, []), list):
                    raise ValidationError(f"{key} must be a list: {obj[key]!r}")
            capec_entries.append(
                CapecEntry(
                    capec_id=parse_capec_id(obj["id"]),
                    name=str(obj.get("name", "")),
                    related_cwes=frozenset(normalize_cwe(c) for c in obj.get("related_cwes", ())),
                    parent_ids=frozenset(parse_capec_id(p) for p in obj.get("parents", ())),
                    child_ids=frozenset(parse_capec_id(c) for c in obj.get("children", ())),
                    skill_scenarios=tuple(
                        SkillLevel.parse(s) for s in obj.get("skill_scenarios", ())
                    ),
                )
            )
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValidationError(f"{capec_path}: malformed CAPEC entry {obj!r}: {exc}") from exc

    return build_snapshot(cve_entries, capec_entries)


def save_snapshot(snapshot: CatalogSnapshot, directory: str | Path) -> tuple[Path, Path]:
    """Write the snapshot back out in the normalized file format."""
    directory = Path(directory)
    cve_path = directory / "cve_cwe.csv"
    capec_path = directory / "capec.json"

    with replacing(cve_path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["cve_id", "cwe_id"])
        for cve in sorted(snapshot.cves):
            entry = snapshot.cves[cve]
            if entry.cwe_ids:
                for cwe in sorted(entry.cwe_ids, key=lambda c: int(c.split("-")[1])):
                    writer.writerow([str(cve), cwe])
            else:
                writer.writerow([str(cve), ""])

    rows = []
    for cid in sorted(snapshot.capecs):
        entry = snapshot.capecs[cid]
        rows.append(
            {
                "id": cid,
                "name": entry.name,
                "related_cwes": sorted(entry.related_cwes, key=lambda c: int(c.split("-")[1])),
                "parents": sorted(entry.parent_ids),
                "children": sorted(entry.child_ids),
                "skill_scenarios": [s.label() for s in entry.skill_scenarios],
            }
        )
    write_json(capec_path, rows)
    return cve_path, capec_path


def map_cve_to_capecs(snapshot: CatalogSnapshot, cve: CveId) -> frozenset[int]:
    """CAPECs reachable from a CVE: union over its CWEs of each CWE's CAPEC set.

    Unknown or unmapped CVEs yield the empty set.
    """
    entry = snapshot.cves.get(cve)
    if entry is None:
        return frozenset()
    capecs: set[int] = set()
    for cwe in entry.cwe_ids:
        capecs.update(snapshot.cwe_to_capecs.get(cwe, frozenset()))
    return frozenset(capecs)


def effective_skill(snapshot: CatalogSnapshot, capec_id: int) -> SkillLevel | None:
    """Effective required-skill level of a CAPEC, as :func:`build_snapshot`
    imputed it through the hierarchy; None when nothing is known. Unknown ids
    raise KeyError.
    """
    return snapshot.skills[capec_id]
