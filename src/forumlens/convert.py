"""Convert official NVD / MITRE CAPEC feed exports into the normalized snapshot.

Supported inputs:
  * NVD CVE JSON, both the 2.0 API shape (``vulnerabilities``) and the legacy
    1.1 feed shape (``CVE_Items``), for the CVE -> CWE pairs.
  * CAPEC XML (capec.mitre.org "Mechanisms of Attack" export, any capec-3.x
    namespace) for CAPEC entries, CWE links, hierarchy and skill scenarios.

The output is the ``cve_cwe.csv`` / ``capec.json`` pair that
:func:`forumlens.catalog.load_snapshot` reads.
"""

from __future__ import annotations

import logging
from pathlib import Path
from xml.etree import ElementTree

from .catalog import CapecEntry, CveEntry, SkillLevel, normalize_cwe, parse_capec_id
from .errors import ValidationError
from .ingest import CveId
from .workspace import field, read_json_object

logger = logging.getLogger(__name__)


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_nvd_cve_json(path: str | Path) -> list[CveEntry]:
    """Extract (CVE, CWE set) pairs from an NVD JSON dump."""
    data = read_json_object(path)
    entries: dict[CveId, set[str]] = {}

    def add(cve_text: str, descriptions) -> None:
        try:
            cve = CveId.parse(cve_text)
        except ValidationError:
            logger.warning("skipping malformed CVE id %r", cve_text)
            return
        cwes = entries.setdefault(cve, set())
        for desc in descriptions:
            try:
                cwes.add(normalize_cwe(desc.get("value", "")))
            except ValidationError:  # NVD-CWE-noinfo / NVD-CWE-Other name no CWE
                pass

    def walk_api() -> None:  # 2.0 API shape
        for item in data["vulnerabilities"]:
            cve_obj = item.get("cve", {})
            descriptions = [
                d
                for weakness in cve_obj.get("weaknesses", ())
                for d in weakness.get("description", ())
            ]
            add(cve_obj.get("id", ""), descriptions)

    def walk_legacy() -> None:  # legacy 1.1 feed shape
        for item in data["CVE_Items"]:
            cve_obj = item.get("cve", {})
            descriptions = [
                d
                for ptd in cve_obj.get("problemtype", {}).get("problemtype_data", ())
                for d in ptd.get("description", ())
            ]
            add(cve_obj.get("CVE_data_meta", {}).get("ID", ""), descriptions)

    # a misshapen item fails inside the walk, which names the file and the shape's key
    if "vulnerabilities" in data:
        field(path, "vulnerabilities", walk_api)
    elif "CVE_Items" in data:
        field(path, "CVE_Items", walk_legacy)
    else:
        raise ValidationError(f"{path}: unrecognized NVD JSON shape")

    return [CveEntry(cve_id=cve, cwe_ids=frozenset(cwes)) for cve, cwes in entries.items()]


def parse_capec_xml(path: str | Path) -> list[CapecEntry]:
    """Extract CAPEC entries from an official CAPEC XML export."""
    try:
        tree = ElementTree.parse(path)
    except ElementTree.ParseError as exc:
        raise ValidationError(f"{path}: not parseable XML: {exc}") from exc

    entries: list[CapecEntry] = []
    for node in tree.getroot().iter():
        if _localname(node.tag) != "Attack_Pattern":
            continue
        capec_id = node.get("ID")
        if capec_id is None:
            logger.warning("skipping attack pattern %r without an ID", node.get("Name", ""))
            continue
        where = f"attack pattern ID={capec_id!r}"
        entries.append(field(path, where, lambda: _capec_entry(node, capec_id)))
    return entries


def _capec_entry(node: ElementTree.Element, capec_id: str) -> CapecEntry:
    cwes: set[str] = set()
    parents: set[int] = set()
    children: set[int] = set()
    skills: list[SkillLevel] = []
    for child in node.iter():
        local = _localname(child.tag)
        if local == "Related_Weakness" and child.get("CWE_ID"):
            cwes.add(normalize_cwe(child.get("CWE_ID")))
        elif local == "Related_Attack_Pattern" and child.get("CAPEC_ID"):
            nature = (child.get("Nature") or "").lower()
            other = parse_capec_id(child.get("CAPEC_ID"))
            if nature == "childof":
                parents.add(other)
            elif nature == "parentof":
                children.add(other)
        elif local == "Skill" and child.get("Level"):
            try:
                skills.append(SkillLevel.parse(child.get("Level")))
            except ValidationError:
                logger.warning(
                    "CAPEC %s: ignoring unknown skill level %r", capec_id, child.get("Level")
                )

    return CapecEntry(
        capec_id=parse_capec_id(capec_id),
        name=node.get("Name", ""),
        related_cwes=frozenset(cwes),
        parent_ids=frozenset(parents),
        child_ids=frozenset(children),
        skill_scenarios=tuple(skills),
    )
