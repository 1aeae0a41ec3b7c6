"""Tests for the catalog snapshot, CVE-to-CAPEC mapping, and skill imputation."""

from __future__ import annotations

import ast
import dataclasses
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import forumlens
from forumlens.catalog import (
    CapecEntry,
    CveEntry,
    SkillLevel,
    build_snapshot,
    effective_skill,
    load_snapshot,
    map_cve_to_capecs,
    normalize_cwe,
    save_snapshot,
)
from forumlens.errors import ValidationError
from forumlens.ingest import CveId

from conftest import effective_skill_oracle, snapshot_from


def test_normalize_cwe_forms():
    assert normalize_cwe("79") == "CWE-79"
    assert normalize_cwe("CWE-79") == "CWE-79"
    assert normalize_cwe("cwe-079") == "CWE-79"
    assert normalize_cwe(269) == "CWE-269"
    with pytest.raises(ValidationError):
        normalize_cwe("CWE-")


def test_skill_level_ordering_and_parse():
    assert SkillLevel.LOW < SkillLevel.MEDIUM < SkillLevel.HIGH
    assert SkillLevel.parse("high") == SkillLevel.HIGH
    assert SkillLevel.parse(2) == SkillLevel.MEDIUM
    assert SkillLevel.parse(SkillLevel.LOW) == SkillLevel.LOW
    assert SkillLevel.HIGH.label() == "High"
    with pytest.raises(ValidationError):
        SkillLevel.parse("extreme")


def test_mapping_worked_example(mapping_snapshot):
    capecs = map_cve_to_capecs(mapping_snapshot, CveId.parse("CVE-2022-45451"))
    assert capecs == {233}
    entry = mapping_snapshot.capecs[233]
    assert set(entry.skill_scenarios) == {SkillLevel.HIGH}


def test_mapping_unions_over_cwes():
    snap = snapshot_from(
        cve_to_cwes={"CVE-2020-0001": ["CWE-79", "CWE-89"]},
        capecs=[
            (63, "XSS", ["CWE-79"]),
            (66, "SQLi", ["CWE-89"]),
            (1, "Unrelated", ["CWE-22"]),
        ],
    )
    assert map_cve_to_capecs(snap, CveId.parse("CVE-2020-0001")) == {63, 66}


def test_mapping_unknown_cve_empty():
    snap = snapshot_from(cve_to_cwes={}, capecs=[(1, "X", ["CWE-1"])])
    assert map_cve_to_capecs(snap, CveId.parse("CVE-1999-0001")) == frozenset()


def test_mapping_cve_without_cwes_empty():
    snap = snapshot_from(cve_to_cwes={"CVE-2020-0001": []}, capecs=[(1, "X", ["CWE-1"])])
    assert map_cve_to_capecs(snap, CveId.parse("CVE-2020-0001")) == frozenset()


def test_duplicate_ids_fatal():
    with pytest.raises(ValidationError):
        build_snapshot(
            [CveEntry(CveId(2020, 1)), CveEntry(CveId(2020, 1))], []
        )
    with pytest.raises(ValidationError):
        build_snapshot([], [CapecEntry(1, "a"), CapecEntry(1, "b")])


def test_hierarchy_symmetrized_and_pruned():
    snap = snapshot_from(
        cve_to_cwes={},
        capecs=[(1, "parent", []), (2, "child", [])],
        parents={2: [1, 999]},
    )
    assert snap.capecs[2].parent_ids == {1}
    assert snap.capecs[1].child_ids == {2}


def test_cyclic_hierarchy_fatal():
    with pytest.raises(ValidationError):
        snapshot_from(
            cve_to_cwes={},
            capecs=[(1, "a", []), (2, "b", [])],
            parents={1: [2], 2: [1]},
        )


@pytest.mark.parametrize(
    "parents, cycle",
    [
        ({1: [2], 2: [1]}, "1 -> 2 -> 1"),
        ({3: [3]}, "3 -> 3"),
        ({1: [2], 2: [3], 3: [1], 4: [1]}, "1 -> 2 -> 3 -> 1"),
    ],
)
def test_cyclic_hierarchy_names_the_cycle(parents, cycle):
    # the cycle is named as a walk from a CAPEC up through its parents
    with pytest.raises(ValidationError) as excinfo:
        snapshot_from(
            cve_to_cwes={},
            capecs=[(cid, "x", []) for cid in sorted({*parents, *sum(parents.values(), [])})],
            parents=parents,
        )
    assert str(excinfo.value) == f"cyclic CAPEC hierarchy: {cycle}"


def test_effective_skill_direct_takes_max():
    entry = CapecEntry(
        capec_id=5,
        name="multi",
        skill_scenarios=(SkillLevel.LOW, SkillLevel.HIGH, SkillLevel.MEDIUM),
    )
    snap = build_snapshot([], [entry])
    assert effective_skill(snap, 5) == SkillLevel.HIGH
    with pytest.raises(dataclasses.FrozenInstanceError):
        snap.skills = {}


def test_effective_skill_imputes_from_parent():
    snap = snapshot_from(
        cve_to_cwes={},
        capecs=[(1, "root", []), (2, "mid", []), (3, "leaf", [])],
        skills={1: "Medium"},
        parents={2: [1], 3: [2]},
    )
    # Leaf has no scenarios; neither does its parent; the grandparent supplies Medium.
    assert effective_skill(snap, 3) == SkillLevel.MEDIUM
    assert effective_skill(snap, 2) == SkillLevel.MEDIUM


def test_effective_skill_falls_back_to_children():
    snap = snapshot_from(
        cve_to_cwes={},
        capecs=[(1, "root", []), (2, "leaf", [])],
        skills={2: "Low"},
        parents={2: [1]},
    )
    assert effective_skill(snap, 1) == SkillLevel.LOW


def test_effective_skill_order_flips_precedence():
    snap = snapshot_from(
        cve_to_cwes={},
        capecs=[(1, "parent", []), (2, "target", []), (3, "child", [])],
        skills={1: "High", 3: "Low"},
        parents={2: [1], 3: [2]},
    )
    # a known parent wins over a known child
    assert effective_skill(snap, 2) == SkillLevel.HIGH


def test_effective_skill_none_when_unknown():
    snap = snapshot_from(cve_to_cwes={}, capecs=[(1, "bare", [])])
    assert effective_skill(snap, 1) is None
    with pytest.raises(KeyError):
        effective_skill(snap, 999)


_LEVELS = st.sampled_from(list(SkillLevel))


@st.composite
def _acyclic_hierarchies(draw) -> list[CapecEntry]:
    """Entries of a random acyclic hierarchy: ids drawn in a parents-first order,
    each link declared on the child's side, the parent's side or both, plus
    links to ids outside the snapshot (100 and up)."""
    ids = draw(st.lists(st.integers(1, 60), min_size=1, max_size=12, unique=True))
    parents = {cid: set(draw(st.sets(st.integers(100, 103), max_size=1))) for cid in ids}
    children = {cid: set(draw(st.sets(st.integers(100, 103), max_size=1))) for cid in ids}
    for j, kid in enumerate(ids):
        for parent in ids[:j]:
            side = draw(st.sampled_from(["none", "none", "none", "child", "parent", "both"]))
            if side in ("child", "both"):
                parents[kid].add(parent)
            if side in ("parent", "both"):
                children[parent].add(kid)
    return [
        CapecEntry(
            capec_id=cid,
            name=f"c{cid}",
            parent_ids=frozenset(parents[cid]),
            child_ids=frozenset(children[cid]),
            skill_scenarios=tuple(draw(st.lists(_LEVELS, max_size=2))),
        )
        for cid in draw(st.permutations(ids))
    ]


@given(_acyclic_hierarchies())
def test_effective_skill_matches_the_recursive_definition(entries):
    snap = build_snapshot([], entries)
    for cid in snap.capecs:
        assert effective_skill(snap, cid) == effective_skill_oracle(snap, cid)


def test_effective_skill_on_a_deep_diamond_ladder():
    # 30 stacked diamonds under one known root: 2**30 upward paths reach it
    levels = 30
    entries = [CapecEntry(0, "root", skill_scenarios=(SkillLevel.MEDIUM,))]
    for k in range(levels):
        top, bottom = 3 * k, 3 * (k + 1)
        entries += [
            CapecEntry(top + 1, "left", parent_ids=frozenset({top})),
            CapecEntry(top + 2, "right", parent_ids=frozenset({top})),
            CapecEntry(bottom, "join", parent_ids=frozenset({top + 1, top + 2})),
        ]
    start = time.perf_counter()
    snap = build_snapshot([], entries)
    assert effective_skill(snap, 3 * levels) == SkillLevel.MEDIUM
    assert time.perf_counter() - start < 1.0


def test_snapshot_round_trip(tmp_path):
    snap = snapshot_from(
        cve_to_cwes={"CVE-2022-45451": ["CWE-269"], "CVE-2020-0001": []},
        capecs=[(233, "Privilege Escalation", ["CWE-269"]), (1, "Other", ["CWE-22"])],
        skills={233: "High"},
        parents={233: [1]},
    )
    cve_path, capec_path = save_snapshot(snap, tmp_path)
    loaded = load_snapshot(cve_path, capec_path)
    assert set(loaded.cves) == set(snap.cves)
    assert loaded.cves[CveId(2022, 45451)].cwe_ids == {"CWE-269"}
    assert loaded.cves[CveId(2020, 1)].cwe_ids == frozenset()
    assert loaded.capecs[233].parent_ids == {1}
    assert loaded.capecs[233].skill_scenarios == (SkillLevel.HIGH,)
    assert loaded.cwe_to_capecs == snap.cwe_to_capecs


def test_a_byte_order_mark_on_either_catalog_file_is_ignored(tmp_path):
    snap = snapshot_from(
        cve_to_cwes={"CVE-2022-45451": ["CWE-269"], "CVE-2020-0001": ["CWE-22"]},
        capecs=[(233, "Privilege Escalation", ["CWE-269"]), (1, "Other", ["CWE-22"])],
        skills={233: "High"},
    )
    cve_path, capec_path = save_snapshot(snap, tmp_path / "plain")
    bom = tmp_path / "bom"
    bom.mkdir()
    for path in (cve_path, capec_path):
        (bom / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_snapshot(bom / cve_path.name, bom / capec_path.name) == load_snapshot(
        cve_path, capec_path
    )


def test_load_snapshot_rejects_bad_files(tmp_path):
    csv_path = tmp_path / "cve_cwe.csv"
    capec_path = tmp_path / "capec.json"
    csv_path.write_text("wrong,columns\nx,y\n")
    capec_path.write_text("[]")
    with pytest.raises(ValidationError):
        load_snapshot(csv_path, capec_path)

    csv_path.write_text("cve_id,cwe_id\nCVE-2020-0001,CWE-79\n")
    capec_path.write_text(json.dumps({"not": "a list"}))
    with pytest.raises(ValidationError):
        load_snapshot(csv_path, capec_path)

    with pytest.raises(ValidationError):
        load_snapshot(tmp_path / "missing.csv", capec_path)

    # one CAPEC id syntax: a JSON integer (not a bool or float) or a decimal string;
    # a skill level code is an integer too, not a bool
    bad_entries = ({"id": True}, {"id": 12.9}, {"id": 5, "parents": "20"},
                   {"id": 5, "skill_scenarios": [True, 3]})
    for bad in bad_entries:
        capec_path.write_text(json.dumps([bad]))
        with pytest.raises(ValidationError, match="capec.json"):
            load_snapshot(csv_path, capec_path)

    # a malformed cve_cwe.csv row names the file and its line
    capec_path.write_text("[]")
    for row, problem in (
        ("CVE-2020-0001,CWE-x9", "not a CWE identifier: 'CWE-x9'"),
        ("not-a-cve,CWE-1", "not a CVE identifier: 'not-a-cve'"),
    ):
        csv_path.write_text(f"cve_id,cwe_id\nCVE-2020-0002,CWE-79\n{row}\n")
        with pytest.raises(ValidationError) as excinfo:
            load_snapshot(csv_path, capec_path)
        assert str(excinfo.value) == f"{csv_path}: line 3: {problem}"


def _constants_outside_docstrings(tree: ast.AST) -> list[str]:
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings
    ]


def test_only_the_catalog_spells_cwe_ids():
    # f-string parts are constants too, so f"CWE-{n}" outside catalog.py is caught
    package = Path(forumlens.__file__).parent
    spelled = sorted(
        path.name
        for path in package.glob("*.py")
        if path.name != "catalog.py"
        and any("CWE-" in text for text in _constants_outside_docstrings(ast.parse(path.read_text())))
    )
    assert spelled == []
