"""Tests for converting official NVD JSON and CAPEC XML exports."""

from __future__ import annotations

import json

import pytest

from forumlens.catalog import SkillLevel, build_snapshot, load_snapshot, save_snapshot
from forumlens.cli import main
from forumlens.convert import parse_capec_xml, parse_nvd_cve_json
from forumlens.errors import ValidationError
from forumlens.ingest import CveId

_NVD_20 = {
    "vulnerabilities": [
        {
            "cve": {
                "id": "CVE-2022-45451",
                "weaknesses": [
                    {"description": [{"lang": "en", "value": "CWE-269"}]},
                ],
            }
        },
        {
            "cve": {
                "id": "CVE-2021-0001",
                "weaknesses": [
                    {"description": [{"lang": "en", "value": "NVD-CWE-noinfo"},
                                     {"lang": "en", "value": "NVD-CWE-Other"}]},
                ],
            }
        },
    ]
}

_NVD_11 = {
    "CVE_Items": [
        {
            "cve": {
                "CVE_data_meta": {"ID": "CVE-2020-1234"},
                "problemtype": {
                    "problemtype_data": [
                        {"description": [{"lang": "en", "value": "CWE-79"},
                                         {"lang": "en", "value": "CWE-89"}]}
                    ]
                },
            }
        }
    ]
}

_CAPEC_XML = """<?xml version="1.0"?>
<Attack_Pattern_Catalog xmlns="http://capec.mitre.org/capec-3">
  <Attack_Patterns>
    <Attack_Pattern ID="233" Name="Privilege Escalation" Status="Stable">
      <Related_Weaknesses>
        <Related_Weakness CWE_ID="269"/>
      </Related_Weaknesses>
      <Related_Attack_Patterns>
        <Related_Attack_Pattern Nature="ChildOf" CAPEC_ID="122"/>
      </Related_Attack_Patterns>
      <Skills_Required>
        <Skill Level="High">Finding a local exploit</Skill>
      </Skills_Required>
    </Attack_Pattern>
    <Attack_Pattern ID="122" Name="Privilege Abuse" Status="Stable">
      <Related_Weaknesses>
        <Related_Weakness CWE_ID="269"/>
        <Related_Weakness CWE_ID="732"/>
      </Related_Weaknesses>
      <Related_Attack_Patterns>
        <Related_Attack_Pattern Nature="ParentOf" CAPEC_ID="233"/>
      </Related_Attack_Patterns>
      <Skills_Required>
        <Skill Level="Low">Basic access</Skill>
        <Skill Level="Medium">Privilege mapping</Skill>
      </Skills_Required>
    </Attack_Pattern>
  </Attack_Patterns>
</Attack_Pattern_Catalog>
"""

_ONE_PATTERN = """<?xml version="1.0"?>
<Attack_Pattern_Catalog xmlns="http://capec.mitre.org/capec-3">
  <Attack_Patterns>
    <Attack_Pattern ID="{capec}" Name="SQL Injection">
      <Related_Weaknesses><Related_Weakness CWE_ID="{cwe}"/></Related_Weaknesses>
      <Related_Attack_Patterns>
        <Related_Attack_Pattern Nature="ChildOf" CAPEC_ID="{parent}"/>
      </Related_Attack_Patterns>
    </Attack_Pattern>
  </Attack_Patterns>
</Attack_Pattern_Catalog>
"""


def _one_pattern(capec="66", cwe="89", parent="248"):
    return _ONE_PATTERN.format(capec=capec, cwe=cwe, parent=parent)


def test_parse_nvd_20_shape(tmp_path):
    path = tmp_path / "nvd.json"
    path.write_text(json.dumps(_NVD_20))
    entries = {e.cve_id: e for e in parse_nvd_cve_json(path)}
    assert entries[CveId(2022, 45451)].cwe_ids == {"CWE-269"}
    # NVD-CWE-noinfo and NVD-CWE-Other carry no CWE number and contribute nothing.
    assert entries[CveId(2021, 1)].cwe_ids == frozenset()


def test_parse_nvd_11_shape(tmp_path):
    path = tmp_path / "nvd.json"
    path.write_text(json.dumps(_NVD_11))
    entries = parse_nvd_cve_json(path)
    assert len(entries) == 1
    assert entries[0].cwe_ids == {"CWE-79", "CWE-89"}


def test_parse_nvd_unknown_shape_fatal(tmp_path):
    path = tmp_path / "nvd.json"
    path.write_text(json.dumps({"something": []}))
    with pytest.raises(ValidationError):
        parse_nvd_cve_json(path)


def test_parse_capec_xml(tmp_path):
    path = tmp_path / "capec.xml"
    path.write_text(_CAPEC_XML)
    entries = {e.capec_id: e for e in parse_capec_xml(path)}
    assert set(entries) == {233, 122}
    assert entries[233].related_cwes == {"CWE-269"}
    assert entries[233].parent_ids == {122}
    assert entries[233].skill_scenarios == (SkillLevel.HIGH,)
    assert entries[122].child_ids == {233}
    assert set(entries[122].skill_scenarios) == {SkillLevel.LOW, SkillLevel.MEDIUM}

    path.write_text(_one_pattern(cwe="CWE-89"))
    (entry,) = parse_capec_xml(path)
    assert (entry.capec_id, entry.related_cwes, entry.parent_ids) == (66, {"CWE-89"}, {248})


def test_a_malformed_cve_id_in_an_nvd_feed_is_skipped_with_a_warning(tmp_path, caplog):
    feed = json.loads(json.dumps(_NVD_20))
    feed["vulnerabilities"].insert(0, {"cve": {"id": "CVE-21-1", "weaknesses": []}})
    path = tmp_path / "nvd.json"
    path.write_text(json.dumps(feed))
    assert {e.cve_id for e in parse_nvd_cve_json(path)} == {CveId(2022, 45451), CveId(2021, 1)}
    assert [r.getMessage() for r in caplog.records] == ["skipping malformed CVE id 'CVE-21-1'"]


def test_an_attack_pattern_without_an_id_is_skipped_with_a_warning(tmp_path, caplog):
    path = tmp_path / "capec.xml"
    path.write_text(_CAPEC_XML.replace('ID="122" Name="Privilege Abuse"', 'Name="Privilege Abuse"'))
    assert [e.capec_id for e in parse_capec_xml(path)] == [233]
    assert [r.getMessage() for r in caplog.records] == [
        "skipping attack pattern 'Privilege Abuse' without an ID"
    ]


def test_an_unknown_skill_level_is_ignored_with_a_warning(tmp_path, caplog):
    path = tmp_path / "capec.xml"
    path.write_text(_CAPEC_XML.replace('Skill Level="Low"', 'Skill Level="Expert"'))
    entries = {e.capec_id: e for e in parse_capec_xml(path)}
    assert entries[122].skill_scenarios == (SkillLevel.MEDIUM,)
    assert entries[233].skill_scenarios == (SkillLevel.HIGH,)
    assert [r.getMessage() for r in caplog.records] == [
        "CAPEC 122: ignoring unknown skill level 'Expert'"
    ]


def test_parse_capec_rejects_bad_xml(tmp_path):
    path = tmp_path / "capec.xml"
    path.write_text("<unclosed")
    with pytest.raises(ValidationError):
        parse_capec_xml(path)

    cases = {
        _one_pattern(capec="CAPEC-66"): "ID='CAPEC-66': not a CAPEC identifier: 'CAPEC-66'",
        _one_pattern(cwe="x"): "ID='66': not a CWE identifier: 'x'",
        _one_pattern(parent="y"): "ID='66': not a CAPEC identifier: 'y'",
    }
    for bad, problem in cases.items():
        path.write_text(bad)
        with pytest.raises(ValidationError) as caught:
            parse_capec_xml(path)
        assert str(caught.value) == f"{path}: attack pattern {problem}"


def test_convert_catalog_end_to_end(tmp_path):
    nvd = tmp_path / "nvd.json"
    xml = tmp_path / "capec.xml"
    nvd.write_text(json.dumps(_NVD_20))
    xml.write_text(_CAPEC_XML)
    out = tmp_path / "catalog"

    snapshot = build_snapshot(parse_nvd_cve_json(nvd), parse_capec_xml(xml))
    save_snapshot(snapshot, out)
    assert (out / "cve_cwe.csv").is_file()
    assert (out / "capec.json").is_file()

    reloaded = load_snapshot(out / "cve_cwe.csv", out / "capec.json")
    assert set(reloaded.cves) == set(snapshot.cves)
    assert set(reloaded.capecs) == {233, 122}
    assert reloaded.cwe_to_capecs["CWE-269"] == {233, 122}



def _catalog_inputs(tmp_path, flag):
    """Valid ``convert-catalog`` inputs of the pair ``flag`` belongs to, by flag."""
    nvd, xml = tmp_path / "nvd.json", tmp_path / "capec.xml"
    nvd.write_text(json.dumps(_NVD_20))
    xml.write_text(_CAPEC_XML)
    if flag in ("--nvd-json", "--capec-xml"):
        return {"--nvd-json": nvd, "--capec-xml": xml}
    snapshot = build_snapshot(parse_nvd_cve_json(nvd), parse_capec_xml(xml))
    cve_cwe, capec_json = save_snapshot(snapshot, tmp_path / "normalized")
    return {"--cve-cwe": cve_cwe, "--capec-json": capec_json}


@pytest.mark.parametrize("fault", ["truncated", "non-utf8"])
@pytest.mark.parametrize("flag", ["--nvd-json", "--capec-json"])
def test_convert_catalog_names_an_unreadable_json_input(tmp_path, caplog, flag, fault):
    inputs = _catalog_inputs(tmp_path, flag)
    data = inputs[flag].read_bytes()
    inputs[flag].write_bytes(data[: len(data) // 2] if fault == "truncated" else b"\xff" + data)
    argv = ["convert-catalog", "--workspace", str(tmp_path / "ws")]
    argv += [str(part) for pair in inputs.items() for part in pair]
    caplog.clear()
    assert main(argv) == 1
    [error] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error.startswith(f"{inputs[flag]}: invalid JSON: ")


@pytest.mark.parametrize(
    "payload, key, problem",
    [
        ({"vulnerabilities": [7]}, "vulnerabilities", "'int' object has no attribute 'get'"),
        ({"vulnerabilities": {"a": 1}}, "vulnerabilities", "'str' object has no attribute 'get'"),
        ({"CVE_Items": [{"cve": []}]}, "CVE_Items", "'list' object has no attribute 'get'"),
    ],
    ids=["api-item-not-an-object", "api-items-not-a-list", "legacy-cve-not-an-object"],
)
def test_convert_catalog_names_the_nvd_file_on_a_misshapen_item(
    tmp_path, caplog, payload, key, problem
):
    inputs = _catalog_inputs(tmp_path, "--nvd-json")
    inputs["--nvd-json"].write_text(json.dumps(payload))
    argv = ["convert-catalog", "--workspace", str(tmp_path / "ws")]
    argv += [str(part) for pair in inputs.items() for part in pair]
    caplog.clear()
    assert main(argv) == 1
    [error] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error == f"{inputs['--nvd-json']}: {key}: {problem}"
