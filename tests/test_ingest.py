"""Tests for JSONL parsing, CVE extraction, and corpus assembly."""

from __future__ import annotations

import json
from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from forumlens.errors import ValidationError
from forumlens.ingest import (
    Corpus,
    CveId,
    build_corpus,
    extract_cve_ids,
    load_corpus,
    parse_posts,
    parse_timestamp,
    save_corpus,
    save_corpus_stats,
)

from conftest import post


def _line(post_id="p1", actor="alice", forum="f1", when="2021-01-01T00:00:00Z",
          content="nothing to see", **extra):
    return json.dumps(
        {
            "post_id": post_id,
            "actor_id": actor,
            "forum_id": forum,
            "timestamp": when,
            "content": content,
            **extra,
        }
    )


def test_extract_cve_ids_basic():
    found = extract_cve_ids("patched CVE-2022-45451 and cve-2021-0007 yesterday")
    assert found == {CveId(2022, 45451), CveId(2021, 7)}


def test_extract_cve_ids_word_boundaries():
    assert extract_cve_ids("XCVE-2022-1234") == set()
    assert extract_cve_ids("CVE-2022-1234x") == set()
    assert extract_cve_ids("(CVE-2022-1234)") == {CveId(2022, 1234)}
    assert extract_cve_ids("CVE-2022-1234.") == {CveId(2022, 1234)}
    assert extract_cve_ids("CVE-2022-" + "1" * 5000) == set()
    # ids are ASCII digits only: Arabic-Indic digits neither form nor extend one
    assert extract_cve_ids("CVE-\u0662\u0660\u0662\u0661-\u0661\u0662\u0663\u0664") == set()
    assert extract_cve_ids("CVE-2021-1234\u0663") == set()


def test_extract_cve_ids_deduplicates():
    found = extract_cve_ids("CVE-2020-1111 again CVE-2020-1111")
    assert len(found) == 1


def test_cve_id_canonical_str():
    assert str(CveId(2021, 7)) == "CVE-2021-0007"
    assert str(CveId(2022, 45451)) == "CVE-2022-45451"


def test_cve_id_parse_rejects_garbage():
    with pytest.raises(ValidationError):
        CveId.parse("CVE-21-1234")
    with pytest.raises(ValidationError):
        CveId.parse("not a cve")
    with pytest.raises(ValidationError):
        CveId.parse("CVE-\uff12\uff10\uff12\uff11-\uff11\uff12\uff13\uff14")  # fullwidth digits


def test_parse_timestamp_variants():
    for raw in ("2021-03-20T10:00:00Z", "2021-03-20T10:00:00+00:00", "2021-03-20 10:00:00"):
        ts = parse_timestamp(raw)
        assert ts.tzinfo == timezone.utc
        assert (ts.year, ts.hour) == (2021, 10)
    shifted = parse_timestamp("2021-03-20T12:00:00+02:00")
    assert shifted.hour == 10


def test_parse_posts_skips_malformed_lines(tmp_path):
    lines = [
        _line(post_id="good"),
        "{ not json",
        json.dumps({"post_id": "x"}),
        _line(post_id="bad-ts", when="never"),
        _line(post_id="ancient", when="1970-01-01T00:00:00Z"),
        "",
        _line(post_id="int-mentions", mentions=5),
        _line(post_id="str-mentions", mentions="CVE-2021-1111"),
        "[" * 100_000 + "]" * 100_000,
        _line(post_id="overflow-ts", when="0001-01-01T00:00:00+14:00"),
        _line(post_id="huge-cve", mentions=["CVE-2021-" + "1" * 5000]),
    ]
    parsed = parse_posts(lines)
    assert [r.post_id for r in parsed.records] == ["good"]
    assert parsed.skipped == 9

    # invalid UTF-8 costs its own line only, not the rest of the file
    path = tmp_path / "posts.jsonl"
    path.write_bytes(b"\xff\n" + "\n".join(lines).encode("utf-8") + b"\n")
    parsed = parse_posts(path)
    assert [r.post_id for r in parsed.records] == ["good"]
    assert parsed.skipped == 10


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=8,
)
# post-shaped objects, so lines also reach the key, timestamp and mention checks
_POST_OBJECTS = st.fixed_dictionaries(
    {key: st.text() for key in ("post_id", "actor_id", "forum_id", "content")}
    | {
        "timestamp": st.builds(
            lambda when, sign, hours: f"{when.isoformat()}{sign}{hours:02d}:00",
            # the ends of the datetime range, where a UTC offset overflows
            st.datetimes(max_value=datetime(1, 1, 2))
            | st.datetimes(min_value=datetime(9999, 12, 30))
            | st.datetimes(),
            st.sampled_from("+-"),
            st.integers(0, 23),
        )
        | st.text()
    },
    optional={
        "mentions": st.lists(
            st.builds("CVE-{}-{:04d}".format, st.integers(1000, 9999), st.integers(1, 10**7))
        )
        | _JSON_VALUES
    },
)


@given(st.lists(st.text() | (_JSON_VALUES | _POST_OBJECTS).map(json.dumps)))
def test_parse_posts_never_raises(lines):
    parsed = parse_posts(lines)
    assert len(parsed.records) + parsed.skipped == sum(1 for line in lines if line.strip())


def test_parse_posts_rejects_non_string_fields():
    lines = [json.dumps({"post_id": 7, "actor_id": "a", "forum_id": "f",
                         "timestamp": "2021-01-01T00:00:00Z", "content": "x"})]
    parsed = parse_posts(lines)
    assert parsed.records == [] and parsed.skipped == 1


def test_build_corpus_drops_posts_without_cves():
    posts = [
        post("p1", "alice", "2021-01-01", "CVE-2021-1111 writeup"),
        post("p2", "alice", "2021-01-02", "no vulns here"),
        post("p3", "bob", "2021-01-03", "CVE-2021-1111 and CVE-2021-2222"),
    ]
    corpus = build_corpus(posts)
    assert [p.post_id for p in corpus.posts] == ["p1", "p3"]
    assert corpus.stats.n_posts == 2
    assert corpus.stats.n_actors == 2
    assert corpus.stats.n_forums == 1
    assert corpus.stats.n_cves == 2


def test_build_corpus_duplicate_post_id_fatal():
    posts = [
        post("p1", "alice", "2021-01-01", "CVE-2021-1111"),
        post("p1", "bob", "2021-01-02", "CVE-2021-2222"),
    ]
    with pytest.raises(ValidationError):
        build_corpus(posts)


def test_build_corpus_keeps_explicit_mentions():
    record = post("p1", "alice", "2021-01-01", "scrubbed content")
    record = type(record)(
        post_id=record.post_id,
        actor_id=record.actor_id,
        forum_id=record.forum_id,
        timestamp=record.timestamp,
        content=record.content,
        mentions=frozenset({CveId(2020, 99)}),
    )
    corpus = build_corpus([record])
    assert corpus.posts[0].mentions == {CveId(2020, 99)}


def test_corpus_round_trip(tmp_path):
    posts = [
        post("p1", "alice", "2021-01-01", "CVE-2021-1111 poc"),
        post("p2", "bob", "2021-06-15", "chained CVE-2021-2222 CVE-2021-3333", forum="f2"),
    ]
    corpus = build_corpus(posts)
    target = tmp_path / "corpus.jsonl"
    save_corpus(corpus, target)
    loaded = load_corpus(target)
    assert isinstance(loaded, Corpus)
    assert [p.post_id for p in loaded.posts] == [p.post_id for p in corpus.posts]
    assert all(
        a.mentions == b.mentions and a.timestamp == b.timestamp
        for a, b in zip(loaded.posts, corpus.posts)
    )
    assert loaded.stats == corpus.stats


def test_corpus_stats_file_keys(tmp_path):
    corpus = build_corpus([post("p1", "alice", "2021-01-01", "CVE-2021-1111")])
    target = tmp_path / "stats.json"
    save_corpus_stats(corpus, target)
    payload = json.loads(target.read_text())
    assert payload == {"posts": 1, "actors": 1, "forums": 1, "distinct_cves": 1}
