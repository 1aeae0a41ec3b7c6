"""Tests for JSONL parsing, CVE extraction, and corpus assembly."""

from __future__ import annotations

import json
import logging
import os
import re
import tempfile
import threading
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from forumlens import ingest
from forumlens.cli import main

from forumlens.errors import ValidationError
from forumlens.ingest import (
    Corpus,
    CveId,
    build_corpus,
    extract_cve_ids,
    ingest_posts,
    load_corpus,
    load_post_table,
    PostRecord,
    parse_posts,
    parse_timestamp,
    save_corpus,
    save_corpus_stats,
)

from conftest import ingest_oracle, lines_file, post


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
    # a CVE-shaped token that is no valid id is not a mention
    assert extract_cve_ids("typo CVE-2021-0000") == set()
    assert extract_cve_ids("CVE-0999-1234") == set()


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


def test_parse_posts_skips_malformed_lines(tmp_path, caplog):
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
        # json.dumps escapes it, as JSON allows, but UTF-8 cannot encode a lone surrogate
        _line(post_id="surrogate-actor", actor="\ud800x"),
    ]
    with lines_file(lines) as path:
        parsed = parse_posts(path)
    assert [r.post_id for r in parsed.records] == ["good"]
    assert parsed.skipped == 10
    assert "skipping malformed line 12: key 'actor_id' does not encode as UTF-8: " \
        "surrogates not allowed" in caplog.text

    # invalid UTF-8 costs its own line only, not the rest of the file
    path = tmp_path / "posts.jsonl"
    path.write_bytes(b"\xff\n" + "\n".join(lines).encode("utf-8") + b"\n")
    parsed = parse_posts(path)
    assert [r.post_id for r in parsed.records] == ["good"]
    assert parsed.skipped == 11


def test_a_byte_order_mark_before_the_first_line_is_ignored(tmp_path):
    lines = [_line(post_id="first"), "{ not json", _line(post_id="last")]
    text = "".join(line + "\n" for line in lines).encode("utf-8")
    (tmp_path / "plain.jsonl").write_bytes(text)
    (tmp_path / "bom.jsonl").write_bytes(b"\xef\xbb\xbf" + text)
    plain, bom = parse_posts(tmp_path / "plain.jsonl"), parse_posts(tmp_path / "bom.jsonl")
    assert [r.post_id for r in bom.records] == ["first", "last"]
    assert bom == plain and bom.skipped == 1

    # the file is read once, front to back, so a pipe holding a BOM'd file works too
    fifo = tmp_path / "posts.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(b"\xef\xbb\xbf" + text,), daemon=True)
    writer.start()
    assert parse_posts(fifo) == plain
    writer.join()

    # only the first line may start with one
    (tmp_path / "later.jsonl").write_bytes(text + b"\xef\xbb\xbf" + text)
    assert parse_posts(tmp_path / "later.jsonl").skipped == 3


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=8,
)
# CVE-shaped tokens, valid or not: any year, sequences that may be all zeros
_CVE_TOKENS = st.builds(
    "CVE-{:04d}-{}".format,
    st.sampled_from([0, 999]) | st.integers(0, 9999),
    st.sampled_from(["0000", "00000"]) | st.from_regex(r"\A[0-9]{4,8}\Z"),
)
# post-shaped objects, so lines also reach the key, timestamp and mention checks
_POST_OBJECTS = st.fixed_dictionaries(
    {key: st.text() for key in ("post_id", "actor_id", "forum_id")}
    | {"content": st.text() | st.lists(st.text() | _CVE_TOKENS).map(" ".join)}
    | {
        "timestamp": st.builds(
            lambda when, sign, hours: f"{when.isoformat()}{sign}{hours:02d}:00",
            # the ends of the datetime range, where a UTC offset overflows
            st.datetimes(max_value=datetime(1, 1, 2))
            | st.datetimes(min_value=datetime(9999, 12, 30))
            # inside the validity window, so lines also reach the corpus build
            | st.datetimes(min_value=datetime(1995, 1, 2), max_value=datetime(2099, 12, 30))
            | st.datetimes(),
            st.sampled_from("+-"),
            st.integers(0, 23),
        )
        | st.text()
    },
    optional={
        "mentions": st.lists(
            st.builds("CVE-{}-{:04d}".format, st.integers(1000, 9999), st.integers(1, 10**7))
            | _CVE_TOKENS
        )
        | _JSON_VALUES
    },
)


@given(st.lists(st.text() | (_JSON_VALUES | _POST_OBJECTS).map(json.dumps)))
@example(
    [
        json.dumps({"post_id": "p", "actor_id": "a", "forum_id": "f",
                    "timestamp": "2021-01-01T00:00:00Z", "content": "typo CVE-2021-0000"}),
    ]
)
def test_parse_posts_never_raises(lines):
    with lines_file(lines) as path:
        parsed = parse_posts(path)
    # a line of text may hold newlines: the file has a line for each part
    parts = [part for line in lines for part in line.split("\n")]
    assert len(parsed.records) + parsed.skipped == sum(1 for part in parts if part.strip())
    # a duplicate post_id is fatal by contract, so build from one record per id
    unique = list({r.post_id: r for r in parsed.records}.values())
    corpus = build_corpus(unique)
    assert all(p.mentions for p in corpus.posts)


def test_parse_posts_rejects_non_string_fields():
    lines = [json.dumps({"post_id": 7, "actor_id": "a", "forum_id": "f",
                         "timestamp": "2021-01-01T00:00:00Z", "content": "x"})]
    with lines_file(lines) as path:
        parsed = parse_posts(path)
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
    # ingest hands its corpus to graph in place of this file's contents, so the
    # reload must equal it in full
    lines = [
        _line("p1", "alice", content="CVE-2021-1111 poc"),
        _line("p2", "bob", forum="f2", when="2021-06-15T23:30:00.750-02:00",
              content="chained CVE-2021-2222 cve-2021-3333"),
        _line("p3", "m\u00fcller-\u0416", when="2021-03-01T08:00:00+05:30",
              content='tab\t"quoted" back\\slash \u2603 \U0001f600 \ud800 CVE-2020-0001\n'),
        _line("p4", "carol", content="scrubbed", mentions=[" cve-2020-0099", "CVE-2020-0099"]),
        _line("p5", "carol", content="no mention"),
    ]
    with lines_file(lines) as path:
        corpus = build_corpus(parse_posts(path).records)
    assert [p.post_id for p in corpus.posts] == ["p1", "p2", "p3", "p4"]
    target = tmp_path / "corpus.jsonl"
    save_corpus(corpus, target)
    loaded = load_corpus(target)
    assert isinstance(loaded, Corpus)
    assert loaded == corpus
    assert loaded.posts[1].timestamp == datetime(2021, 6, 16, 1, 30, tzinfo=timezone.utc)
    assert loaded.posts[3].mentions == {CveId(2020, 99)}


# every whole-minute UTC offset a timezone can have
_ZONES = st.integers(-(24 * 60 - 1), 24 * 60 - 1).map(lambda m: timezone(timedelta(minutes=m)))


@settings(deadline=None)
@given(st.datetimes(min_value=datetime(1995, 1, 2), max_value=datetime(2099, 12, 30)), _ZONES)
@example(datetime(2021, 3, 1, 5, 0), timezone(timedelta(hours=5)))
def test_a_saved_corpus_reloads_each_post_at_its_instant(local, zone):
    # a record built in memory may carry any offset; the file holds its UTC instant
    when = local.replace(microsecond=0, tzinfo=zone)
    record = PostRecord("p1", "alice", "f1", when, "CVE-2021-1111")
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp, "corpus.jsonl")
        save_corpus(build_corpus([record]), target)
        row = json.loads(target.read_text(encoding="utf-8"))
        [loaded] = load_corpus(target).posts
    assert row["timestamp"] == when.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    assert loaded.timestamp == when


def test_ingest_and_load_share_each_actor_string(tmp_path):
    # json.loads gives each line its own actor string; the parser keeps one per actor
    lines = [
        _line("p1", "alice", content="CVE-2021-1111"),
        _line("p2", "bob", content="CVE-2021-2222"),
        _line("p3", "alice", content="no mention"),
        _line("p4", "alice", content="CVE-2021-3333"),
        _line("p5", "bob", content="CVE-2021-1111"),
    ]
    target = tmp_path / "corpus.jsonl"
    with lines_file(lines) as path:
        done = ingest_posts(path, target)
    loaded = load_post_table(target)
    assert loaded == done.table
    for table in (done.table, loaded):
        actors = [actor for actor, _, _ in table]
        assert actors == ["alice", "bob", "alice", "bob"]
        assert actors[0] is actors[2] and actors[1] is actors[3]


def test_corpus_stats_file_keys(tmp_path):
    corpus = build_corpus([post("p1", "alice", "2021-01-01", "CVE-2021-1111")])
    target = tmp_path / "stats.json"
    save_corpus_stats(corpus.stats, target)
    payload = json.loads(target.read_text())
    assert payload == {"posts": 1, "actors": 1, "forums": 1, "distinct_cves": 1}


# any code point, lone surrogates included, with JSON's escapes made likely
_ANY_TEXT = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\/\n\t\x00\x1f\x7f\ud800\udfff\u2028')
)
_CVE_NAMES = st.builds(
    "{}-{}-{:04d}".format, st.sampled_from(["CVE", "cve"]), st.integers(1000, 9999),
    st.integers(1, 10**7),
)
_STREAMED_POSTS = st.lists(
    st.fixed_dictionaries(
        {
            "post_id": _ANY_TEXT,
            "actor_id": _ANY_TEXT,
            "forum_id": _ANY_TEXT,
            "content": _ANY_TEXT,
            "timestamp": st.datetimes(
                min_value=datetime(1995, 1, 2), max_value=datetime(2099, 12, 30),
                timezones=st.sampled_from(
                    [timezone.utc, timezone(timedelta(hours=5.5)), timezone(-timedelta(hours=2))]
                ),
            ),
            # no list: the mentions are the ids found in the content
            "mentions": st.none() | st.lists(_CVE_NAMES, min_size=1, max_size=4),
            "in_content": _CVE_NAMES,
        }
    ),
    max_size=8,
    unique_by=lambda p: p["post_id"],
)


@settings(deadline=None)
@given(_STREAMED_POSTS)
def test_streamed_corpus_line_is_json_dumps_of_its_row(posts):
    lines, expected, malformed = [], [], 0
    for p in posts:
        record = {k: p[k] for k in ("post_id", "actor_id", "forum_id")}
        record["timestamp"] = p["timestamp"].isoformat()
        if p["mentions"] is None:
            record["content"] = f"{p['content']} {p['in_content']}"
        else:
            record["content"], record["mentions"] = p["content"], p["mentions"]
        lines.append(json.dumps(record))
        # a surrogate left unpaired once JSON pairs the escapes: an actor id UTF-8 cannot hold
        if re.search("[\ud800-\udfff]", json.loads(lines[-1])["actor_id"]):
            malformed += 1
            continue
        names = p["mentions"] or [p["in_content"], *map(str, extract_cve_ids(p["content"]))]
        row = dict(
            record,
            timestamp=p["timestamp"].astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            mentions=sorted({"CVE" + name[3:] for name in names}),  # upper-case prefix
        )
        expected.append(json.dumps(row, sort_keys=True) + "\n")
    with tempfile.TemporaryDirectory() as tmp, lines_file(lines) as path:
        streamed, saved = Path(tmp, "streamed.jsonl"), Path(tmp, "saved.jsonl")
        done = ingest_posts(path, streamed)
        save_corpus(build_corpus(parse_posts(path).records), saved)
        assert streamed.read_text(encoding="utf-8").splitlines(keepends=True) == expected
        assert saved.read_bytes() == streamed.read_bytes()
        assert done.skipped == malformed and done.stats.n_posts == len(posts) - malformed
        assert load_post_table(streamed) == done.table


# lines of a posts file: malformed ones, posts with and without mentions, blank lines
_MIXED_LINES = st.lists(
    st.text().map(str.encode)
    | (_JSON_VALUES | _POST_OBJECTS).map(lambda value: json.dumps(value).encode())
    | st.sampled_from([b"\xff{}", b"", b"  ", b'{"post_id": "broken']),
)


def _line_bytes(post_id, content, **extra):
    return json.dumps(
        {"post_id": post_id, "actor_id": "a", "forum_id": "f",
         "timestamp": "2021-01-01T00:00:00Z", "content": content, **extra}
    ).encode()


@settings(deadline=None, max_examples=60)
@given(_MIXED_LINES)
@example(
    [
        _line_bytes("explicit", "no id here", mentions=["cve-2021-0007", " CVE-2021-7"]),
        b"{ not json",
        _line_bytes("in-content", "see CVE-2020-1234 and CVE-2020-1234."),
        _line_bytes("no-cve", "nothing"),
        b"\xff\xfe",
        _line_bytes("bad-mention", "CVE-2021-1111", mentions=["CVE-21-1"]),
        _line_bytes("empty-list", "CVE-2019-0001 only here", mentions=[]),
        b"",
    ]
)
def test_ingest_writes_what_the_parse_build_save_path_wrote(lines):
    data = b"\n".join(lines) + b"\n"
    try:
        expected = ingest_oracle(data)
    except ValidationError:
        expected = None  # a duplicate post_id
    with tempfile.TemporaryDirectory() as tmp:
        posts, ws = Path(tmp, "posts.jsonl"), Path(tmp, "ws")
        posts.write_bytes(data)
        code = main(["ingest", "--workspace", str(ws), "--posts", str(posts)])
        if expected is None:
            assert code == 1 and not ws.joinpath("corpus.jsonl").exists()
            return
        corpus, stats, skipped = expected
        assert code == 0
        assert ws.joinpath("corpus.jsonl").read_bytes() == corpus
        assert json.loads(ws.joinpath("corpus_stats.json").read_text()) == stats
        manifest = json.loads(ws.joinpath("manifest.json").read_text())
        assert manifest["stages"]["ingest"]["config"]["skipped_lines"] == skipped


# A post file for the ranged reader: a byte order mark, blank lines, a malformed line
# beside every good one, and no newline after the last line
_RANGED_LINES = [
    b"\xef\xbb\xbf" + _line_bytes("p1", "see CVE-2021-1111"),
    b"{ not json",
    _line_bytes("p2", "no id here", mentions=["cve-2020-0007", "CVE-2021-1111"]),
    b"",
    json.dumps({"post_id": "p3", "actor_id": "a"}).encode(),
    _line_bytes("p3", "CVE-2019-0001 and CVE-2021-1111"),
    b"\xff\xfe",
    _line_bytes("p4", "no mention"),
    b"   ",
    _line_bytes("p5", "bad", timestamp="never"),
    _line_bytes("p6", "CVE-2020-0007 again", actor_id="b"),
    _line_bytes("p7", "x", mentions=["CVE-21-1"]),
    _line_bytes("p8", "last cve-2021-1111", forum_id="g"),
]
_RANGED = b"\n".join(_RANGED_LINES)
_LINE_STARTS = [i + 1 for i, byte in enumerate(_RANGED) if byte == ord("\n")]


class _Lines(logging.Handler):
    def __init__(self):
        super().__init__()
        self.lines: list[str] = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def _ranged_read(data: bytes, cuts: list[int], old: bytes | None = None):
    """What ``ingest_posts`` gives for ``data`` cut at ``cuts`` on the pool: the corpus
    file (or the error, with the file left as ``old`` and no temp file), the table,
    the counts, the skip count and the warning lines."""
    handler = _Lines()
    logger = logging.getLogger("forumlens.ingest")
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(ingest, "POOL_MIN_BYTES", 0), \
            mock.patch.object(ingest, "_cuts", lambda size: cuts):
        source, target = Path(tmp, "posts.jsonl"), Path(tmp, "corpus.jsonl")
        source.write_bytes(data)
        if old is not None:
            target.write_bytes(old)
        logger.addHandler(handler)
        try:
            done = ingest_posts(source, target)
        except ValidationError as exc:
            assert target.read_bytes() == old and not list(Path(tmp).glob("*.tmp"))
            return str(exc)
        finally:
            logger.removeHandler(handler)
        return target.read_bytes(), done.table, done.stats, done.skipped, handler.lines


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(1, len(_RANGED) - 1), max_size=3, unique=True).map(sorted))
@example(_LINE_STARTS[3:6])  # each cut exactly on a line start
@example([_LINE_STARTS[0] - 1, _LINE_STARTS[0], _LINE_STARTS[0] + 1])
@example([len(_RANGED) - 2])  # inside the last line, which has no newline
def test_a_ranged_read_equals_a_one_range_read(cuts):
    whole = _ranged_read(_RANGED, [])
    assert whole[3] == 5 and len(whole[4]) == 5
    assert whole[4][0] == "skipping malformed line 2: Expecting property name enclosed in " \
        "double quotes: line 1 column 3 (char 2)"
    ranged = _ranged_read(_RANGED, cuts)
    assert ranged == whole
    # equal actors and mention sets are one object each, across ranges too
    table = ranged[1]
    assert table[0][2] is table[4][2] and table[0][0] is table[4][0]


def test_a_duplicate_post_id_across_ranges_is_refused_as_in_one_range():
    data = _RANGED + b"\n" + _line_bytes("p2", "again CVE-2021-1111")
    starts = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
    old = b"the corpus before\n"
    whole = _ranged_read(data, [], old)
    assert whole == "duplicate post_id: 'p2'"
    for cuts in ([starts[2]], [starts[1], starts[6], starts[-1]], [starts[-1] + 3]):
        assert _ranged_read(data, cuts, old) == whole
