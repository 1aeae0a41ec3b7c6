"""Post ingestion: JSONL parsing, CVE extraction, and corpus assembly.

Input is one JSON object per line with keys ``post_id``, ``actor_id``,
``forum_id``, ``timestamp`` (ISO-8601 UTC) and ``content``. Malformed lines
are skipped and counted, never fatal. A corpus keeps only posts that mention
at least one CVE, by the one rule of ``_kept``, which ``build_corpus`` and
each range apply. ``ingest_posts`` and ``load_post_table`` read a file in
byte ranges of whole lines: each range is checked, kept and rendered on its
own, on the job pool from ``POOL_MIN_BYTES``, and returns one ``(actor_id,
POSIX second, mention-list JSON)`` row per kept post; the caller joins the
ranges in file order and counts the posts into ``CorpusStats`` as it joins
them. So ``ingest_posts`` writes the corpus one range at a time,
``load_post_table`` reads a corpus file back as the ``(actor_id, timestamp,
mentions)`` table the graph needs, and neither holds more of the posts'
content than the range being joined.
"""

from __future__ import annotations

import io
import json
import logging
import os
import re
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import ValidationError
from .pool import map_jobs
from .workspace import replacing, write_json

logger = logging.getLogger(__name__)

# Case-insensitive CVE token, bounded so e.g. "XCVE-2022-1234" or a trailing
# letter does not match. Hyphens are not token characters in forum text. The
# sequence is capped at 19 digits: int() refuses runs over 4,300 digits.
# The id's digits are ASCII only, while a digit of any script (\d) next to
# the token still rules it out. Only valid ids match: the year is 1000-9999
# and the sequence is not all zeros, so a token never fails ``CveId``.
_CVE_RE = re.compile(
    r"(?<![A-Za-z\d])CVE-([1-9][0-9]{3})-(?!0+(?![0-9]))([0-9]{4,19})(?![A-Za-z\d])",
    re.IGNORECASE,
)

# Validity window for post timestamps; generous on purpose.
DEFAULT_VALID_FROM = datetime(1995, 1, 1, tzinfo=timezone.utc)
DEFAULT_VALID_TO = datetime(2100, 1, 1, tzinfo=timezone.utc)

_REQUIRED_KEYS = ("post_id", "actor_id", "forum_id", "timestamp", "content")


@dataclass(frozen=True, order=True)
class CveId:
    """A CVE identifier in canonical "CVE-<year>-<sequence>" form."""

    year: int
    sequence: int

    def __post_init__(self) -> None:
        if not 1000 <= self.year <= 9999:
            raise ValidationError(f"CVE year out of range: {self.year}")
        if self.sequence < 1:
            raise ValidationError(f"CVE sequence must be >= 1: {self.sequence}")

    @classmethod
    def parse(cls, text: str) -> "CveId":
        m = _CVE_RE.fullmatch(text.strip())
        if m is None:
            raise ValidationError(f"not a CVE identifier: {text!r}")
        return cls(year=int(m.group(1)), sequence=int(m.group(2)))

    def __str__(self) -> str:
        return f"CVE-{self.year}-{self.sequence:04d}"


def extract_cve_ids(text: str) -> set[CveId]:
    """Extract the set of CVE ids mentioned in ``text``.

    Matching is case-insensitive and bounded on word edges; duplicate mentions
    within the text collapse to one id.
    """
    found: set[CveId] = set()
    for m in _CVE_RE.finditer(text):
        found.add(CveId(year=int(m.group(1)), sequence=int(m.group(2))))
    return found


class PostRecord(NamedTuple):
    """One forum post.

    ``mentions`` is empty until the corpus-build step extracts CVE ids from
    ``content``, unless the record's source (a post line, a persisted corpus
    row, the synthetic generator) carries them explicitly.
    """

    post_id: str
    actor_id: str
    forum_id: str
    timestamp: datetime
    content: str
    mentions: frozenset[CveId] = frozenset()


@dataclass
class ParsedPosts:
    """Result of parsing a JSONL file: valid records plus a skip counter."""

    records: list[PostRecord]
    skipped: int = 0


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp to a UTC instant at second resolution."""
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(text)
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=timezone.utc)
        ts = ts.astimezone(timezone.utc)
        return ts.replace(microsecond=0) if ts.microsecond else ts
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"unparseable timestamp: {value!r}") from exc


# per kept post, in corpus order: (actor_id, timestamp, mentions); all graph needs of a corpus
PostTable = list[tuple[str, datetime, frozenset[CveId]]]


class Memo(dict):
    """A dict whose missing key gets ``fn(key)``, computed once and kept; a failing ``fn``
    keeps nothing. Unlike ``functools.cache``, it stores a key as is, not inside a tuple."""

    def __init__(self, fn: Callable):
        self.fn = fn  # dict.__new__ has made the empty dict

    def __missing__(self, key):
        return self.setdefault(key, self.fn(key))


def _parse_record(line: str, mention_sets: Memo, actors: Memo) -> PostRecord:
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValidationError("record is not a JSON object")
    for key in _REQUIRED_KEYS:
        if key not in obj:
            raise ValidationError(f"missing key {key!r}")
        if not isinstance(obj[key], str):
            raise ValidationError(f"key {key!r} must be a string")
    ts = parse_timestamp(obj["timestamp"])
    if not DEFAULT_VALID_FROM <= ts <= DEFAULT_VALID_TO:
        raise ValidationError(f"timestamp {ts.isoformat()} outside validity window")
    raw_mentions = obj.get("mentions", [])
    if not isinstance(raw_mentions, list) or not all(isinstance(c, str) for c in raw_mentions):
        raise ValidationError("key 'mentions' must be a list of strings")
    return PostRecord(obj["post_id"], actors[obj["actor_id"]], obj["forum_id"], ts,
                      obj["content"], mention_sets[tuple(raw_mentions)])


def encodable(text: str, what: str) -> str:
    """``text`` if it encodes as UTF-8; a lone surrogate, which JSON allows, raises
    ``ValidationError`` as ``<what> does not encode as UTF-8: <reason>``."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValidationError(f"{what} does not encode as UTF-8: {exc.reason}") from None
    return text


class CheckedPosts:
    """The lines of a JSONL post file that pass every per-line check, one at a time.

    :meth:`span` yields one :class:`PostRecord` per good line of one byte
    range of whole lines, with its UTC timestamp and the mentions its line
    lists. Malformed lines (invalid UTF-8, bad or too deeply nested JSON,
    missing keys, an ``actor_id`` with a lone surrogate, unparseable or
    out-of-window timestamps) are skipped, each kept in ``skips`` as its line
    number and reason for the caller to log; a UTF-8 byte order mark before
    the file's first line is ignored. An unreadable file raises ``OSError``.
    The memos last as long as the object, over every range it reads: each
    distinct mention string is parsed once, and the posts naming it share
    that one ``CveId``; a string that fails to parse fails every line with
    it. Posts with equal ``mentions`` lists share one frozenset, and posts of
    one actor share one ``actor_id`` string.
    """

    def __init__(self, path: str | Path):
        self.path = path
        cve_ids = Memo(CveId.parse)  # a local: a closure over self would make a cycle
        self.mention_sets = Memo(lambda raw: frozenset([cve_ids[c] for c in raw]))
        self.actors = Memo(lambda actor_id: encodable(actor_id, "key 'actor_id'"))

    def span(self, start: int, end: int | bytes | None) -> Iterator[PostRecord]:
        """The good lines of the bytes from ``start`` (a line start) to ``end`` (one too,
        or the end of the file), numbered from 1 at ``start`` in ``skips`` and counted
        in ``lines`` once read; from ``start`` 0 the file is never sought. ``end`` may
        instead be the range's bytes, as read from a pipe; the file is then not opened."""
        if isinstance(end, bytes):
            yield from self._check(io.BytesIO(end), start)
            return
        with open(self.path, "rb") as handle:
            if start:
                handle.seek(start)
            yield from self._check(handle if end is None else io.BytesIO(handle.read(end - start)),
                                   start)

    def _check(self, lines: Iterable[bytes], start: int) -> Iterator[PostRecord]:
        """The good lines of ``lines``, the lines of the bytes from ``start`` on."""
        self.skips, mention_sets, actors = [], self.mention_sets, self.actors
        first = "utf-8" if start else "utf-8-sig"  # only the file's first line may hold a BOM
        # bytes: each line is decoded on its own, so a bad byte costs one line
        lineno = 0
        for lineno, raw in enumerate(lines, start=1):
            # ValueError covers ValidationError, JSONDecodeError and UnicodeDecodeError
            try:
                line = raw.decode("utf-8" if lineno > 1 else first)
                if line.isspace():
                    continue
                record = _parse_record(line, mention_sets, actors)
            except (ValueError, RecursionError) as exc:
                self.skips.append((lineno, str(exc)))
                continue
            yield record
        self.lines = lineno


def _log_skips(skips: list[tuple[int, str]], before: int = 0) -> None:
    """Log each of a :class:`CheckedPosts`' skips, ``before`` lines into the file."""
    for lineno, reason in skips:
        logger.warning("skipping malformed line %d: %s", before + lineno, reason)


def parse_posts(path: str | Path) -> ParsedPosts:
    """Parse a JSONL post file into records, as :class:`CheckedPosts` checks it."""
    checked = CheckedPosts(path)
    records = list(checked.span(0, None))
    _log_skips(checked.skips)
    return ParsedPosts(records=records, skipped=len(checked.skips))


def _kept(post: PostRecord) -> PostRecord | None:
    """``post`` as a corpus keeps it: with the mentions its record carries, else with
    those found in its ``content`` (into a copy); ``None`` for a post with neither."""
    if post.mentions:
        return post
    mentions = frozenset(extract_cve_ids(post.content))
    return post._replace(mentions=mentions) if mentions else None


@dataclass
class CorpusStats:
    """The counts of a corpus, fed as its kept posts arrive: :meth:`add` counts a post,
    its actor and its CVEs, and ``forums`` takes the posts' forums."""

    n_posts: int = 0
    actors: set[str] = field(default_factory=set)
    forums: set[str] = field(default_factory=set)
    cves: set[CveId] = field(default_factory=set)

    n_actors = property(lambda self: len(self.actors))
    n_forums = property(lambda self: len(self.forums))
    n_cves = property(lambda self: len(self.cves))

    def add(self, actor_id: str, mentions: frozenset[CveId]) -> None:
        self.n_posts += 1
        self.actors.add(actor_id)
        self.cves |= mentions  # a frozenset lends its stored hashes: no CveId is rehashed


@dataclass
class Corpus:
    """Deduplicated posts that mention at least one CVE, with their counts."""

    posts: list[PostRecord]
    stats: CorpusStats = field(default_factory=CorpusStats)

    def table(self) -> PostTable:
        """The ``(actor_id, timestamp, mentions)`` of each post, in corpus order."""
        return [(p.actor_id, p.timestamp, p.mentions) for p in self.posts]


def _refuse_duplicate(post_id: str, seen: set[str]) -> None:
    """Add ``post_id`` to ``seen``; a ``post_id`` seen before is fatal."""
    if post_id in seen:
        raise ValidationError(f"duplicate post_id: {post_id!r}")
    seen.add(post_id)


def build_corpus(posts: Iterable[PostRecord]) -> Corpus:
    """Assemble a corpus: the posts :func:`_kept` keeps, in order, counted as they
    arrive; a duplicate ``post_id`` raises ``ValidationError``."""
    corpus, seen = Corpus(posts=[]), set()
    for post in posts:
        _refuse_duplicate(post.post_id, seen)
        if post := _kept(post):
            corpus.posts.append(post)
            corpus.stats.add(post.actor_id, post.mentions)
            corpus.stats.forums.add(post.forum_id)
    return corpus


_quote = json.encoder.encode_basestring_ascii  # how json.dumps writes a str


def _mention_lists() -> Memo:
    """A memo of each mention set's JSON list of its sorted canonical CVE names, as
    ``json.dumps`` writes it; each CVE is named once."""
    names = Memo(str)
    return Memo(lambda ms: "[" + ", ".join(map(_quote, sorted([names[c] for c in ms]))) + "]")


def _corpus_line(lists: Memo) -> Callable[[PostRecord], str]:
    """A post's ``corpus.jsonl`` line, byte for byte ``json.dumps(row, sort_keys=True)``.

    The row's timestamp is the post's UTC instant to the second, with ``Z``;
    its mentions are the list ``lists`` (a :func:`_mention_lists` memo) gives
    the post's mention set.
    """

    def line(post: PostRecord) -> str:
        post_id, actor_id, forum_id, when, content, mentions = post
        if when.utcoffset():
            when = when.astimezone(timezone.utc)
        return (
            f'{{"actor_id": {_quote(actor_id)}, "content": {_quote(content)}, '
            f'"forum_id": {_quote(forum_id)}, "mentions": {lists[mentions]}, '
            f'"post_id": {_quote(post_id)}, "timestamp": "{when.isoformat()[:19]}Z"}}\n'
        )
    return line


def _write_corpus(text: Iterable[str], path: str | Path) -> None:
    with replacing(path) as handle:
        handle.writelines(text)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Persist a corpus as JSONL, one post per line, mentions explicit."""
    _write_corpus(map(_corpus_line(_mention_lists()), corpus.posts), path)


# A post file is read in ranges of about _RANGE_BYTES, small enough that the one
# range's text the caller holds at a time stays far below the corpus. From
# POOL_MIN_BYTES the ranges run on the job pool. In alternating
# runs on a 2-vCPU host, pooled against in-process: 276 against 256 ms (0 of 8
# runs won) and 456 against 417 ms (0 of 6) at 4 MB, 448 against 768 ms (5 of 6)
# at 8 MB, 827 against 1,310 ms (6 of 6) at the 14 MB of the chatty benchmark.
POOL_MIN_BYTES = 6_000_000
_RANGE_BYTES = 1 << 17


def _cuts(size: int) -> Iterable[int]:
    """The offsets a file of ``size`` bytes is cut at, before :func:`_spans` moves each on
    to a line start."""
    return range(_RANGE_BYTES, size, _RANGE_BYTES)


def _spans(path: str | Path, size: int) -> list[tuple[int, int | None]]:
    """Byte ranges of whole lines covering the ``size`` bytes of the post file at
    ``path``, each cut of :func:`_cuts` moved on to the next line start."""
    starts = [0]
    if cuts := _cuts(size):
        with open(path, "rb") as handle:
            for cut in cuts:
                handle.seek(max(cut - 1, starts[-1]))
                handle.readline()  # to the start of the line after byte cut - 1
                if starts[-1] < handle.tell() < size:
                    starts.append(handle.tell())
    return list(zip(starts, [*starts[1:], None]))


def _pipe_spans(path: str | Path) -> Iterator[tuple[int, bytes]]:
    """A pipe's bytes in ranges of whole lines, each ``_RANGE_BYTES`` and the rest of
    its last line, as their start and their bytes: a pipe cannot be sought, so
    each range is read as it comes, by the process that joins the ranges."""
    with open(path, "rb") as handle:
        start = 0
        while chunk := handle.read(_RANGE_BYTES):
            chunk += handle.readline()
            yield start, chunk
            start += len(chunk)


def _read_range(reader: tuple, span: tuple[int, int | bytes | None]) -> tuple:
    """One range of a post file, its lines checked, its posts kept and, where ``reader``
    has a line renderer, rendered: the text, each good line's ``post_id``, one
    ``(actor_id, POSIX second, mention set as its JSON list)`` row per kept post,
    the kept posts' forums, the skips and the line count. Each actor and each JSON
    list is one string in the range, so a pickled range names it once."""
    checked, lists, line = reader  # a CheckedPosts, a _mention_lists memo, a _corpus_line
    ids, rows, forums, text = [], [], set(), []
    for post in checked.span(*span):
        ids.append(post.post_id)
        if post := _kept(post):
            rows.append((post.actor_id, int(post.timestamp.timestamp()), lists[post.mentions]))
            forums.add(post.forum_id)
            if line:
                text.append(line(post))
    return "".join(text), ids, rows, forums, checked.skips, checked.lines


@dataclass
class Ingested:
    """What :func:`ingest_posts` keeps of a post file once its corpus is written."""

    table: PostTable = field(default_factory=list)
    stats: CorpusStats = field(default_factory=CorpusStats)
    skipped: int = 0


def _read_posts(source: str | Path, render: bool, done: Ingested) -> Iterator[str]:
    """Each range's corpus text in file order, with the ranges joined into ``done``.

    The ranges of :func:`_spans` are read by :func:`_read_range`, on the job
    pool from ``POOL_MIN_BYTES``, with one parser and renderer, so in each
    process their memos last for its ranges; a pipe, whose size reads 0, is
    read in the ranges of :func:`_pipe_spans`, in this process. The parent
    logs each skip at its file line, refuses the first duplicate ``post_id``
    in the file, gives each actor, CVE and mention set one object, and feeds
    each row to ``done.stats`` as it joins it.
    """
    seen, actors, lines, size = set(), {}, 0, os.stat(source).st_size
    # a union of frozensets takes their stored hashes, so no CveId is hashed again; the
    # names in a JSON list of CVE ids hold no quote or comma
    cves = Memo(lambda name: frozenset([CveId.parse(name)]))
    sets = Memo(lambda listed: frozenset().union(*map(cves.__getitem__,
                                                     listed[2:-2].split('", "'))))
    lists = _mention_lists()
    reader = CheckedPosts(source), lists, _corpus_line(lists) if render else None
    if size:
        parts, _ = map_jobs(_read_range, reader, _spans(source, size), size >= POOL_MIN_BYTES)
    else:
        parts = (_read_range(reader, span) for span in _pipe_spans(source))
    with closing(parts):
        for text, ids, rows, forums, skips, part_lines in parts:
            _log_skips(skips, lines)
            for post_id in ids:
                _refuse_duplicate(post_id, seen)
            lines, done.skipped = lines + part_lines, done.skipped + len(skips)
            for actor, second, listed in rows:
                actor, mentions = actors.setdefault(actor, actor), sets[listed]
                done.stats.add(actor, mentions)
                done.table.append((actor, datetime.fromtimestamp(second, timezone.utc), mentions))
            done.stats.forums |= forums
            yield text


def ingest_posts(source: str | Path, path: str | Path) -> Ingested:
    """Write the corpus of a JSONL post file to ``path`` and return its post table.

    Lines are checked as :class:`CheckedPosts` checks them and posts are kept
    by :func:`_kept`, as :func:`build_corpus` keeps them; the file is what
    :func:`save_corpus` writes for that corpus. It is read in ranges
    (:func:`_read_posts`), and no post's content outlives its range: only the
    post ids, the counts and the ``(actor_id, timestamp, mentions)`` table
    are kept. A duplicate ``post_id`` is fatal and leaves ``path`` as it was.
    """
    done = Ingested()
    _write_corpus(_read_posts(source, True, done), path)
    return done


def load_post_table(path: str | Path) -> PostTable:
    """Read the post table of a corpus file as :func:`ingest_posts` reads a post file,
    never holding a post's content; a malformed line raises ``ValidationError``
    once the file is read."""
    done = Ingested()
    deque(_read_posts(path, False, done), maxlen=0)
    if done.skipped:
        raise ValidationError(f"{path}: {done.skipped} malformed line(s)")
    return done.table


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus persisted by :func:`save_corpus`; a malformed line raises
    ``ValidationError`` once the file is read."""
    parsed = parse_posts(path)
    if parsed.skipped:
        raise ValidationError(f"{path}: {parsed.skipped} malformed line(s)")
    return build_corpus(parsed.records)


def save_corpus_stats(stats: CorpusStats, path: str | Path) -> None:
    write_json(path, {"posts": stats.n_posts, "actors": stats.n_actors,
                      "forums": stats.n_forums, "distinct_cves": stats.n_cves})
