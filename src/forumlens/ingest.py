"""Post ingestion: JSONL parsing, CVE extraction, and corpus assembly.

Input is one JSON object per line with keys ``post_id``, ``actor_id``,
``forum_id``, ``timestamp`` (ISO-8601 UTC) and ``content``. Malformed lines
are skipped and counted, never fatal. A corpus keeps only posts that mention
at least one CVE. The pipeline streams: ``ingest_posts`` writes each kept post
as soon as its line is checked, and ``load_post_table`` reads a corpus file
back as the ``(actor_id, timestamp, mentions)`` table the graph needs, so
neither holds the posts' content.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import ValidationError
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

    Iterating yields one :class:`PostRecord` per good line, with its UTC
    timestamp and the mentions its line lists. Malformed lines (invalid UTF-8,
    bad or too deeply nested JSON, missing keys, an ``actor_id`` with a lone
    surrogate, unparseable or out-of-window timestamps) are logged and counted
    in ``skipped``; a UTF-8 byte order mark before the first line is ignored.
    An unreadable file raises ``OSError``. Each distinct mention string is
    parsed once per pass, and the posts naming it share that one ``CveId``; a
    string that fails to parse fails every line with it. Posts with equal
    ``mentions`` lists share one frozenset, and posts of one actor share one
    ``actor_id`` string.
    """

    def __init__(self, path: str | Path):
        self.path = path
        self.skipped = 0

    def __iter__(self) -> Iterator[PostRecord]:
        cve_ids = Memo(CveId.parse)
        mention_sets = Memo(lambda raw: frozenset([cve_ids[c] for c in raw]))
        actors = Memo(lambda actor_id: encodable(actor_id, "key 'actor_id'"))
        # bytes: each line is decoded on its own, so a bad byte costs one line; the
        # first may start with a byte order mark, and the file is never sought, so a pipe works
        with open(self.path, "rb") as handle:
            for lineno, raw in enumerate(handle, start=1):
                # ValueError covers ValidationError, JSONDecodeError and UnicodeDecodeError
                try:
                    line = raw.decode("utf-8" if lineno > 1 else "utf-8-sig")
                    if line.isspace():
                        continue
                    record = _parse_record(line, mention_sets, actors)
                except (ValueError, RecursionError) as exc:
                    self.skipped += 1
                    logger.warning("skipping malformed line %d: %s", lineno, exc)
                    continue
                yield record


def parse_posts(path: str | Path) -> ParsedPosts:
    """Parse a JSONL post file into records, as :class:`CheckedPosts` checks it."""
    checked = CheckedPosts(path)
    return ParsedPosts(records=list(checked), skipped=checked.skipped)


@dataclass(frozen=True)
class CorpusStats:
    n_posts: int
    n_actors: int
    n_forums: int
    n_cves: int


@dataclass
class Corpus:
    """Deduplicated posts that mention at least one CVE, with their counts."""

    posts: list[PostRecord]
    stats: CorpusStats = CorpusStats(0, 0, 0, 0)

    def table(self) -> PostTable:
        """The ``(actor_id, timestamp, mentions)`` of each post, in corpus order."""
        return [(p.actor_id, p.timestamp, p.mentions) for p in self.posts]


class _KeptPosts:
    """The posts a corpus keeps, one at a time, and their :class:`CorpusStats` once iterated.

    A post keeps the mentions its record carries, else those found in its
    ``content`` (into a copy); a post with none is dropped. A duplicate
    ``post_id`` is fatal.
    """

    def __init__(self, posts: Iterable[PostRecord]):
        self.posts = posts
        self.stats = CorpusStats(0, 0, 0, 0)

    def __iter__(self) -> Iterator[PostRecord]:
        seen: set[str] = set()
        actors: set[str] = set()
        forums: set[str] = set()
        cves: set[CveId] = set()
        n_posts = 0
        for post in self.posts:
            post_id, actor_id, forum_id, _, content, mentions = post
            if post_id in seen:
                raise ValidationError(f"duplicate post_id: {post_id!r}")
            seen.add(post_id)
            if not mentions:
                mentions = frozenset(extract_cve_ids(content))
                if not mentions:
                    continue
                post = post._replace(mentions=mentions)
            n_posts += 1
            actors.add(actor_id)
            forums.add(forum_id)
            cves.update(mentions)  # a frozenset lends its stored hashes: no CveId is rehashed
            yield post
        self.stats = CorpusStats(n_posts, len(actors), len(forums), len(cves))


def build_corpus(posts: Iterable[PostRecord]) -> Corpus:
    """Assemble a corpus: the posts :class:`_KeptPosts` keeps, in order, with their counts."""
    kept = _KeptPosts(posts)
    return Corpus(posts=list(kept), stats=kept.stats)


_quote = json.encoder.encode_basestring_ascii  # how json.dumps writes a str


def _write_corpus(posts: Iterable[PostRecord], path: str | Path) -> None:
    """Write one ``corpus.jsonl`` line per post, byte for byte ``json.dumps(row, sort_keys=True)``.

    The row's timestamp is the post's UTC instant to the second, with ``Z``;
    its mentions are the sorted canonical CVE names. Each distinct CVE is
    named once per call, and each distinct mention set rendered once.
    """
    names = Memo(str)
    lists = Memo(lambda ms: "[" + ", ".join(map(_quote, sorted([names[c] for c in ms]))) + "]")
    with replacing(path) as handle:
        write = handle.write
        for post_id, actor_id, forum_id, when, content, mentions in posts:
            if when.utcoffset():
                when = when.astimezone(timezone.utc)
            write(
                f'{{"actor_id": {_quote(actor_id)}, "content": {_quote(content)}, '
                f'"forum_id": {_quote(forum_id)}, "mentions": {lists[mentions]}, '
                f'"post_id": {_quote(post_id)}, "timestamp": "{when.isoformat()[:19]}Z"}}\n'
            )


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Persist a corpus as JSONL, one post per line, mentions explicit."""
    _write_corpus(corpus.posts, path)


@dataclass
class Ingested:
    """What :func:`ingest_posts` keeps of a post file once its corpus is written."""

    table: PostTable
    stats: CorpusStats
    skipped: int


def ingest_posts(source: str | Path, path: str | Path) -> Ingested:
    """Write the corpus of a JSONL post file to ``path``, one post as soon as it is checked.

    Lines are checked as :class:`CheckedPosts` checks them and posts are kept
    as :func:`build_corpus` keeps them; the file is what :func:`save_corpus`
    writes for that corpus. No post's content outlives its line: only the
    post ids, the counts and the ``(actor_id, timestamp, mentions)`` table
    are kept. A duplicate ``post_id`` is fatal and leaves ``path`` as it was.
    """
    checked = CheckedPosts(source)
    kept = _KeptPosts(checked)
    table: PostTable = []

    def tabled() -> Iterator[PostRecord]:
        for post in kept:
            table.append((post.actor_id, post.timestamp, post.mentions))
            yield post

    _write_corpus(tabled(), path)
    return Ingested(table=table, stats=kept.stats, skipped=checked.skipped)


def _corpus_posts(path: str | Path) -> Iterator[PostRecord]:
    """The posts of a corpus file, checked as :func:`ingest_posts` checks them; a
    malformed line raises ``ValidationError`` once the file is read."""
    checked = CheckedPosts(path)
    yield from checked
    if checked.skipped:
        raise ValidationError(f"{path}: {checked.skipped} malformed line(s)")


def load_post_table(path: str | Path) -> PostTable:
    """Read the post table of a corpus file line by line, never holding a post's content.

    Posts are kept as :func:`ingest_posts` keeps them; a malformed line raises
    ``ValidationError`` once the file is read.
    """
    return [(p.actor_id, p.timestamp, p.mentions) for p in _KeptPosts(_corpus_posts(path))]


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus persisted by :func:`save_corpus`."""
    return build_corpus(_corpus_posts(path))


def save_corpus_stats(stats: CorpusStats, path: str | Path) -> None:
    payload = {
        "posts": stats.n_posts,
        "actors": stats.n_actors,
        "forums": stats.n_forums,
        "distinct_cves": stats.n_cves,
    }
    write_json(path, payload)
