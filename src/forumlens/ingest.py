"""Post ingestion: JSONL parsing, CVE extraction, and corpus assembly.

Input is one JSON object per line with keys ``post_id``, ``actor_id``,
``forum_id``, ``timestamp`` (ISO-8601 UTC) and ``content``. Malformed lines
are skipped and counted, never fatal. A corpus keeps only posts that mention
at least one CVE.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Iterable, Iterator

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


@dataclass(frozen=True)
class PostRecord:
    """One forum post.

    ``mentions`` is empty until the corpus-build step extracts CVE ids from
    ``content``, unless the record's source (a persisted corpus row, the
    synthetic generator) carries them explicitly.
    """

    post_id: str
    actor_id: str
    forum_id: str
    timestamp: datetime
    content: str
    mentions: frozenset[CveId] = frozenset()


@dataclass
class ParsedPosts:
    """Result of parsing a JSONL stream: valid records plus a skip counter."""

    records: list[PostRecord]
    skipped: int = 0


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp to a UTC instant at second resolution."""
    if not isinstance(value, str):
        raise ValidationError(f"timestamp must be a string, got {type(value).__name__}")
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(text)
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=timezone.utc)
        return ts.astimezone(timezone.utc).replace(microsecond=0)
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"unparseable timestamp: {value!r}") from exc


def _parse_record(
    line: str, cve_ids: dict[str, CveId], mention_sets: dict[tuple[str, ...], frozenset[CveId]]
) -> PostRecord:
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
    key = tuple(raw_mentions)
    mentions = mention_sets.get(key)
    if mentions is None:
        get, put = cve_ids.get, cve_ids.setdefault
        mentions = frozenset([get(c) or put(c, CveId.parse(c)) for c in raw_mentions])
        mention_sets[key] = mentions
    return PostRecord(
        post_id=obj["post_id"],
        actor_id=obj["actor_id"],
        forum_id=obj["forum_id"],
        timestamp=ts,
        content=obj["content"],
        mentions=mentions,
    )


def _iter_lines(source: str | Path | IO[str] | Iterable[str]) -> Iterator[str | bytes]:
    if isinstance(source, (str, Path)):
        # bytes: parse_posts decodes each line, so a bad byte costs one line
        with open(source, "rb") as handle:
            yield from handle
    else:
        yield from source


def parse_posts(source: str | Path | IO[str] | Iterable[str]) -> ParsedPosts:
    """Parse a JSONL post stream.

    Malformed lines (invalid UTF-8, bad or too deeply nested JSON, missing
    keys, unparseable or out-of-window timestamps) are logged and counted in
    ``skipped``. An unreadable source raises ``OSError``. Each distinct
    mention string is parsed once per call, and the posts naming it share
    that one ``CveId``; a string that fails to parse fails every line with it.
    Posts with equal ``mentions`` lists share one frozenset.
    """
    records: list[PostRecord] = []
    cve_ids: dict[str, CveId] = {}
    mention_sets: dict[tuple[str, ...], frozenset[CveId]] = {}
    skipped = 0
    for lineno, line in enumerate(_iter_lines(source), start=1):
        # ValueError covers ValidationError, JSONDecodeError and UnicodeDecodeError
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            if not line.strip():
                continue
            records.append(_parse_record(line, cve_ids, mention_sets))
        except (ValueError, RecursionError) as exc:
            skipped += 1
            logger.warning("skipping malformed line %d: %s", lineno, exc)
    return ParsedPosts(records=records, skipped=skipped)


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


def build_corpus(posts: Iterable[PostRecord]) -> Corpus:
    """Assemble a corpus: extract mentions, drop mention-less posts, count.

    Posts whose record already carries mentions are kept as they are;
    otherwise mentions are extracted from ``content`` into a copy. A
    duplicate ``post_id`` is fatal.
    """
    kept: list[PostRecord] = []
    seen_ids: set[str] = set()
    for post in posts:
        if post.post_id in seen_ids:
            raise ValidationError(f"duplicate post_id: {post.post_id!r}")
        seen_ids.add(post.post_id)
        if not post.mentions:
            mentions = extract_cve_ids(post.content)
            if not mentions:
                continue
            post = replace(post, mentions=frozenset(mentions))
        kept.append(post)

    actors: set[str] = set()
    forums: set[str] = set()
    cves: set[CveId] = set()
    for post in kept:
        actors.add(post.actor_id)
        forums.add(post.forum_id)
        cves.update(post.mentions)

    stats = CorpusStats(
        n_posts=len(kept),
        n_actors=len(actors),
        n_forums=len(forums),
        n_cves=len(cves),
    )
    return Corpus(posts=kept, stats=stats)


def _post_to_row(post: PostRecord, names: dict[CveId, str]) -> dict:
    return {
        "post_id": post.post_id,
        "actor_id": post.actor_id,
        "forum_id": post.forum_id,
        "timestamp": post.timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
        "content": post.content,
        "mentions": sorted([names.get(c) or names.setdefault(c, str(c)) for c in post.mentions]),
    }


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Persist a corpus as JSONL, one post per line, mentions explicit."""
    names: dict[CveId, str] = {}  # each distinct CVE is formatted once per call
    encode = json.JSONEncoder(sort_keys=True).encode  # what json.dumps(row, sort_keys=True) uses
    with replacing(path) as handle:
        for post in corpus.posts:
            handle.write(encode(_post_to_row(post, names)) + "\n")


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus persisted by :func:`save_corpus`."""
    parsed = parse_posts(path)
    if parsed.skipped:
        raise ValidationError(f"corpus file {path} has {parsed.skipped} malformed lines")
    return build_corpus(parsed.records)


def save_corpus_stats(corpus: Corpus, path: str | Path) -> None:
    payload = {
        "posts": corpus.stats.n_posts,
        "actors": corpus.stats.n_actors,
        "forums": corpus.stats.n_forums,
        "distinct_cves": corpus.stats.n_cves,
    }
    write_json(path, payload)
