"""Per-actor expertise features and the filtered analysis sample.

Three features per actor: a skill score (nearest-rank percentile of the
1/2/3 skill codes attached to the CAPECs they post about), a commitment
percentage (share of their posts that sit mostly inside their own community
of interest), and an activity rate in posts per day over their posting
window. Actors whose post count falls below a minimum are dropped from the
clustering sample.
"""

from __future__ import annotations

import csv
import logging
import math
import sys
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Sequence

from . import DEFAULT_MIN_POSTS, DEFAULT_SKILL_PERCENTILE
from .catalog import CatalogSnapshot, effective_skill
from .errors import ValidationError
from .graph import ActorCapecs, ActorPosts, Partition
from .stats import describe
from .workspace import field, reading_csv, replacing

logger = logging.getLogger(__name__)

PROFILE_COLUMNS = (
    "actor_id",
    "community_id",
    "skill_score",
    "commitment_pct",
    "n_posts",
    "activity_days",
    "activity_rate",
    "one_timer",
)


@dataclass(frozen=True)
class ActorProfile:
    """One actor's expertise features.

    ``first_post``/``last_post`` are carried in memory only; the CSV artifact
    keeps the derived ``activity_days`` instead.
    """

    actor_id: str
    community_id: int
    skill_values: tuple[int, ...]
    skill_score: float
    n_posts: int
    n_in_interest: int
    commitment_pct: float
    first_post: datetime | None
    last_post: datetime | None
    activity_days: int
    activity_rate: float

    @property
    def one_timer(self) -> bool:
        return self.n_posts == 1

    def features(self) -> tuple[float, float, float]:
        return (self.skill_score, self.commitment_pct, self.activity_rate)


def skill_score(values: Sequence[int], percentile: int = DEFAULT_SKILL_PERCENTILE) -> int:
    """Nearest-rank percentile of a list of skill codes.

    Sort ascending and take the 1-based element at rank ceil(p/100 * n). At
    the default 70th percentile this returns 3 for any actor with strictly
    more than 30% threes.
    """
    if not values:
        raise ValidationError("skill_score requires a non-empty list of skill codes")
    if not 0 < percentile <= 100:
        raise ValidationError(f"percentile must be in (0, 100]: {percentile}")
    for v in values:
        if v not in (1, 2, 3):
            raise ValidationError(f"skill codes must be 1, 2 or 3: {v!r}")
    ranked = sorted(values)
    rank = math.ceil(percentile / 100.0 * len(ranked))
    return ranked[max(rank, 1) - 1]


def post_in_interest(post_capecs: frozenset[int] | set[int], coi_capecs: frozenset[int] | set[int]) -> bool:
    """True when at least half of the post's CAPECs lie in the community set."""
    if not post_capecs:
        raise ValidationError("post_in_interest requires a non-empty CAPEC set")
    return len(post_capecs & coi_capecs) / len(post_capecs) >= 0.5


def activity_days(first_post: datetime, last_post: datetime) -> int:
    if last_post < first_post:
        raise ValidationError("last post precedes first post")
    return max(1, (last_post - first_post).days)


def activity_rate(n_posts: int, first_post: datetime, last_post: datetime) -> float:
    """Posts per day over the posting window, window clamped to one day."""
    if n_posts < 1:
        raise ValidationError(f"activity_rate requires at least one post: {n_posts}")
    return n_posts / activity_days(first_post, last_post)


def build_profiles(
    posts: ActorPosts,
    adjacency: ActorCapecs,
    snapshot: CatalogSnapshot,
    partition: Partition,
    skill_percentile: int = DEFAULT_SKILL_PERCENTILE,
) -> list[ActorProfile]:
    """Score every actor of a resolved-post table from its posts, given its ``actor_capecs``.

    Skill values are collected once per (post, CAPEC) occurrence. Actors
    whose CAPECs all lack catalog skill information cannot be scored; they
    are dropped, and one warning gives their count and the first few ids.
    """
    members = partition.members(adjacency)
    community_of = {a: comm for comm, (actors, _) in members.items() for a in actors}

    profiles, dropped = [], []
    for actor in sorted(posts):
        actor_posts = sorted(posts[actor], key=lambda item: item[0])
        comm = community_of[actor]

        values = []
        for _, capecs in actor_posts:
            for capec in sorted(capecs):
                skill = effective_skill(snapshot, capec)
                if skill is not None:
                    values.append(int(skill))
        if not values:
            dropped.append(actor)
            continue

        interest = members[comm][1]
        n_posts = len(actor_posts)
        n_in = sum(1 for _, capecs in actor_posts if post_in_interest(capecs, interest))
        first, last = actor_posts[0][0], actor_posts[-1][0]
        profiles.append(
            ActorProfile(
                actor_id=actor,
                community_id=comm,
                skill_values=tuple(values),
                skill_score=float(skill_score(values, skill_percentile)),
                n_posts=n_posts,
                n_in_interest=n_in,
                commitment_pct=100.0 * n_in / n_posts,
                first_post=first,
                last_post=last,
                activity_days=activity_days(first, last),
                activity_rate=activity_rate(n_posts, first, last),
            )
        )
    if dropped:
        logger.warning(
            "dropped %d actor(s) with no skill information for any CAPEC (first: %s)",
            len(dropped), ", ".join(dropped[:5]),
        )
    return profiles


def build_sample(
    profiles: Sequence[ActorProfile], min_posts: int = DEFAULT_MIN_POSTS
) -> list[ActorProfile]:
    """Keep actors with at least ``min_posts`` posts; order preserved."""
    if min_posts < 1:
        raise ValidationError(f"min_posts must be >= 1: {min_posts}")
    return [p for p in profiles if p.n_posts >= min_posts]


def sample_stats(profiles: Sequence[ActorProfile]) -> dict:
    """Descriptive statistics of the sample, one block per feature."""
    return {
        "n_actors": len(profiles),
        "n_posts": describe(p.n_posts for p in profiles),
        "skill_values_len": describe(len(p.skill_values) for p in profiles),
        "skill_score": describe(p.skill_score for p in profiles),
        "commitment_pct": describe(p.commitment_pct for p in profiles),
        "activity_days": describe(p.activity_days for p in profiles),
        "activity_rate": describe(p.activity_rate for p in profiles),
    }


def save_profiles(profiles: Sequence[ActorProfile], path: str | Path) -> Path:
    path = Path(path)
    with replacing(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(PROFILE_COLUMNS)
        for p in profiles:
            writer.writerow(
                [
                    p.actor_id,
                    p.community_id,
                    repr(p.skill_score),
                    repr(p.commitment_pct),
                    p.n_posts,
                    p.activity_days,
                    repr(p.activity_rate),
                    "true" if p.one_timer else "false",
                ]
            )
    return path


def _profile(row: dict[str, str]) -> ActorProfile:
    """A row as :func:`save_profiles` writes it; any other value raises ``ValueError``."""
    n_posts, days = int(row["n_posts"]), int(row["activity_days"])
    skill, commitment, rate = (
        float(row[c]) for c in ("skill_score", "commitment_pct", "activity_rate")
    )
    if n_posts < 1 or days < 1:
        raise ValueError(f"n_posts and activity_days must be >= 1: {n_posts}, {days}")
    if n_posts > sys.float_info.max:
        raise ValueError(f"n_posts has {len(str(n_posts))} digits, too many for a float")
    if not 1 <= skill <= 3 or not 0 <= commitment <= 100:
        raise ValueError(
            "skill_score must be in [1, 3] and commitment_pct in [0, 100]: "
            f"{skill!r}, {commitment!r}"
        )
    # a rate is n_posts / activity_days, so at most float(n_posts)
    if not 0 < rate <= float(n_posts):
        raise ValueError(f"activity_rate must be in (0, n_posts]: {rate!r}, {n_posts}")
    return ActorProfile(
        actor_id=row["actor_id"],
        community_id=int(row["community_id"]),
        skill_values=(),
        skill_score=skill,
        n_posts=n_posts,
        n_in_interest=round(commitment * n_posts / 100.0),
        commitment_pct=commitment,
        first_post=None,
        last_post=None,
        activity_days=days,
        activity_rate=rate,
    )


def load_profiles(path: str | Path) -> list[ActorProfile]:
    """Read a profiles CSV back; skill value lists and timestamps are not stored.

    A row holding a value :func:`save_profiles` never writes (no number, a
    skill outside [1, 3], a commitment outside [0, 100], a rate outside
    (0, n_posts], a post count too large for a float, or fewer than 1 post or
    activity day) or an ``actor_id`` an earlier row holds raises
    ``ValidationError`` naming the file and the line.
    """
    path = Path(path)
    with reading_csv(path) as reader:
        if reader.fieldnames is None or tuple(reader.fieldnames) != PROFILE_COLUMNS:
            raise ValidationError(f"unexpected profile columns in {path}: {reader.fieldnames}")
        first_line: dict[str, int] = {}

        def profile(row: dict[str, str]) -> ActorProfile:
            checked = _profile(row)
            line = first_line.setdefault(checked.actor_id, reader.line_num)
            if line != reader.line_num:
                raise ValueError(f"actor_id {checked.actor_id!r} repeats line {line}")
            return checked

        return [field(path, f"line {reader.line_num}", lambda: profile(row)) for row in reader]
