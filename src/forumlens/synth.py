"""Synthetic corpus generator with planted communities and actor archetypes.

Every community owns a block of CAPECs whose skill levels cycle Low, Medium,
High; each synthetic CVE maps (through one CWE) to exactly one CAPEC, so the
planted CAPEC-to-community assignment is exact. Actors post mostly inside
their home community: an in-interest post references two home CAPECs (plus,
with probability ``noise``, one foreign CAPEC, which leaves it majority-home),
an out-of-interest post references one home and two foreign CAPECs. Out-post
foreign picks reuse a small per-actor foreign set so the unweighted graph
keeps every actor's distinct-CAPEC plurality at home, while ``noise`` injects
fresh random cross-links that genuinely blur community recovery as it grows.

All CAPEC picks, home or foreign, are drawn from the actor archetype's
weighted skill pool, so the dominant level decides the 70th-percentile skill
score; commitment is Binomial in the archetype's target; activity spans are
drawn per actor from the archetype's range.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Mapping, Sequence

from .catalog import (
    CapecEntry, CatalogSnapshot, CveEntry, SkillLevel, build_snapshot, normalize_cwe, save_snapshot
)
from .errors import ValidationError
from .graph import Partition, node_table
from .ingest import Corpus, CveId, PostRecord, build_corpus, save_corpus
from .workspace import field, read_json_object, write_json

SYNTH_CVE_YEAR = 1900  # reserved year: synthetic ids can never collide with real CVEs
CVES_PER_CAPEC = 3
BASE_DATE = datetime(2021, 1, 1, tzinfo=timezone.utc)  # earliest possible first post

_COMMUNITY_THEMES = (
    "injection",
    "overflow",
    "phishing",
    "scanning",
    "hijacking",
    "spoofing",
    "bruteforce",
    "tampering",
)


@dataclass(frozen=True)
class Archetype:
    """A planted actor profile: skill pool, commitment target, posting habits.

    ``skill_pool`` is a weighted multiset of levels: a level appearing k times
    makes that level's CAPECs k times as likely per draw. Pools of different
    archetypes must overlap on some level, otherwise a planted community would
    fall apart into disconnected per-level blocks.
    """

    name: str
    fraction: float
    skill_pool: tuple[SkillLevel, ...]
    commitment: float
    posts_range: tuple[int, int]
    span_days_range: tuple[int, int]


_H, _M, _L = SkillLevel.HIGH, SkillLevel.MEDIUM, SkillLevel.LOW

DEFAULT_ARCHETYPES = (
    Archetype("Professional", 0.25, (_H, _H, _H, _H, _M), 0.9, (8, 16), (20, 60)),
    Archetype("ProAmateur", 0.25, (_H, _H, _H, _H, _M), 0.2, (10, 20), (5, 15)),
    Archetype("AverageCareerCriminal", 0.25, (_M, _M, _M, _M, _L), 0.85, (8, 16), (30, 90)),
    Archetype("Amateur", 0.25, (_L, _L, _L, _L, _M), 0.2, (5, 10), (30, 90)),
)


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_communities: int = 4
    capecs_per_community: int = 10
    actors_per_community: int = 25
    noise: float = 0.05
    archetypes: tuple[Archetype, ...] = DEFAULT_ARCHETYPES

    def validate(self) -> None:
        if self.seed < 0:  # random.Random seeds with abs(seed): -3 would give seed 3's data
            raise ValidationError(f"seed must be >= 0: {self.seed}")
        if self.n_communities < 2:
            raise ValidationError(f"need at least 2 communities: {self.n_communities}")
        if self.n_communities > 100:  # actor a{community:02d}{index:03d} ids stay distinct
            raise ValidationError(f"at most 100 communities: {self.n_communities}")
        if self.capecs_per_community < 6:
            raise ValidationError(
                "need at least 6 CAPECs per community (2 per skill level): "
                f"{self.capecs_per_community}"
            )
        if self.capecs_per_community > 1000:  # CAPEC ids are (community + 1) * 1000 + j
            raise ValidationError(f"at most 1000 CAPECs per community: {self.capecs_per_community}")
        if self.actors_per_community < 1:
            raise ValidationError(f"need at least 1 actor per community: {self.actors_per_community}")
        if not 0.0 <= self.noise < 0.5:
            raise ValidationError(f"noise must be in [0, 0.5): {self.noise}")
        if not self.archetypes:
            raise ValidationError("archetype mix is empty")
        if abs(sum(a.fraction for a in self.archetypes) - 1.0) > 1e-9:
            raise ValidationError("archetype fractions must sum to 1")
        for arch in self.archetypes:
            if not arch.skill_pool:
                raise ValidationError(f"archetype {arch.name!r} has an empty skill pool")
            if not 0.0 <= arch.commitment <= 1.0:
                raise ValidationError(f"archetype {arch.name!r} commitment outside [0, 1]")
            lo, hi = arch.posts_range
            if not 1 <= lo <= hi:
                raise ValidationError(f"archetype {arch.name!r} has an invalid posts range")
            lo, hi = arch.span_days_range
            if not 0 <= lo <= hi:
                raise ValidationError(f"archetype {arch.name!r} has an invalid span range")


@dataclass(frozen=True)
class GroundTruth:
    actor_community: dict[str, int]
    actor_archetype: dict[str, str]
    capec_community: dict[int, int]

    def as_dict(self) -> dict:
        return {
            "actor_community": dict(sorted(self.actor_community.items())),
            "actor_archetype": dict(sorted(self.actor_archetype.items())),
            "capec_community": {str(c): comm for c, comm in sorted(self.capec_community.items())},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "GroundTruth":
        return cls(
            actor_community={str(a): int(c) for a, c in data["actor_community"].items()},
            actor_archetype={str(a): str(n) for a, n in data["actor_archetype"].items()},
            capec_community={int(c): int(comm) for c, comm in data["capec_community"].items()},
        )


def _capec_id(community: int, j: int) -> int:
    return (community + 1) * 1000 + j


def _capec_skill(j: int) -> SkillLevel:
    return (SkillLevel.LOW, SkillLevel.MEDIUM, SkillLevel.HIGH)[j % 3]


def _build_catalog(config: SynthConfig) -> tuple[CatalogSnapshot, dict[int, int], dict[int, list[CveId]]]:
    cves: list[CveEntry] = []
    capecs: list[CapecEntry] = []
    capec_community: dict[int, int] = {}
    capec_cves: dict[int, list[CveId]] = {}
    for comm in range(config.n_communities):
        theme = _COMMUNITY_THEMES[comm % len(_COMMUNITY_THEMES)]
        for j in range(config.capecs_per_community):
            capec = _capec_id(comm, j)
            cwe = normalize_cwe(50000 + capec)
            capecs.append(
                CapecEntry(
                    capec_id=capec,
                    name=f"{theme.title()} Technique Variant {j}",
                    related_cwes=frozenset([cwe]),
                    parent_ids=frozenset(),
                    child_ids=frozenset(),
                    skill_scenarios=(_capec_skill(j),),
                )
            )
            capec_community[capec] = comm
            ids = [CveId(SYNTH_CVE_YEAR, capec * 10 + i) for i in range(CVES_PER_CAPEC)]
            capec_cves[capec] = ids
            cves.extend(CveEntry(cve_id=c, cwe_ids=frozenset([cwe])) for c in ids)
    return build_snapshot(cves, capecs), capec_community, capec_cves


def _archetype_counts(archetypes: Sequence[Archetype], n: int) -> list[int]:
    # largest-remainder allocation, ties toward the earlier archetype
    exact = [a.fraction * n for a in archetypes]
    counts = [int(x) for x in exact]
    order = sorted(range(len(archetypes)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in range(n - sum(counts)):
        counts[order[i % len(order)]] += 1
    return counts


class _CapecCycle:
    """Deterministic pick-without-immediate-repeat cycle over a capec pool."""

    def __init__(self, pool: Sequence[int], rng: random.Random):
        self._pool = list(pool)
        self._rng = rng
        self._queue: list[int] = []

    def take(self, count: int) -> list[int]:
        picks: list[int] = []
        while len(picks) < count:
            if not self._queue:
                self._queue = list(self._pool)
                self._rng.shuffle(self._queue)
            candidate = self._queue.pop()
            if candidate in picks:
                continue
            picks.append(candidate)
        return picks


def generate(config: SynthConfig) -> tuple[Corpus, CatalogSnapshot, GroundTruth]:
    """Deterministic synthetic corpus, catalog, and ground truth for one seed."""
    config.validate()
    rng = random.Random(config.seed)
    snapshot, capec_community, capec_cves = _build_catalog(config)

    by_level: dict[int, dict[SkillLevel, list[int]]] = {}
    for comm in range(config.n_communities):
        pools: dict[SkillLevel, list[int]] = {level: [] for level in SkillLevel}
        for j in range(config.capecs_per_community):
            pools[_capec_skill(j)].append(_capec_id(comm, j))
        by_level[comm] = pools

    actor_community: dict[str, int] = {}
    actor_archetype: dict[str, str] = {}
    posts: list[PostRecord] = []
    mention_sets: dict[frozenset[CveId], frozenset[CveId]] = {}  # posts with equal sets share one
    serial = 0

    counts = _archetype_counts(config.archetypes, config.actors_per_community)
    roster = [arch for arch, c in zip(config.archetypes, counts) for _ in range(c)]
    for comm in range(config.n_communities):
        for idx, arch in enumerate(roster):
            actor = f"a{comm:02d}{idx:03d}"
            actor_community[actor] = comm
            actor_archetype[actor] = arch.name

            home_pool = [c for level in arch.skill_pool for c in by_level[comm][level]]
            foreign_pool = [
                c
                for other in range(config.n_communities)
                if other != comm
                for level in arch.skill_pool
                for c in by_level[other][level]
            ]
            home = _CapecCycle(home_pool, rng)
            foreign_distinct = sorted(set(foreign_pool))
            fixed_foreign = rng.sample(foreign_distinct, min(2, len(foreign_distinct)))

            n_posts = rng.randint(*arch.posts_range)
            span = rng.randint(*arch.span_days_range)
            start = BASE_DATE + timedelta(
                days=rng.randint(0, 300), seconds=rng.randint(0, 86399)
            )
            if n_posts == 1:
                offsets = [0]
            elif span == 0:
                offsets = [0] * n_posts
            else:
                middle = sorted(rng.randint(1, span * 86400 - 1) for _ in range(n_posts - 2))
                offsets = [0, *middle, span * 86400]

            for offset in offsets:
                if rng.random() < arch.commitment:
                    capec_picks = home.take(2)
                    if rng.random() < config.noise:
                        capec_picks.append(rng.choice(foreign_pool))
                else:
                    capec_picks = home.take(1) + list(fixed_foreign)
                mentions = [rng.choice(capec_cves[c]) for c in capec_picks]
                content = "discussing " + " and ".join(map(str, mentions)) + " exploitation notes"
                mention_set = frozenset(mentions)
                posts.append(
                    PostRecord(
                        post_id=f"p{serial:06d}",
                        actor_id=actor,
                        forum_id=f"f{comm}",
                        timestamp=start + timedelta(seconds=offset),
                        content=content,
                        mentions=mention_sets.setdefault(mention_set, mention_set),
                    )
                )
                serial += 1

    truth = GroundTruth(
        actor_community=actor_community,
        actor_archetype=actor_archetype,
        capec_community=capec_community,
    )
    return build_corpus(posts), snapshot, truth


def write_synth(
    out_dir: str | Path, corpus: Corpus, snapshot: CatalogSnapshot, truth: GroundTruth
) -> dict[str, Path]:
    """Write posts.jsonl, the catalog snapshot pair, and truth.json."""
    out = Path(out_dir)
    posts_path = out / "posts.jsonl"
    save_corpus(corpus, posts_path)
    cve_path, capec_path = save_snapshot(snapshot, out)
    truth_path = write_json(out / "truth.json", truth.as_dict())
    return {
        "posts": posts_path,
        "cve_cwe": cve_path,
        "capec": capec_path,
        "truth": truth_path,
    }


def load_truth(path: str | Path) -> GroundTruth:
    """Read ``truth.json``; a missing key or a wrong type is refused naming the file."""
    data = read_json_object(path)
    return field(path, None, lambda: GroundTruth.from_dict(data))


def community_agreement(partition: Partition, truth: GroundTruth) -> float:
    """Fraction of planted actors whose recovered community maps to their planted one.

    Each recovered community is matched to the planted community it overlaps
    most (ties toward the lower planted id); actors missing from the recovered
    partition count as disagreements.
    """
    if not truth.actor_community:
        raise ValidationError("ground truth contains no actors")
    overlap: dict[int, dict[int, int]] = {}
    recovered: dict[str, int] = {}
    for key, _, actor in node_table(truth.actor_community, ()):
        comm, planted = partition.assignment.get(key), truth.actor_community[actor]
        if comm is None:
            continue
        recovered[actor] = comm
        overlap.setdefault(comm, {}).setdefault(planted, 0)
        overlap[comm][planted] += 1
    matched = {}
    for comm, counts in overlap.items():
        best = max(counts.values())
        matched[comm] = min(p for p, c in counts.items() if c == best)
    agree = sum(
        1
        for actor, planted in truth.actor_community.items()
        if actor in recovered and matched[recovered[actor]] == planted
    )
    return agree / len(truth.actor_community)
