"""Synthetic RSD-15K corpus builder.

Populates the simulated Reddit with a crawl-sized pool of submissions
(annotated users + background users + off-topic noise + duplicates) and
then replays the paper's collection step: crawl ``r/SuicideWatch`` over
01/2020–12/2021 and select the annotated user slice.

The output is deliberately *dirty* — duplicated posts, URLs, zero-width
characters, hashtag spam, off-topic submissions — so the pre-processing
stage (§II-A2) has real work to do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import timedelta
from itertools import accumulate

import numpy as np

from repro import perf
from repro.core.config import CorpusConfig
from repro.core.rng import SeedSequenceRegistry
from repro.corpus.lexicon import SentenceSampler
from repro.corpus.models import RedditPost, UserProfile, utc_from_timestamp
from repro.corpus.reddit import RedditSimulator, crawl
from repro.corpus.users import (
    RiskTrajectory,
    risk_transition_matrix,
    sample_gaps_hours,
    sample_post_hours,
    sample_profiles,
    sample_trajectory,
    transition_cdf,
)

SUBREDDIT = "SuicideWatch"

#: Fractions of injected dirt in the raw pool.
DUPLICATE_RATE = 0.02
NOISE_RATE = 0.12
OFFTOPIC_RATE = 0.03

_US_PER_HOUR = 3_600_000_000
_US_PER_MINUTE = 60_000_000
_SECONDS_PER_DAY = 86_400


def place_in_day(timestamp: float, hour: float, minute: int) -> float:
    """POSIX time at ``hour`` + ``minute`` past the UTC midnight of
    ``timestamp``.

    Equal, bit for bit, to ``(utc_from_timestamp(timestamp).replace(
    hour=0, minute=0, second=0, microsecond=0) + timedelta(hours=hour,
    minutes=minute)).timestamp()`` without building the three objects:
    ``datetime`` works in integer microseconds, so each of its roundings
    is repeated here. ``fromtimestamp`` rounds the fraction of a second
    half-even to the microsecond (which can carry into the next second)
    before the day is taken; ``timedelta(hours=hour)`` rounds the
    fraction of ``hour`` half-even to the microsecond; ``timestamp()``
    divides the microseconds since the epoch by 10**6. ``round`` rounds
    half-even.
    """
    seconds = math.floor(timestamp)
    if round((timestamp - seconds) * 1e6) >= 1_000_000:
        seconds += 1
    whole_hours = math.floor(hour)
    micros = (
        (seconds - seconds % _SECONDS_PER_DAY) * 1_000_000
        + whole_hours * _US_PER_HOUR
        + round((hour - whole_hours) * float(_US_PER_HOUR))
        + minute * _US_PER_MINUTE
    )
    return micros / 1_000_000


@dataclass
class SyntheticCorpus:
    """Everything the generator produced, before pre-processing.

    Attributes
    ----------
    reddit:
        The populated simulator (kept so examples can re-crawl).
    raw_posts:
        Chronological crawl output (annotated users + background + dirt).
    annotated_authors:
        The authors whose posts form the annotated slice.
    profiles:
        Simulation profiles for the annotated authors.
    config:
        The configuration the corpus was generated under.
    """

    reddit: RedditSimulator
    raw_posts: list[RedditPost]
    annotated_authors: set[str]
    profiles: dict[str, UserProfile] = field(default_factory=dict)
    config: CorpusConfig = field(default_factory=CorpusConfig)

    @property
    def annotated_posts(self) -> list[RedditPost]:
        """Raw posts belonging to annotated authors (still dirty)."""
        return [p for p in self.raw_posts if p.author in self.annotated_authors]

    @property
    def background_posts(self) -> list[RedditPost]:
        """Unannotated crawl pool (used for language-model pretraining)."""
        return [
            p for p in self.raw_posts if p.author not in self.annotated_authors
        ]


class CorpusGenerator:
    """Builds a :class:`SyntheticCorpus` from a :class:`CorpusConfig`."""

    def __init__(self, config: CorpusConfig | None = None) -> None:
        self.config = config or CorpusConfig()
        self._registry = SeedSequenceRegistry(self.config.seed)
        self._cdf = transition_cdf(risk_transition_matrix(self.config.label_mix))
        self._start_ts = self.config.start.timestamp()
        self._end_ts = self.config.end.timestamp()
        self._window_s = (self.config.end - self.config.start).total_seconds()

    # -- timeline ----------------------------------------------------------

    def _place_timeline(
        self,
        rng: np.random.Generator,
        profile: UserProfile,
        trajectory: RiskTrajectory,
        temporal_strength: float,
    ) -> list[float]:
        """POSIX timestamps for one user's posts inside the crawl window."""
        gaps = sample_gaps_hours(rng, profile, trajectory, temporal_strength)
        span_seconds = float(gaps.sum()) * 3600.0
        window = self._window_s
        if span_seconds >= window * 0.95:
            gaps = gaps * (window * 0.95 / max(span_seconds, 1.0) / 3600.0) * 3600.0
            span_seconds = float(gaps.sum()) * 3600.0
        slack = max(0.0, window - span_seconds)
        start = self._start_ts + rng.random() * slack
        offsets = [0.0] + [c * 3600.0 for c in accumulate(gaps.tolist())]
        hours = sample_post_hours(rng, profile, len(offsets))
        first, last, integers = self._start_ts, self._end_ts, rng.integers
        timestamps = []
        for off, hour in zip(offsets, hours):
            placed = place_in_day(start + off, hour, int(integers(60)))
            timestamps.append(min(last, max(first, placed)))
        timestamps.sort()
        # Enforce strictly increasing times so ordering is unambiguous.
        for i in range(1, len(timestamps)):
            if timestamps[i] <= timestamps[i - 1]:
                timestamps[i] = timestamps[i - 1] + 60.0
        return timestamps

    # -- posts -------------------------------------------------------------

    def _emit_user_posts(
        self,
        reddit: RedditSimulator,
        rng: np.random.Generator,
        sampler: SentenceSampler,
        profile: UserProfile,
    ) -> None:
        trajectory = sample_trajectory(rng, profile, self._cdf)
        timestamps = self._place_timeline(
            rng, profile, trajectory, self.config.temporal_strength
        )
        integers, body, title = rng.integers, sampler.body, sampler.title
        for level, ts in zip(trajectory.levels, timestamps):
            body_text = body(level, int(integers(2, 7)))
            title_text = title(level)
            reddit.submit(
                RedditPost(
                    post_id=reddit.next_post_id(),
                    author=profile.author,
                    subreddit=SUBREDDIT,
                    title=title_text,
                    body=body_text,
                    created_utc=utc_from_timestamp(ts),
                    oracle_label=level,
                )
            )

    def _emit_dirt(
        self,
        reddit: RedditSimulator,
        rng: np.random.Generator,
        sampler: SentenceSampler,
        clean_posts: list[RedditPost],
    ) -> None:
        """Inject duplicates, noise-polluted copies, and off-topic posts."""
        n = len(clean_posts)
        # Exact duplicates (same author, text reposted minutes later).
        for post in rng.choice(n, size=int(n * DUPLICATE_RATE), replace=False):
            src = clean_posts[int(post)]
            reddit.submit(
                RedditPost(
                    post_id=reddit.next_post_id(),
                    author=src.author,
                    subreddit=SUBREDDIT,
                    title=src.title,
                    body=src.body,
                    created_utc=src.created_utc + timedelta(minutes=7),
                    oracle_label=src.oracle_label,
                )
            )
        # Off-topic submissions from background accounts.
        # The dirt stream draws only the times (the text comes from the
        # sampler's stream), so all of them are one call.
        num_offtopic = int(n * OFFTOPIC_RATE)
        stamps = self._start_ts + rng.random(num_offtopic) * self._window_s
        for i, ts in enumerate(stamps.tolist()):
            reddit.submit(
                RedditPost(
                    post_id=reddit.next_post_id(),
                    author=f"offtopic_{i:05d}",
                    subreddit=SUBREDDIT,
                    title="[OT] " + sampler.offtopic(),
                    body=sampler.offtopic(),
                    created_utc=utc_from_timestamp(ts),
                    oracle_label=None,
                )
            )

    def _pollute_bodies(
        self, rng: np.random.Generator, sampler: SentenceSampler, reddit: RedditSimulator
    ) -> None:
        """Append noise fragments to a fraction of submissions in place."""
        posts = reddit.subreddit(SUBREDDIT).posts
        for i, u in enumerate(rng.random(len(posts)).tolist()):
            if u < NOISE_RATE:
                posts[i] = posts[i].with_body(posts[i].body + sampler.noise())

    # -- public API ---------------------------------------------------------

    def generate(self) -> SyntheticCorpus:
        """Build the populated simulator and replay the paper's crawl."""
        cfg = self.config
        reddit = RedditSimulator()
        reddit.create_subreddit(SUBREDDIT)

        with perf.span("corpus.profiles"):
            annotated = sample_profiles(
                self._registry.get("profiles"),
                cfg.num_users,
                cfg.target_posts,
                cfg.label_mix,
                cfg.temporal_strength,
            )
            # Background (unannotated) pool — same generative process,
            # separate author namespace, sized to the remaining crawl volume.
            bg_posts = max(0, cfg.raw_pool_posts - cfg.target_posts)
            bg_users = max(1, cfg.raw_pool_users - cfg.num_users)
            bg_users = min(bg_users, max(1, bg_posts))  # at least 1 post each
            background = sample_profiles(
                self._registry.get("background-profiles"),
                bg_users,
                max(bg_users, bg_posts),
                cfg.label_mix,
                cfg.temporal_strength,
                author_prefix="bg_",
            )

        with perf.span("corpus.emission"):
            sampler = SentenceSampler(
                self._registry.get("text"),
                cfg.lexical_strength,
                hard_fraction=cfg.hard_fraction,
                ambiguity_noise=cfg.ambiguity_noise,
            )
            emit_rng = self._registry.get("emission")
            for profile in annotated + background:
                self._emit_user_posts(reddit, emit_rng, sampler, profile)

        with perf.span("corpus.dirt"):
            clean = list(reddit.subreddit(SUBREDDIT).posts)
            dirt_rng = self._registry.get("dirt")
            self._emit_dirt(reddit, dirt_rng, sampler, clean)
            self._pollute_bodies(dirt_rng, sampler, reddit)
            sampler.close()

        with perf.span("corpus.crawl"):
            raw = crawl(reddit, SUBREDDIT, cfg.start, cfg.end)
        return SyntheticCorpus(
            reddit=reddit,
            raw_posts=raw,
            annotated_authors={p.author for p in annotated},
            profiles={p.author: p for p in annotated},
            config=cfg,
        )
