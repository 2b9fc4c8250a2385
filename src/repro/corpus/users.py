"""User-level simulation: who posts, how often, when, and at what risk.

Each synthetic author carries a latent risk process — a Markov chain over
the four severity levels whose stationary distribution equals the corpus
label mix (Table I) — plus temporal habits (night-owl tendency, mean
inter-post gap) that are *coupled to severity* so temporal features carry
signal, as the paper's XGBoost feature-importance analysis reports.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.core.schema import ALL_LEVELS, NUM_CLASSES, RiskLevel
from repro.corpus.models import UserProfile

#: Self-transition mass of the latent risk chain; the remainder is
#: redistributed according to the corpus label mix, which makes the mix the
#: chain's stationary distribution.
RISK_PERSISTENCE = 0.68


def risk_transition_matrix(label_mix: dict[RiskLevel, float]) -> np.ndarray:
    """Markov kernel ``P[i, j]`` with stationary distribution ``label_mix``.

    ``P = RISK_PERSISTENCE * I + (1 - RISK_PERSISTENCE) * 1·mixᵀ`` — a lazy
    chain that jumps to an independent draw from the mix. Any convex
    combination of the identity and a rank-one kernel with row ``mix`` has
    ``mix`` as its stationary distribution, while the identity part gives
    users *persistent* risk states so that histories look like slow
    evolutions rather than i.i.d. noise.
    """
    mix = np.array([label_mix[level] for level in ALL_LEVELS], dtype=float)
    mix = mix / mix.sum()
    kernel = RISK_PERSISTENCE * np.eye(NUM_CLASSES) + (1 - RISK_PERSISTENCE) * mix
    return kernel


def transition_cdf(kernel: np.ndarray) -> tuple[list[float], ...]:
    """Cumulative rows of ``kernel``, as ``Generator.choice`` builds them.

    ``rng.choice(k, p=row)`` draws one ``rng.random()`` ``u`` and returns
    ``cdf.searchsorted(u, side="right")`` with ``cdf = row.cumsum()``
    divided by its last entry; :func:`sample_trajectory` does the same
    lookup with :func:`bisect.bisect_right` on these lists, so the rows
    are computed once per kernel instead of once per step.
    """
    rows = []
    for row in np.ascontiguousarray(kernel, dtype=float):
        cdf = row.cumsum()
        cdf /= cdf[-1]
        rows.append(cdf.tolist())
    return tuple(rows)


def sample_posts_per_user(
    rng: np.random.Generator,
    num_users: int,
    target_total: int,
    max_posts: int = 200,
) -> np.ndarray:
    """Heavy-tailed posts-per-user counts summing ≈ ``target_total``.

    The paper's Fig. 1 shows most users with < 20 posts and a long tail of
    very active users. A discrete log-normal reproduces that shape; counts
    are then iteratively rescaled to land within one post per user of the
    requested total.
    """
    if num_users <= 0:
        raise ValueError("num_users must be positive")
    if target_total < num_users:
        raise ValueError("target_total must be >= num_users (min 1 post each)")
    raw = rng.lognormal(mean=1.6, sigma=1.05, size=num_users)
    counts = np.clip(np.round(raw), 1, max_posts).astype(int)
    # Multiplicative correction toward the target, then exact trim/pad.
    for _ in range(8):
        total = counts.sum()
        if total == target_total:
            break
        factor = target_total / total
        counts = np.clip(np.round(counts * factor), 1, max_posts).astype(int)
    delta = int(target_total - counts.sum())
    order = rng.permutation(num_users)
    idx = 0
    while delta != 0 and idx < 4 * num_users:
        user = order[idx % num_users]
        if delta > 0 and counts[user] < max_posts:
            counts[user] += 1
            delta -= 1
        elif delta < 0 and counts[user] > 1:
            counts[user] -= 1
            delta += 1
        idx += 1
    return counts


def sample_profiles(
    rng: np.random.Generator,
    num_users: int,
    target_total: int,
    label_mix: dict[RiskLevel, float],
    temporal_strength: float,
    author_prefix: str = "",
) -> list[UserProfile]:
    """Draw the full population of user profiles.

    Severity couples to temporal habits with strength ``temporal_strength``:
    higher-risk users skew toward night posting and shorter gaps between
    posts, which is the signal the paper's temporal features exploit.
    Authors are named ``f"{author_prefix}user_{i:05d}"``.
    """
    counts = sample_posts_per_user(rng, num_users, target_total)
    mix = np.array([label_mix[level] for level in ALL_LEVELS], dtype=float)
    mix = mix / mix.sum()
    base_levels = rng.choice(NUM_CLASSES, size=num_users, p=mix)
    # beta and lognormal draws alternate per user, so they stay scalar.
    beta, lognormal = rng.beta, rng.lognormal
    log_mean_gap = np.log(120.0)
    profiles = []
    for i, (state, count) in enumerate(zip(base_levels.tolist(), counts.tolist())):
        severity = state / (NUM_CLASSES - 1)  # 0..1
        night = min(
            max(beta(2, 5) + temporal_strength * 0.45 * severity, 0.0), 0.95
        )
        # Baseline ~5 days between posts; severe users post more often.
        gap_hours = lognormal(log_mean_gap, 0.5) * (
            1.0 - temporal_strength * 0.55 * severity
        )
        profiles.append(
            UserProfile(
                author=f"{author_prefix}user_{i:05d}",
                base_level=ALL_LEVELS[state],
                num_posts=count,
                night_owl=night,
                mean_gap_hours=max(2.0, gap_hours),
            )
        )
    return profiles


@dataclass
class RiskTrajectory:
    """Realisation of one user's latent risk chain across their posts."""

    levels: list[RiskLevel]

    @property
    def final(self) -> RiskLevel:
        return self.levels[-1]


def sample_trajectory(
    rng: np.random.Generator,
    profile: UserProfile,
    cdf: tuple[list[float], ...],
) -> RiskTrajectory:
    """Run the latent chain for ``profile.num_posts`` steps.

    The chain starts at the user's base level and evolves under the
    kernel whose :func:`transition_cdf` is ``cdf``; consecutive posts
    therefore tend to share a level, with occasional
    escalations/de-escalations — the "dynamic evolution of suicide risk"
    the dataset is designed to expose. Each step consumes one uniform,
    so all steps draw theirs in one ``rng.random(n - 1)`` call: the same
    stream as one ``rng.choice(NUM_CLASSES, p=kernel[state])`` per step.
    """
    state = int(profile.base_level)
    levels = [ALL_LEVELS[state]]
    if profile.num_posts > 1:
        for u in rng.random(profile.num_posts - 1).tolist():
            state = bisect_right(cdf[state], u)
            levels.append(ALL_LEVELS[state])
    return RiskTrajectory(levels=levels)


def sample_post_hours(
    rng: np.random.Generator, profile: UserProfile, n: int
) -> list[float]:
    """Hour-of-day for ``n`` posts, mixing a day peak and a night peak.

    With probability ``night_owl`` the post lands in a late-night window
    (23:00–04:00), otherwise in a daytime window centred mid-afternoon.
    Most users write one or two posts, so the arithmetic runs on Python
    floats (the same IEEE operations as numpy's, without its per-call
    cost on tiny arrays).
    """
    night = rng.random(n).tolist()
    day = rng.normal(15.0, 3.5, size=n).tolist()
    late = rng.exponential(2.0, size=n).tolist()
    owl = profile.night_owl
    return [
        (23.0 + e) % 24.0 if u < owl else min(max(d, 6.0), 22.0)
        for u, d, e in zip(night, day, late)
    ]


def sample_gaps_hours(
    rng: np.random.Generator,
    profile: UserProfile,
    trajectory: RiskTrajectory,
    temporal_strength: float,
) -> np.ndarray:
    """Inter-post gaps (hours); gaps shrink as the latent risk rises.

    Returns an array of length ``len(trajectory.levels) - 1``.
    """
    n = len(trajectory.levels) - 1
    if n <= 0:
        return np.zeros(0)
    severities = np.array([lvl / (NUM_CLASSES - 1) for lvl in trajectory.levels])
    shrink = 1.0 - temporal_strength * 0.6 * severities[1:]
    base = rng.lognormal(
        mean=np.log(profile.mean_gap_hours), sigma=0.8, size=n
    )
    return np.maximum(0.25, base * shrink)
