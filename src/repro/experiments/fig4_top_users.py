"""Figure 4 — risk level distribution for the 20 most active users.

Paper: a stacked per-user histogram of the four risk levels across each
top-20 user's posts, with user identifiers removed for privacy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.rng import DEFAULT_SEED
from repro.core.schema import ALL_LEVELS, RiskLevel
from repro.experiments.common import BENCH_SCALE, cached_build, format_table


@dataclass(frozen=True)
class UserRiskProfile:
    """Risk-level histogram of one (pseudonymous) user."""

    rank: int  # 1 = most active; identifiers removed as in the paper
    total_posts: int
    counts: dict[RiskLevel, int]

    def fraction(self, level: RiskLevel) -> float:
        return self.counts.get(level, 0) / max(1, self.total_posts)

    @property
    def dominant(self) -> RiskLevel:
        return max(ALL_LEVELS, key=lambda lv: (self.counts.get(lv, 0), int(lv)))


def run(
    scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED, k: int = 20
) -> list[UserRiskProfile]:
    dataset = cached_build(scale, seed).dataset
    histories = dataset.histories()
    profiles = []
    for rank, author in enumerate(dataset.most_active_users(k), start=1):
        posts = histories[author].posts
        counts = {level: 0 for level in ALL_LEVELS}
        for post in posts:
            counts[dataset.label_of(post)] += 1
        profiles.append(
            UserRiskProfile(rank=rank, total_posts=len(posts), counts=counts)
        )
    return profiles


def render(profiles: list[UserRiskProfile]) -> str:
    rows = []
    for p in profiles:
        rows.append(
            [
                f"user-{p.rank:02d}",
                p.total_posts,
                p.counts[RiskLevel.INDICATOR],
                p.counts[RiskLevel.IDEATION],
                p.counts[RiskLevel.BEHAVIOR],
                p.counts[RiskLevel.ATTEMPT],
                p.dominant.short,
            ]
        )
    return format_table(
        ["user (anon)", "posts", "IN", "ID", "BR", "AT", "dominant"], rows
    )


def main(scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED) -> None:
    print("Figure 4: Risk Level Distribution for Most Active Users (Top 20)")
    print(render(run(scale, seed)))
