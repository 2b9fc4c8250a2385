"""Figures 2 & 3 — per-class word clouds.

Fig. 2 shows Indicator (n=4,615) and Ideation (n=7,133); Fig. 3 shows
Behavior (n=2,056) and Attempt (n=809). A word cloud is just a scaled
top-k term-frequency map, so the harness regenerates the underlying data:
stopword-filtered content-word frequencies per class.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.rng import DEFAULT_SEED
from repro.core.schema import ALL_LEVELS, RiskLevel
from repro.experiments.common import BENCH_SCALE, cached_build, format_table
from repro.text.tokenizer import content_words


@dataclass(frozen=True)
class WordCloud:
    """Top-k scaled term frequencies for one class."""

    level: RiskLevel
    support: int  # number of posts carrying the class
    weights: dict[str, float]  # term → weight in (0, 1]

    def top(self, k: int = 10) -> list[tuple[str, float]]:
        ranked = sorted(self.weights.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]


def run(
    scale: float = BENCH_SCALE,
    seed: int = DEFAULT_SEED,
    top_k: int = 60,
) -> dict[RiskLevel, WordCloud]:
    """Word-cloud data for all four classes."""
    dataset = cached_build(scale, seed).dataset
    counters: dict[RiskLevel, Counter] = {level: Counter() for level in ALL_LEVELS}
    supports: dict[RiskLevel, int] = {level: 0 for level in ALL_LEVELS}
    for post in dataset.posts:
        level = dataset.label_of(post)
        counters[level].update(content_words(post.text))
        supports[level] += 1
    clouds = {}
    for level in ALL_LEVELS:
        common = counters[level].most_common(top_k)
        peak = common[0][1] if common else 1
        clouds[level] = WordCloud(
            level=level,
            support=supports[level],
            weights={term: count / peak for term, count in common},
        )
    return clouds


def render(clouds: dict[RiskLevel, WordCloud], k: int = 12) -> str:
    blocks = []
    for level, fig in (
        (RiskLevel.INDICATOR, "Fig 2a"),
        (RiskLevel.IDEATION, "Fig 2b"),
        (RiskLevel.BEHAVIOR, "Fig 3a"),
        (RiskLevel.ATTEMPT, "Fig 3b"),
    ):
        cloud = clouds[level]
        rows = [[term, f"{weight:.2f}"] for term, weight in cloud.top(k)]
        blocks.append(
            f"{fig} — {level.label} word cloud (n={cloud.support})\n"
            + format_table(["term", "weight"], rows)
        )
    return "\n\n".join(blocks)


def main(scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED) -> None:
    print(render(run(scale, seed)))
