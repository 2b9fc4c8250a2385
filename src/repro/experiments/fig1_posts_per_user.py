"""Figure 1 — distribution of posts per user.

Paper observation: "the majority of users have fewer than 20 historical
posts", with a long right tail of very active users.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.rng import DEFAULT_SEED
from repro.experiments.common import BENCH_SCALE, cached_build, format_table

#: Histogram bucket upper edges (posts per user).
BUCKET_EDGES = (1, 2, 5, 10, 20, 50, 100, np.inf)


@dataclass(frozen=True)
class Fig1Data:
    counts_per_user: np.ndarray
    bucket_labels: list[str]
    bucket_counts: list[int]

    @property
    def fraction_under_20(self) -> float:
        return float((self.counts_per_user < 20).mean())

    @property
    def mean_posts(self) -> float:
        return float(self.counts_per_user.mean())

    @property
    def median_posts(self) -> float:
        return float(np.median(self.counts_per_user))


def run(scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED) -> Fig1Data:
    dataset = cached_build(scale, seed).dataset
    counts = np.array(sorted(dataset.posts_per_user().values()))
    labels, bucketed = [], []
    lower = 0
    for edge in BUCKET_EDGES:
        if np.isinf(edge):
            labels.append(f">{lower}")
            bucketed.append(int((counts > lower).sum()))
        else:
            labels.append(f"{lower + 1}-{int(edge)}" if edge != lower + 1 else f"{int(edge)}")
            bucketed.append(int(((counts > lower) & (counts <= edge)).sum()))
            lower = int(edge)
    return Fig1Data(
        counts_per_user=counts, bucket_labels=labels, bucket_counts=bucketed
    )


def render(data: Fig1Data) -> str:
    peak = max(data.bucket_counts) or 1
    rows = []
    for label, count in zip(data.bucket_labels, data.bucket_counts):
        bar = "#" * max(1 if count else 0, round(40 * count / peak))
        rows.append([label, count, bar])
    table = format_table(["posts", "users", "histogram"], rows)
    summary = (
        f"users: {len(data.counts_per_user)}  mean: {data.mean_posts:.1f}  "
        f"median: {data.median_posts:.0f}  <20 posts: "
        f"{100 * data.fraction_under_20:.1f}%"
    )
    return f"{table}\n{summary}"


def main(scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED) -> None:
    data = run(scale, seed)
    print("Figure 1: Distribution of Posts per User")
    print(render(data))
