"""Table II — comparison with existing suicide-risk datasets.

The paper's comparison axes: source platform, size (posts/users), risk
level granularity, fully-manual annotation, and public availability. The
eight external rows are static metadata transcribed from the paper; the
"Ours" row is *computed* from the rebuilt dataset so the reproduction
keeps the claimed properties checkable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.rng import DEFAULT_SEED
from repro.experiments.common import BENCH_SCALE, cached_build, format_table


@dataclass(frozen=True)
class DatasetEntry:
    """One row of Table II."""

    name: str
    source: str
    num_posts: int | None  # None = not published ("- Posts")
    num_users: int | None
    risk_level: str  # "Post", "User", or "Post, User"
    fine_grained: bool
    fully_manual: bool
    available: bool


#: The eight comparison rows, as published (paper references [12]-[18], [3]).
EXTERNAL_DATASETS: tuple[DatasetEntry, ...] = (
    DatasetEntry(
        "Suicide and Depression Detection (Kaggle)", "Reddit",
        236_258, None, "Post", False, False, True,
    ),
    DatasetEntry(
        "Suicidal Ideation Detection in Online User Content",
        "Reddit, Twitter", 17_386, None, "Post", False, False, False,
    ),
    DatasetEntry(
        "Latent Suicide Risk Detection on Microblog",
        "Tree Hole, Weibo", 744_031, 7_329, "User", False, True, False,
    ),
    DatasetEntry(
        "Suicidal Ideation in Twitter", "Twitter",
        34_306, 32_558, "Post", False, True, False,
    ),
    DatasetEntry(
        "Suicide Risk via Online Postings", "Reddit",
        None, 934, "User", True, False, True,
    ),
    DatasetEntry(
        "CLPsych2019", "Reddit", None, 621, "User", True, False, True,
    ),
    DatasetEntry(
        "Knowledge-aware Assessment of Suicide Risk", "Reddit",
        15_755, 500, "User", True, True, False,
    ),
    DatasetEntry(
        "Suicide risk level and trigger detection", "Reddit",
        3_998, 500, "Post, User", True, True, True,
    ),
)

#: Properties the paper claims for RSD-15K (checked against the rebuild).
OURS_CLAIMS = DatasetEntry(
    "Ours (RSD-15K)", "Reddit", 14_613, 1_265, "Post, User", True, True, True
)


def ours_row(scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED) -> DatasetEntry:
    """The "Ours" row computed from the rebuilt dataset."""
    dataset = cached_build(scale, seed).dataset
    return DatasetEntry(
        name="Ours (RSD-15K, rebuilt)",
        source="Reddit (simulated)",
        num_posts=dataset.num_posts,
        num_users=dataset.num_users,
        risk_level="Post, User",
        fine_grained=True,   # four C-SSRS-derived levels
        fully_manual=True,   # every post passed the simulated campaign
        available=True,
    )


def advantage_checks(entry: DatasetEntry) -> dict[str, bool]:
    """The four §II-C2 advantage claims, evaluated for one row."""
    both_levels = entry.risk_level == "Post, User"
    larger_than_prior_user_level = (entry.num_users or 0) > 500
    return {
        "post_and_user_level": both_levels,
        "larger_than_prior_fine_grained": larger_than_prior_user_level,
        "fine_grained": entry.fine_grained,
        "fully_manual_and_available": entry.fully_manual and entry.available,
    }


def run(scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED) -> list[DatasetEntry]:
    """All Table II rows, the last one computed from the rebuild."""
    return [*EXTERNAL_DATASETS, ours_row(scale, seed)]


def render(rows: list[DatasetEntry]) -> str:
    def num(value) -> str:
        return "-" if value is None else f"{value:,}"

    def mark(flag: bool) -> str:
        return "yes" if flag else "no"

    return format_table(
        ["Dataset", "Source", "Posts", "Users", "Risk Level", "Fine", "Manual", "Avail"],
        [
            [e.name[:44], e.source, num(e.num_posts), num(e.num_users),
             e.risk_level, mark(e.fine_grained), mark(e.fully_manual),
             mark(e.available)]
            for e in rows
        ],
    )


def main(scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED) -> None:
    rows = run(scale, seed)
    print("Table II: Dataset Comparison")
    print(render(rows))
    checks = advantage_checks(rows[-1])
    print("ours advantages:", checks)
