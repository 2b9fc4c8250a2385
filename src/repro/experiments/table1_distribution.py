"""Table I — class distribution of the annotated dataset.

Paper values: Attempt 809 (5.54%), Behavior 2,056 (14.07%), Ideation
7,133 (48.81%), Indicator 4,615 (31.58%) over 14,613 posts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.rng import DEFAULT_SEED
from repro.core.schema import RiskLevel
from repro.experiments.common import BENCH_SCALE, cached_build, format_table

#: Published Table I percentages, keyed by label.
PAPER_PERCENTAGES: dict[RiskLevel, float] = {
    RiskLevel.ATTEMPT: 5.54,
    RiskLevel.BEHAVIOR: 14.07,
    RiskLevel.IDEATION: 48.81,
    RiskLevel.INDICATOR: 31.58,
}


@dataclass(frozen=True)
class Table1Row:
    category: str
    count: int
    percentage: float
    paper_percentage: float


def run(scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED) -> list[Table1Row]:
    """Regenerate Table I from a dataset build."""
    dataset = cached_build(scale, seed).dataset
    dist = dataset.label_distribution()
    rows = []
    order = (
        RiskLevel.ATTEMPT,
        RiskLevel.BEHAVIOR,
        RiskLevel.IDEATION,
        RiskLevel.INDICATOR,
    )
    for level in order:
        rows.append(
            Table1Row(
                category=level.label,
                count=dist.counts.get(level, 0),
                percentage=100.0 * dist.fraction(level),
                paper_percentage=PAPER_PERCENTAGES[level],
            )
        )
    return rows


def render(rows: list[Table1Row]) -> str:
    return format_table(
        ["Category", "Count", "Percentage", "Paper %"],
        [[r.category, r.count, r.percentage, r.paper_percentage] for r in rows],
    )


def max_percentage_deviation(rows: list[Table1Row]) -> float:
    """Largest |measured − paper| percentage-point gap across classes."""
    return max(abs(r.percentage - r.paper_percentage) for r in rows)


def main(scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED) -> None:
    rows = run(scale, seed)
    print("Table I: Data Distribution (synthetic rebuild vs paper)")
    print(render(rows))
    print(f"max deviation: {max_percentage_deviation(rows):.2f} pp")
