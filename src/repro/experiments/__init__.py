"""Per-table/figure reproduction harness.

Each module regenerates one artefact of the paper's evaluation:

================================  =========================================
module                            paper artefact
================================  =========================================
``table1_distribution``           Table I — class distribution
``table2_comparison``             Table II — dataset comparison
``table3_baselines``              Table III — five-baseline benchmark
``table4_scale``                  Table IV — data scale vs model scale
``fig1_posts_per_user``           Figure 1 — posts-per-user histogram
``fig23_wordclouds``              Figures 2 & 3 — per-class word clouds
``fig4_top_users``                Figure 4 — top-20 user risk profiles
``kappa_consistency``             §II-C1 — Fleiss κ = 0.7206
``ablations``                     design-choice ablations (ours)
================================  =========================================

Every module exposes ``run(scale, seed)`` returning structured data and a
``main()`` that prints the same rows/series the paper reports.
"""

from repro.experiments import (
    ablations,
    evolution_analysis,
    fig1_posts_per_user,
    fig23_wordclouds,
    fig4_top_users,
    kappa_consistency,
    stability,
    table1_distribution,
    table2_comparison,
    table3_baselines,
    table4_scale,
)
from repro.experiments.common import BENCH_SCALE, cached_build, format_table

__all__ = [
    "ablations",
    "fig1_posts_per_user",
    "fig23_wordclouds",
    "fig4_top_users",
    "kappa_consistency",
    "table1_distribution",
    "table2_comparison",
    "table3_baselines",
    "table4_scale",
    "BENCH_SCALE",
    "cached_build",
    "format_table",
]
