"""Per-table/figure reproduction harness.

Each module regenerates one artefact of the paper's evaluation; the
``bench`` name is what ``python -m repro bench <name>`` runs:

================================  =============  ======================================
module                            ``bench``      paper artefact
================================  =============  ======================================
``table1_distribution``           ``table1``     Table I — class distribution
``table2_comparison``             ``table2``     Table II — dataset comparison
``table3_baselines``              ``table3``     Table III — five-baseline benchmark
``table4_scale``                  ``table4``     Table IV — data scale vs model scale
``fig1_posts_per_user``           ``fig1``       Figure 1 — posts-per-user histogram
``fig23_wordclouds``              ``fig23``      Figures 2 & 3 — per-class word clouds
``fig4_top_users``                ``fig4``       Figure 4 — top-20 user risk profiles
``kappa_consistency``             ``kappa``      §II-C1 — Fleiss κ = 0.7206
``ablations``                     ``ablations``  design-choice ablations (ours)
``stability``                     ``stability``  §III-B — run-to-run stability
``evolution_analysis``            ``evolution``  risk-evolution analysis (ours)
================================  =============  ======================================

Every module exposes ``run(scale, seed)`` returning structured data and a
``main(scale, seed)`` that prints the same rows/series the paper reports,
plus a verdict line for each claim the experiment checks.
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
    "evolution_analysis",
    "fig1_posts_per_user",
    "fig23_wordclouds",
    "fig4_top_users",
    "kappa_consistency",
    "stability",
    "table1_distribution",
    "table2_comparison",
    "table3_baselines",
    "table4_scale",
    "BENCH_SCALE",
    "cached_build",
    "format_table",
]
