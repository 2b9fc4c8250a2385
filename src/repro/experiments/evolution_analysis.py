"""Risk-evolution analysis (extension experiment).

The paper motivates RSD-15K with the ability to "model the dynamic
evolution of suicide risk" but publishes no dedicated evolution figure.
This experiment supplies one: population escalation prevalence, the
empirical label-transition matrix, and escalation timing — quantities a
downstream early-warning system would calibrate against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.evolution import EvolutionReport, analyse
from repro.core.rng import DEFAULT_SEED
from repro.core.schema import ALL_LEVELS
from repro.experiments.common import BENCH_SCALE, cached_build, format_table


@dataclass(frozen=True)
class EvolutionFigure:
    report: EvolutionReport

    @property
    def persistence(self) -> float:
        """Mean diagonal mass of the transition matrix (state stickiness)."""
        diag = np.diag(self.report.transition_matrix)
        populated = diag[self.report.transition_matrix.sum(axis=1) > 0]
        return float(populated.mean()) if populated.size else 0.0


def run(scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED) -> EvolutionFigure:
    dataset = cached_build(scale, seed).dataset
    return EvolutionFigure(report=analyse(dataset))


def render(figure: EvolutionFigure) -> str:
    report = figure.report
    header = ["from \\ to", *[lv.short for lv in ALL_LEVELS]]
    rows = []
    for i, level in enumerate(ALL_LEVELS):
        rows.append(
            [level.short]
            + [f"{report.transition_matrix[i, j]:.2f}" for j in range(4)]
        )
    matrix = format_table(header, rows)
    summary = (
        f"users: {report.num_users}  "
        f"escalation prevalence: {100 * report.escalation_prevalence:.1f}%  "
        f"escalations/user: {report.escalations_per_user:.2f}\n"
        f"median pre-escalation gap: "
        f"{report.median_escalation_gap_hours:.0f} h  "
        f"state persistence: {figure.persistence:.2f}"
    )
    return f"{matrix}\n{summary}"


def main(scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED) -> None:
    print("Risk-evolution analysis (dataset capability, extension)")
    print(render(run(scale, seed)))
