"""Annotation consistency (§II-C1) — Fleiss' κ on the joint subset.

Paper: 30% of the dataset (4,384 samples) was labelled by all three
annotators; Fleiss' κ = 0.7206 ("substantial agreement").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.annotation.agreement import interpret_kappa
from repro.core.rng import DEFAULT_SEED
from repro.experiments.common import BENCH_SCALE, cached_build

PAPER_KAPPA = 0.7206
PAPER_JOINT_SAMPLES = 4_384


@dataclass(frozen=True)
class KappaResult:
    kappa: float
    joint_samples: int
    interpretation: str
    label_noise: float
    all_inspections_passed: bool

    @property
    def within_tolerance(self) -> bool:
        """Measured κ within ±0.08 of the published value."""
        return abs(self.kappa - PAPER_KAPPA) <= 0.08


def run(scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED) -> KappaResult:
    build = cached_build(scale, seed)
    campaign = build.campaign
    return KappaResult(
        kappa=campaign.kappa,
        joint_samples=len(campaign.joint_post_ids),
        interpretation=interpret_kappa(campaign.kappa),
        label_noise=campaign.label_noise,
        all_inspections_passed=all(d.passed for d in campaign.daily_logs),
    )


def main(scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED) -> None:
    result = run(scale, seed)
    print("Annotation consistency (paper §II-C1)")
    print(f"  Fleiss' kappa : {result.kappa:.4f}  (paper: {PAPER_KAPPA})")
    print(f"  joint samples : {result.joint_samples}  "
          f"(paper: {PAPER_JOINT_SAMPLES} at full scale)")
    print(f"  interpretation: {result.interpretation}")
    print(f"  label noise   : {result.label_noise:.3f}")
    print(f"  inspections   : "
          f"{'all passed' if result.all_inspections_passed else 'FAILED'}")
