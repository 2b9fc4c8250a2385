"""Table IV — dataset scale vs model scale (DeBERTa variants).

Paper setup:

* **500-sample configuration** — DeBERTa-*Large*, trained on 500 annotated
  samples with full optimisation (hyper-parameter tuning, class-balanced
  sampling, model adjustment): 74% accuracy / 0.74 macro F1.
* **15K configuration** — DeBERTa-*Base*, full dataset, *no* tuning and
  *no* balancing: 76% accuracy / 0.70 macro F1.

Claim reproduced: large data + small un-tuned model ≥ small data + large
tuned model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.rng import DEFAULT_SEED, stream
from repro.eval.metrics import EvalReport
from repro.eval.runner import run_jobs
from repro.experiments.common import BENCH_SCALE, cached_build, format_table
from repro.experiments.table3_baselines import (
    PLM_PRETRAIN_STEPS,
    PLM_PRETRAIN_TEXTS,
)
from repro.models.deberta import DebertaRiskModel
from repro.models.neural_common import TrainerConfig
from repro.models.plm import PLMConfig

#: Paper Table IV rows: (data, model, optimised, macro_f1, acc_pct).
PAPER_TABLE4 = {
    "small-data": ("500", "Large", True, 0.74, 74.0),
    "large-data": ("15K", "Base", False, 0.70, 76.0),
}

#: Train-set size of the small-data configuration, as a fraction of the
#: paper's 500-of-14,613 ratio (applied to the scaled corpus).
SMALL_DATA_RATIO = 500 / 14_613


@dataclass
class Table4Result:
    small_data: EvalReport
    large_data: EvalReport

    @property
    def large_data_wins_accuracy(self) -> bool:
        return self.large_data.accuracy >= self.small_data.accuracy


def _balanced_subset(windows, target_size: int, seed: int):
    """Class-balanced subsample (the paper's "data balance sampling")."""
    rng = stream(seed, "table4-balance")
    labels = np.array([int(w.label) for w in windows])
    per_class = max(1, target_size // 4)
    picked: list[int] = []
    for cls in range(4):
        pool = np.nonzero(labels == cls)[0]
        if pool.size == 0:
            continue
        draw = rng.choice(pool, size=per_class, replace=pool.size < per_class)
        picked.extend(int(i) for i in draw)
    rng.shuffle(picked)
    return [windows[i] for i in picked]


def run(
    scale: float = BENCH_SCALE,
    seed: int = DEFAULT_SEED,
    pretrain_steps: int = PLM_PRETRAIN_STEPS,
) -> Table4Result:
    """Run both Table IV configurations on one dataset build."""
    dataset = cached_build(scale, seed).dataset
    splits = dataset.splits()
    pretrain = dataset.pretrain_texts[:PLM_PRETRAIN_TEXTS]

    # -- small data + large model + full optimisation -----------------------
    small_n = max(24, int(round(len(splits.train) * SMALL_DATA_RATIO * 10)))
    # (×10 keeps the subset trainable at reduced corpus scales while
    #  preserving the paper's an-order-of-magnitude-less-data contrast)
    small_train = _balanced_subset(splits.train, small_n, seed)
    tuned = TrainerConfig(
        epochs=24, lr=1e-3, class_weighted=True, label_smoothing=0.05,
        patience=10, seed=seed,
    )
    large_model = DebertaRiskModel(
        config=PLMConfig.large(),
        trainer=tuned,
        pretrain_texts=pretrain,
        pretrain_steps=pretrain_steps,
        seed=seed,
    )

    # -- large data + base model + no optimisation ---------------------------
    default_trainer = TrainerConfig(
        epochs=18, lr=1.5e-3, class_weighted=False, label_smoothing=0.0,
        patience=8, seed=seed,
    )
    base_model = DebertaRiskModel(
        config=PLMConfig.base(),
        trainer=default_trainer,
        pretrain_texts=pretrain,
        pretrain_steps=pretrain_steps,
        seed=seed,
    )
    small_report, large_report = run_jobs([
        (large_model, replace(splits, train=small_train)),
        (base_model, splits),
    ])
    # Rows are renamed after the fit: the PLM's init stream is keyed by
    # ``model.name``, so renaming the model itself would retrain it.
    return Table4Result(
        small_data=replace(small_report, model="DeBERTa-Large@500"),
        large_data=replace(large_report, model="DeBERTa-Base@full"),
    )


def render(result: Table4Result) -> str:
    rows = []
    for key, report in (
        ("small-data", result.small_data),
        ("large-data", result.large_data),
    ):
        data, model, opt, paper_f1, paper_acc = PAPER_TABLE4[key]
        rows.append(
            [
                data,
                model,
                "Full" if opt else "No",
                100 * report.macro_f1,
                100 * report.accuracy,
                f"{100 * paper_f1:.0f}/{paper_acc:.0f}",
            ]
        )
    return format_table(
        ["Data", "Model", "Opt.", "M-F1%", "Acc%", "paper M-F1/Acc"], rows
    )


def main(scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED) -> None:
    result = run(scale, seed)
    print("Table IV: dataset scale vs model scale (DeBERTa)")
    print(render(result))
    print("large data + base model wins accuracy:",
          result.large_data_wins_accuracy)
