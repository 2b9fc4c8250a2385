"""Ablations over the design choices DESIGN.md calls out.

1. **Feature dimensions** (§III-A1): retrain XGBoost with each feature
   dimension alone (time / sequence / text) and all together.
2. **PLM pretraining**: RoBERTa fine-tuned with vs without the MLM pass.
3. **Window size** (§III): the "stable 5-element window" vs smaller.
4. **Voting**: label noise of 3-way-voted joint labels vs solo labels.
"""

from __future__ import annotations

from repro.core.config import WindowConfig
from repro.core.rng import DEFAULT_SEED
from repro.eval.metrics import EvalReport
from repro.eval.runner import run_jobs
from repro.experiments.common import BENCH_SCALE, cached_build, format_table
from repro.experiments.table3_baselines import (
    PLM_PRETRAIN_STEPS,
    PLM_PRETRAIN_TEXTS,
)
from repro.models.roberta import RobertaRiskModel
from repro.models.xgboost_baseline import XGBoostBaseline


class _DimensionOnlyXGBoost(XGBoostBaseline):
    """XGBoost restricted to one feature dimension's columns."""

    def __init__(self, dimension: str, **kwargs) -> None:
        super().__init__(**kwargs)
        self.dimension = dimension
        self.name = f"XGBoost[{dimension}]"

    def _columns(self) -> slice:
        return self.framework.dimension_slices()[self.dimension]

    def _fit(self, train, validation):
        x_train = self.framework.fit_transform(train)[:, self._columns()]
        from repro.boosting import GradientBoostingClassifier
        from repro.models.base import window_labels

        eval_set = None
        if validation:
            eval_set = (
                self.framework.transform(validation)[:, self._columns()],
                window_labels(validation),
            )
        self.booster = GradientBoostingClassifier(self.params)
        self.booster.fit(x_train, window_labels(train), eval_set=eval_set)

    def _predict(self, windows):
        return self.booster.predict(
            self.framework.transform(windows)[:, self._columns()]
        )


def feature_dimension_ablation(
    scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED
) -> list[EvalReport]:
    """XGBoost with all features vs each dimension alone."""
    splits = cached_build(scale, seed).dataset.splits()
    models = [XGBoostBaseline()] + [
        _DimensionOnlyXGBoost(dim) for dim in ("time", "sequence", "text")
    ]
    return run_jobs([(model, splits) for model in models])


def pretraining_ablation(
    scale: float = BENCH_SCALE,
    seed: int = DEFAULT_SEED,
    pretrain_steps: int = PLM_PRETRAIN_STEPS,
) -> list[EvalReport]:
    """RoBERTa with vs without MLM domain pretraining."""
    dataset = cached_build(scale, seed).dataset
    splits = dataset.splits()
    pretrain = dataset.pretrain_texts[:PLM_PRETRAIN_TEXTS]
    jobs = []
    for steps, tag in ((pretrain_steps, "MLM"), (0, "no-MLM")):
        model = RobertaRiskModel(
            pretrain_texts=pretrain, pretrain_steps=steps, seed=seed
        )
        model.name = f"RoBERTa[{tag}]"
        jobs.append((model, splits))
    return run_jobs(jobs)


def window_size_ablation(
    scale: float = BENCH_SCALE,
    seed: int = DEFAULT_SEED,
    sizes: tuple[int, ...] = (1, 3, 5),
) -> list[EvalReport]:
    """The stable 5-element window vs truncated histories (XGBoost)."""
    dataset = cached_build(scale, seed).dataset
    jobs = []
    for size in sizes:
        model = XGBoostBaseline()
        model.name = f"XGBoost[w={size}]"
        jobs.append(
            (model, dataset.splits(window_config=WindowConfig(size=size)))
        )
    return run_jobs(jobs)


def voting_ablation(
    scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED
) -> dict[str, float]:
    """Label-noise rate of voted / expert-reviewed labels vs solo labels."""
    campaign = cached_build(scale, seed).campaign
    solo_wrong = solo_total = voted_wrong = voted_total = 0
    for task in campaign.project.completed:
        true = task.post.oracle_label
        if task.resolution == "single":
            solo_total += 1
            solo_wrong += int(task.final_label != true)
        elif task.resolution in ("vote", "review", "joint-decision"):
            voted_total += 1
            voted_wrong += int(task.final_label != true)
    return {
        "solo_noise": solo_wrong / max(1, solo_total),
        "voted_noise": voted_wrong / max(1, voted_total),
        "solo_total": float(solo_total),
        "voted_total": float(voted_total),
    }


def embedding_init_ablation(
    scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED
) -> list[EvalReport]:
    """BiLSTM with random vs SGNS-pretrained word embeddings."""
    from repro.models.bilstm import TimeAwareBiLSTM
    from repro.text.embeddings import SGNSConfig, train_embeddings

    dataset = cached_build(scale, seed).dataset
    splits = dataset.splits()
    embeddings = train_embeddings(
        dataset.pretrain_texts[:3000],
        config=SGNSConfig(dim=64, epochs=1, seed=seed),
    )
    jobs = []
    for pretrained, tag in ((embeddings, "SGNS-init"), (None, "random-init")):
        model = TimeAwareBiLSTM(pretrained_embeddings=pretrained, seed=seed)
        model.name = f"BiLSTM[{tag}]"
        jobs.append((model, splits))
    return run_jobs(jobs)


def render(reports: list[EvalReport]) -> str:
    return format_table(
        ["configuration", "Acc%", "MacroF1%"],
        [[r.model, 100 * r.accuracy, 100 * r.macro_f1] for r in reports],
    )


def main(scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED) -> None:
    print("Ablation: feature dimensions (XGBoost)")
    dimensions = feature_dimension_ablation(scale, seed)
    print(render(dimensions))
    best_single = max(100 * r.accuracy for r in dimensions[1:])
    print("all features within 10pp of the best single dimension:",
          100 * dimensions[0].accuracy >= best_single - 10.0)
    print()
    print("Ablation: window size")
    print(render(window_size_ablation(scale, seed)))
    print()
    print("Ablation: voting vs solo label noise")
    print(voting_ablation(scale, seed))
    print()
    print("Ablation: MLM pretraining (RoBERTa)")
    print(render(pretraining_ablation(scale, seed)))
    print()
    print("Ablation: embedding initialisation (BiLSTM)")
    print(render(embedding_init_ablation(scale, seed)))
