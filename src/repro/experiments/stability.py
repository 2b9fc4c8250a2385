"""Run-to-run stability (§III-B): "All models performed stably across
multiple experimental runs, indicating high quality data annotation and
reliable datasets."

Repeats training of a baseline over several seeds on fixed user-disjoint
splits and reports the spread of accuracy/macro-F1.
"""

from __future__ import annotations

from repro.core.rng import DEFAULT_SEED
from repro.eval.runner import MultiRunResult, run_repeated
from repro.experiments.common import BENCH_SCALE, cached_build, format_table
from repro.experiments.table3_baselines import baseline_kwargs


def run(
    scale: float = BENCH_SCALE,
    seed: int = DEFAULT_SEED,
    model: str = "xgboost",
    seeds: tuple[int, ...] = (0, 1, 2),
) -> MultiRunResult:
    """Repeat train/eval of ``model`` across ``seeds``.

    PLMs read Table III's pretraining texts but run 300 MLM steps, not
    its 400. ``REPRO_SEED_JOBS`` runs the seeds in worker processes.
    """
    dataset = cached_build(scale, seed).dataset
    kwargs = baseline_kwargs(model, dataset, pretrain_steps=300)
    return run_repeated(model, dataset.splits(), seeds=seeds, **kwargs)


def render(result: MultiRunResult) -> str:
    acc = result.summary("accuracy")
    f1 = result.summary("macro_f1")
    rows = [
        ["accuracy", 100 * acc.mean, 100 * acc.std],
        ["macro F1", 100 * f1.mean, 100 * f1.std],
    ]
    table = format_table(["metric", "mean %", "std %"], rows)
    return f"{result.model} over {len(result.reports)} runs\n{table}"


def main(scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED) -> None:
    result = run(scale, seed)
    print("Stability across repeated runs (paper §III-B)")
    print(render(result))
    print("stable (std < 10pp):", result.stable)
