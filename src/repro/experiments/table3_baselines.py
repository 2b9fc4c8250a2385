"""Table III — performance comparison of the five baselines.

Paper values (Acc% / Macro-F1% / per-class F1%):

=========  =====  ======  ====  ====  ====  ====
Model      Acc.   MacF1   IN    ID    BR    AT
=========  =====  ======  ====  ====  ====  ====
XGBoost    42.5   25.3    58.2  37.6  39.0  31.2
BiLSTM     48.6   36.7    61.5  41.2  41.1  33.2
HiGRU      52.2   30.3    64.4  45.8  44.0  39.2
RoBERTa    71.0   65.0    72.0  73.7  72.0  71.0
DeBERTa    76.0   77.0    76.0  78.9  76.0  77.0
=========  =====  ======  ====  ====  ====  ====

Reproduction target: the *hierarchy* — PLMs ≫ sequence models ≳ boosted
trees — not the absolute numbers (our substrate is a synthetic corpus and
from-scratch tiny PLMs, not the authors' testbed).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dataset import RSD15K
from repro.core.rng import DEFAULT_SEED
from repro.eval.metrics import EvalReport
from repro.eval.runner import run_jobs
from repro.experiments.common import BENCH_SCALE, cached_build, format_table
from repro.models.registry import TABLE3_ORDER, create_model

#: Published Table III rows: model → (acc, macro, IN, ID, BR, AT) in %.
PAPER_TABLE3: dict[str, tuple[float, ...]] = {
    "XGBoost": (42.5, 25.3, 58.2, 37.6, 39.0, 31.2),
    "BiLSTM": (48.6, 36.7, 61.5, 41.2, 41.1, 33.2),
    "HiGRU": (52.2, 30.3, 64.4, 45.8, 44.0, 39.2),
    "RoBERTa": (71.0, 65.0, 72.0, 73.7, 72.0, 71.0),
    "DeBERTa": (76.0, 77.0, 76.0, 78.9, 76.0, 77.0),
}

#: MLM pretraining budget of the PLM baselines: the step count and how
#: many of the dataset's unlabelled pretraining texts it reads.
PLM_PRETRAIN_STEPS = 400
PLM_PRETRAIN_TEXTS = 6000


def baseline_kwargs(
    name: str, dataset: RSD15K, pretrain_steps: int = PLM_PRETRAIN_STEPS
) -> dict:
    """Constructor keywords of baseline ``name`` on ``dataset``.

    The PLMs get the pretraining corpus and MLM budget; the other
    baselines run on their defaults.
    """
    if name not in ("roberta", "deberta"):
        return {}
    return {
        "pretrain_texts": dataset.pretrain_texts[:PLM_PRETRAIN_TEXTS],
        "pretrain_steps": pretrain_steps,
    }


@dataclass
class Table3Result:
    reports: list[EvalReport]

    def report_for(self, model: str) -> EvalReport:
        for report in self.reports:
            if report.model.lower() == model.lower():
                return report
        raise KeyError(model)

    @property
    def plm_beats_others(self) -> bool:
        """The paper's headline: transformers ≫ RNNs and trees."""
        plm = min(
            self.report_for("RoBERTa").accuracy,
            self.report_for("DeBERTa").accuracy,
        )
        rest = max(
            self.report_for("XGBoost").accuracy,
            self.report_for("BiLSTM").accuracy,
            self.report_for("HiGRU").accuracy,
        )
        return plm > rest


def run(
    scale: float = BENCH_SCALE,
    seed: int = DEFAULT_SEED,
    models: tuple[str, ...] = TABLE3_ORDER,
    pretrain_steps: int = PLM_PRETRAIN_STEPS,
) -> Table3Result:
    """Train and evaluate the requested baselines on one dataset build."""
    dataset = cached_build(scale, seed).dataset
    splits = dataset.splits()
    jobs = [
        (create_model(name, **baseline_kwargs(name, dataset, pretrain_steps)),
         splits)
        for name in models
    ]
    return Table3Result(reports=run_jobs(jobs))


def render(result: Table3Result) -> str:
    rows = []
    for report in result.reports:
        row = report.as_row()
        paper = PAPER_TABLE3.get(report.model)
        rows.append(
            [
                row["Model"],
                row["Acc_pct"],
                row["MacroF1_pct"],
                row["IN_F1_pct"],
                row["ID_F1_pct"],
                row["BR_F1_pct"],
                row["AT_F1_pct"],
                f"{paper[0]:.1f}/{paper[1]:.1f}" if paper else "-",
            ]
        )
    return format_table(
        ["Model", "Acc%", "MacF1%", "IN-F1", "ID-F1", "BR-F1", "AT-F1",
         "paper Acc/MacF1"],
        rows,
    )


def main(scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED) -> None:
    result = run(scale, seed)
    print("Table III: baseline comparison (measured vs paper)")
    print(render(result))
    print("PLMs beat non-PLM baselines:", result.plm_beats_others)
