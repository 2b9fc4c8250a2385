"""Evaluation: metrics, user-disjoint splits, experiment running."""

from repro.eval.metrics import (
    EvalReport,
    accuracy,
    confusion_matrix,
    macro_f1,
    per_class_f1,
)
from repro.eval.reporting import to_csv, to_json, to_markdown
from repro.eval.runner import (
    MetricSummary,
    MultiRunResult,
    evaluate,
    run_jobs,
    run_repeated,
)
from repro.eval.splits import WindowSplits, split_users, split_windows

__all__ = [
    "to_csv",
    "to_json",
    "to_markdown",
    "MetricSummary",
    "MultiRunResult",
    "evaluate",
    "run_jobs",
    "run_repeated",
    "EvalReport",
    "accuracy",
    "confusion_matrix",
    "macro_f1",
    "per_class_f1",
    "WindowSplits",
    "split_users",
    "split_windows",
]
