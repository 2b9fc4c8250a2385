"""Classification metrics: accuracy, per-class F1, macro F1, confusion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.schema import ALL_LEVELS, NUM_CLASSES, RiskLevel


def confusion_matrix(
    y_true: np.ndarray, y_pred: np.ndarray, num_classes: int = NUM_CLASSES
) -> np.ndarray:
    """(true, predicted) count matrix."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same shape")
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (y_true, y_pred), 1)
    return matrix


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if len(y_true) == 0:
        return 0.0
    return float((y_true == y_pred).mean())


def per_class_f1(
    y_true: np.ndarray, y_pred: np.ndarray, num_classes: int = NUM_CLASSES
) -> np.ndarray:
    """F1 per class (0.0 where a class has no support and no predictions)."""
    matrix = confusion_matrix(y_true, y_pred, num_classes)
    tp = np.diag(matrix).astype(np.float64)
    fp = matrix.sum(axis=0) - tp
    fn = matrix.sum(axis=1) - tp
    denom = 2 * tp + fp + fn
    with np.errstate(divide="ignore", invalid="ignore"):
        f1 = np.where(denom > 0, 2 * tp / denom, 0.0)
    return f1


def macro_f1(
    y_true: np.ndarray, y_pred: np.ndarray, num_classes: int = NUM_CLASSES
) -> float:
    return float(per_class_f1(y_true, y_pred, num_classes).mean())


@dataclass(frozen=True)
class EvalReport:
    """Full evaluation of one model on one split (a Table III row)."""

    model: str
    accuracy: float
    macro_f1: float
    class_f1: dict[RiskLevel, float]
    confusion: np.ndarray
    support: dict[RiskLevel, int]

    @classmethod
    def compute(
        cls, model: str, y_true: np.ndarray, y_pred: np.ndarray
    ) -> "EvalReport":
        f1 = per_class_f1(y_true, y_pred)
        matrix = confusion_matrix(y_true, y_pred)
        return cls(
            model=model,
            accuracy=accuracy(y_true, y_pred),
            macro_f1=float(f1.mean()),
            class_f1={level: float(f1[int(level)]) for level in ALL_LEVELS},
            confusion=matrix,
            support={
                level: int((np.asarray(y_true) == int(level)).sum())
                for level in ALL_LEVELS
            },
        )

    def as_row(self) -> dict[str, float | str]:
        """Row in the paper's Table III column order."""
        return {
            "Model": self.model,
            "Acc_pct": 100.0 * self.accuracy,
            "MacroF1_pct": 100.0 * self.macro_f1,
            "IN_F1_pct": 100.0 * self.class_f1[RiskLevel.INDICATOR],
            "ID_F1_pct": 100.0 * self.class_f1[RiskLevel.IDEATION],
            "BR_F1_pct": 100.0 * self.class_f1[RiskLevel.BEHAVIOR],
            "AT_F1_pct": 100.0 * self.class_f1[RiskLevel.ATTEMPT],
        }
