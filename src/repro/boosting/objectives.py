"""Boosting objectives: gradients/hessians of the training losses."""

from __future__ import annotations

import numpy as np


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class SoftmaxObjective:
    """Multiclass cross-entropy on raw per-class scores.

    For sample *i* with probabilities ``p`` and one-hot target ``y``:
    ``grad_k = p_k − y_k`` and ``hess_k = 2·p_k·(1 − p_k)`` — the same
    statistics XGBoost's ``multi:softprob`` uses.
    """

    def __init__(self, num_classes: int) -> None:
        if num_classes < 2:
            raise ValueError("need at least two classes")
        self.num_classes = num_classes

    def init_scores(self, n: int) -> np.ndarray:
        return np.zeros((n, self.num_classes))

    def grad_hess(
        self, scores: np.ndarray, targets: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        probs = softmax(scores)
        onehot = np.eye(self.num_classes)[targets]
        grad = probs - onehot
        hess = 2.0 * probs * (1.0 - probs)
        hess = np.maximum(hess, 1e-6)
        if sample_weight is not None:
            grad = grad * sample_weight[:, None]
            hess = hess * sample_weight[:, None]
        return grad, hess

    def loss(self, scores: np.ndarray, targets: np.ndarray) -> float:
        probs = softmax(scores)
        picked = probs[np.arange(len(targets)), targets]
        return float(-np.log(np.maximum(picked, 1e-12)).mean())

    def predict_proba(self, scores: np.ndarray) -> np.ndarray:
        return softmax(scores)
