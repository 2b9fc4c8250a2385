"""Loss functions."""

from __future__ import annotations

import numpy as np

from repro.core.errors import ShapeError
from repro.nn.tensor import Tensor

#: Target value ignored by the losses (masked-LM convention).
IGNORE_INDEX = -100


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    class_weights: np.ndarray | None = None,
    label_smoothing: float = 0.0,
    ignore_index: int = IGNORE_INDEX,
) -> Tensor:
    """Mean cross-entropy over non-ignored targets.

    Parameters
    ----------
    logits:
        (N, C) unnormalised scores.
    targets:
        (N,) integer class ids; entries equal to ``ignore_index`` are
        excluded from the mean.
    class_weights:
        Optional (C,) per-class weights (weighted mean, as in torch).
    label_smoothing:
        Mass ε spread uniformly over classes.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got shape {logits.shape}")
    n, c = logits.shape
    if targets.shape != (n,):
        raise ShapeError(f"targets shape {targets.shape} != ({n},)")

    keep = targets != ignore_index
    if not keep.any():
        raise ShapeError("all targets are ignored")
    kept_idx = np.nonzero(keep)[0]
    kept_targets = targets[kept_idx]
    log_probs = logits.log_softmax(axis=-1)
    picked = log_probs[kept_idx, kept_targets]  # (M,)

    weights = np.ones(len(kept_idx))
    if class_weights is not None:
        class_weights = np.asarray(class_weights, dtype=np.float64)
        if class_weights.shape != (c,):
            raise ShapeError(f"class_weights shape {class_weights.shape} != ({c},)")
        weights = class_weights[kept_targets]
    w = Tensor(weights)
    total_weight = float(weights.sum())

    nll = -(picked * w).sum() / total_weight
    if label_smoothing <= 0.0:
        return nll
    smooth = -(log_probs[kept_idx, :].mean(axis=-1) * w).sum() / total_weight
    eps = label_smoothing
    return (1.0 - eps) * nll + eps * smooth

