"""Batching utility: right-padding of token-id sequences."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def pad_sequences(
    sequences: Sequence[Sequence[int]],
    pad_value: int = 0,
    max_len: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad integer sequences into (ids, mask) matrices.

    Sequences longer than ``max_len`` keep their *last* ``max_len``
    elements (recent context matters most for risk assessment).
    """
    if not sequences:
        return np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0))
    clipped = [list(s) for s in sequences]
    if max_len is not None:
        clipped = [s[-max_len:] for s in clipped]
    width = max(1, max(len(s) for s in clipped))
    ids = np.full((len(clipped), width), pad_value, dtype=np.int64)
    mask = np.zeros((len(clipped), width), dtype=np.float64)
    for i, seq in enumerate(clipped):
        ids[i, : len(seq)] = seq
        mask[i, : len(seq)] = 1.0
    return ids, mask
