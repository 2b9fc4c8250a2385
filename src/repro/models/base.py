"""Common interface of the five baseline risk models."""

from __future__ import annotations

import abc

import numpy as np

from repro import perf
from repro.core.errors import ModelError, NotFittedError
from repro.core.schema import NUM_CLASSES
from repro.temporal.windows import PostWindow


class RiskModel(abc.ABC):
    """A user-level risk classifier over :class:`PostWindow` samples.

    Every baseline implements ``fit`` on (train, validation) windows and
    ``predict`` returning integer risk levels, so the evaluation harness
    treats all five identically.
    """

    #: Display name used in result tables.
    name: str = "model"

    def __init__(self) -> None:
        self._fitted = False

    @abc.abstractmethod
    def _fit(
        self, train: list[PostWindow], validation: list[PostWindow]
    ) -> None:
        """Model-specific training."""

    @abc.abstractmethod
    def _predict(self, windows: list[PostWindow]) -> np.ndarray:
        """Model-specific inference (returns int labels)."""

    def _predict_proba(self, windows: list[PostWindow]) -> np.ndarray:
        """Model-specific probability scoring; override where supported."""
        raise ModelError(f"{self.name}: probabilities not supported")

    def fit(
        self,
        train: list[PostWindow],
        validation: list[PostWindow] | None = None,
    ) -> "RiskModel":
        if not train:
            raise ModelError(f"{self.name}: empty training set")
        with perf.span(f"models.fit.{self.name.lower()}"):
            self._fit(train, validation or [])
        self._fitted = True
        return self

    def predict(self, windows: list[PostWindow]) -> np.ndarray:
        if not self._fitted:
            raise NotFittedError(f"{self.name}: predict before fit")
        if not windows:
            return np.zeros(0, dtype=np.int64)
        return np.asarray(self._predict(windows), dtype=np.int64)

    def predict_proba(self, windows: list[PostWindow]) -> np.ndarray:
        """(N, C) class probabilities; the serving engine's scoring path."""
        if not self._fitted:
            raise NotFittedError(f"{self.name}: predict_proba before fit")
        if not windows:
            return np.zeros((0, NUM_CLASSES))
        return np.asarray(self._predict_proba(windows), dtype=np.float64)


def window_labels(windows: list[PostWindow]) -> np.ndarray:
    """Integer label vector of a window list."""
    return np.array([int(w.label) for w in windows], dtype=np.int64)
