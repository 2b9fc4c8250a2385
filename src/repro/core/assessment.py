"""High-level risk-assessment API.

:class:`RiskAssessor` is the library's front door for downstream users:
fit any registered baseline on an :class:`~repro.core.dataset.RSD15K`
dataset, then assess new user histories — including tracking how a user's
predicted risk evolves post by post (the dataset's headline use case).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SplitConfig, WindowConfig
from repro.core.dataset import RSD15K
from repro.core.errors import ModelError
from repro.core.schema import RiskLevel
from repro.corpus.models import UserHistory
from repro.eval.metrics import EvalReport
from repro.models.registry import create_model
from repro.temporal.windows import PostWindow, build_window


@dataclass(frozen=True)
class RiskTimepoint:
    """Predicted risk after observing a user's history up to one post."""

    when: float  # POSIX timestamp
    level: RiskLevel


class RiskAssessor:
    """Train a baseline and assess user-level suicide risk.

    Example
    -------
    >>> assessor = RiskAssessor("xgboost")
    >>> assessor.fit(dataset)            # doctest: +SKIP
    >>> assessor.assess(history)         # doctest: +SKIP
    <RiskLevel.IDEATION: 1>
    """

    def __init__(
        self,
        model: str = "xgboost",
        window_config: WindowConfig | None = None,
        **model_kwargs,
    ) -> None:
        self.model_name = model
        self.window_config = window_config or WindowConfig()
        self.model = create_model(model, **model_kwargs)
        self.validation_report: EvalReport | None = None

    def fit(
        self, dataset: RSD15K, split_config: SplitConfig | None = None
    ) -> "RiskAssessor":
        """Fit on the dataset's train split; records a validation report."""
        splits = dataset.splits(self.window_config, split_config)
        self.model.fit(splits.train, splits.validation)
        if splits.validation:
            y_true = np.array([int(w.label) for w in splits.validation])
            y_pred = self.model.predict(splits.validation)
            self.validation_report = EvalReport.compute(
                self.model.name, y_true, y_pred
            )
        return self

    def fit_windows(
        self, train: list[PostWindow], validation: list[PostWindow] | None = None
    ) -> "RiskAssessor":
        """Fit directly on prepared windows (advanced use)."""
        self.model.fit(train, validation)
        return self

    # -- inference ------------------------------------------------------------

    def assess_window(self, window: PostWindow) -> RiskLevel:
        pred = self.model.predict([window])
        return RiskLevel(int(pred[0]))

    def assess(self, history: UserHistory) -> RiskLevel:
        """Risk level of a user given their (chronological) history."""
        if not history.posts:
            raise ModelError("cannot assess an empty history")
        window = build_window(
            history, self.window_config, label=RiskLevel.INDICATOR
        )
        return self.assess_window(window)

    def risk_trajectory(self, history: UserHistory) -> list[RiskTimepoint]:
        """Predicted risk after each successive post — risk evolution.

        Every prefix window is scored in one ``predict`` call; prediction
        labels do not depend on batch composition, so each level equals
        :meth:`assess` of that prefix.
        """
        if not history.posts:
            raise ModelError("cannot assess an empty history")
        windows = [
            build_window(
                UserHistory(author=history.author, posts=list(history.posts[:i])),
                self.window_config,
                label=RiskLevel.INDICATOR,
            )
            for i in range(1, len(history.posts) + 1)
        ]
        levels = self.model.predict(windows)
        return [
            RiskTimepoint(when=post.timestamp, level=RiskLevel(int(level)))
            for post, level in zip(history.posts, levels)
        ]

    def alert(
        self, history: UserHistory, threshold: RiskLevel = RiskLevel.BEHAVIOR
    ) -> bool:
        """Whether the user's current assessed risk meets the threshold."""
        return self.assess(history) >= threshold
