"""XGBoost baseline (paper §III-A1): boosted trees over the multi-level
feature framework, plus the dimension-level importance analysis."""

from __future__ import annotations

import numpy as np

from repro.boosting import GBMParams, GradientBoostingClassifier
from repro.models.base import RiskModel, window_labels
from repro.models.features import FeatureFramework
from repro.temporal.windows import PostWindow


class XGBoostBaseline(RiskModel):
    """Traditional-ML baseline: feature engineering + boosted trees."""

    name = "XGBoost"

    def __init__(
        self,
        params: GBMParams | None = None,
        max_tfidf_features: int = 300,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.params = params or GBMParams(
            n_estimators=50,
            learning_rate=0.25,
            max_depth=4,
            subsample=0.9,
            colsample=0.8,
            early_stopping_rounds=10,
            seed=seed,
        )
        self.framework = FeatureFramework(max_tfidf_features=max_tfidf_features)
        self.booster: GradientBoostingClassifier | None = None

    def _features(self, windows: list[PostWindow]) -> np.ndarray:
        """The booster's input columns for ``windows``; fit, predict and
        predict_proba all read them through here."""
        return self.framework.transform(windows)

    def _fit(self, train: list[PostWindow], validation: list[PostWindow]) -> None:
        self.framework.fit(train)
        x_train = self._features(train)
        y_train = window_labels(train)
        eval_set = None
        if validation:
            eval_set = (self._features(validation), window_labels(validation))
        self.booster = GradientBoostingClassifier(self.params)
        self.booster.fit(x_train, y_train, eval_set=eval_set)

    def _predict(self, windows: list[PostWindow]) -> np.ndarray:
        return self.booster.predict(self._features(windows))

    def _predict_proba(self, windows: list[PostWindow]) -> np.ndarray:
        return self.booster.predict_proba(self._features(windows))

    # -- feature-importance analysis (paper §III-A1, 2nd paragraph) ------------

    def feature_importance(self) -> dict[str, float]:
        """Per-feature gain importances, keyed by feature name."""
        importances = self.booster.feature_importances_
        return dict(zip(self.framework.feature_names, importances))

    def dimension_importance(self) -> dict[str, float]:
        """Importance mass per paper dimension (time / sequence / text)."""
        importances = self.booster.feature_importances_
        return {
            dim: float(importances[cols].sum())
            for dim, cols in self.framework.dimension_slices().items()
        }

    def top_features(self, k: int = 10) -> list[tuple[str, float]]:
        ranked = sorted(
            self.feature_importance().items(), key=lambda kv: -kv[1]
        )
        return ranked[:k]
