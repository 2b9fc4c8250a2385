"""Gradient-boosted tree ensembles (the from-scratch "XGBoost").

Second-order boosting with shrinkage, row/column subsampling, optional
early stopping on a validation set, and gain-based feature importances —
the feature set the paper's XGBoost baseline depends on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro import perf
from repro.core.errors import NotFittedError
from repro.boosting.objectives import SoftmaxObjective
from repro.boosting.tree import RegressionTree, TreeParams


@dataclass
class GBMParams:
    """Ensemble hyper-parameters (XGBoost naming)."""

    n_estimators: int = 60
    learning_rate: float = 0.3
    max_depth: int = 4
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0
    gamma: float = 0.0
    subsample: float = 1.0
    colsample: float = 1.0
    early_stopping_rounds: int | None = None
    seed: int = 0

    def tree_params(self) -> TreeParams:
        return TreeParams(
            max_depth=self.max_depth,
            min_child_weight=self.min_child_weight,
            reg_lambda=self.reg_lambda,
            gamma=self.gamma,
        )


@dataclass
class _Round:
    trees: list[RegressionTree] = field(default_factory=list)


class GradientBoostingClassifier:
    """Multiclass gradient boosting with softmax objective.

    One regression tree per class per round, trained on the per-class
    gradients — the construction of ``multi:softprob``.
    """

    def __init__(self, params: GBMParams | None = None, **overrides) -> None:
        if params is not None and overrides:
            raise ValueError("pass either params or keyword overrides, not both")
        self.params = params or GBMParams(**overrides)
        self._rounds: list[_Round] = []
        self._objective: SoftmaxObjective | None = None
        self.num_classes_: int | None = None
        self.num_features_: int | None = None
        self.best_iteration_: int | None = None
        self.eval_history_: list[float] = []

    # -- fitting --------------------------------------------------------------

    def fit(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        eval_set: tuple[np.ndarray, np.ndarray] | None = None,
        sample_weight: np.ndarray | None = None,
    ) -> "GradientBoostingClassifier":
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError("features must be 2-D")
        if len(features) != len(targets):
            raise ValueError("features and targets disagree on length")
        rng = np.random.default_rng(self.params.seed)
        self.num_classes_ = int(targets.max()) + 1
        self.num_features_ = features.shape[1]
        tree_params = self.params.tree_params()
        self._objective = SoftmaxObjective(max(2, self.num_classes_))
        self._rounds = []
        self.eval_history_ = []

        scores = self._objective.init_scores(len(features))
        eval_scores = (
            self._objective.init_scores(len(eval_set[0]))
            if eval_set is not None
            else None
        )
        best_loss = np.inf
        rounds_since_best = 0
        n, f = features.shape
        with perf.span("gbm.fit"):
            for _ in range(self.params.n_estimators):
                grad, hess = self._objective.grad_hess(
                    scores, targets, sample_weight
                )
                row_idx = self._subsample(rng, n, self.params.subsample)
                col_idx = self._subsample(rng, f, self.params.colsample)
                this_round = _Round()
                for k in range(self._objective.num_classes):
                    tree = RegressionTree(dataclasses.replace(tree_params)).fit(
                        features, grad[:, k], hess[:, k], row_idx, col_idx
                    )
                    update = tree.predict(features)
                    scores[:, k] += self.params.learning_rate * update
                    this_round.trees.append(tree)
                    if eval_scores is not None:
                        eval_scores[:, k] += (
                            self.params.learning_rate * tree.predict(eval_set[0])
                        )
                self._rounds.append(this_round)
                perf.count("gbm.rounds")
                if eval_scores is not None:
                    loss = self._objective.loss(
                        eval_scores, np.asarray(eval_set[1])
                    )
                    self.eval_history_.append(loss)
                    if loss < best_loss - 1e-9:
                        best_loss = loss
                        self.best_iteration_ = len(self._rounds)
                        rounds_since_best = 0
                    else:
                        rounds_since_best += 1
                        patience = self.params.early_stopping_rounds
                        if patience is not None and rounds_since_best >= patience:
                            break
        if self.best_iteration_ is None:
            self.best_iteration_ = len(self._rounds)
        return self

    @staticmethod
    def _subsample(
        rng: np.random.Generator, total: int, fraction: float
    ) -> np.ndarray:
        if fraction >= 1.0:
            return np.arange(total)
        size = max(1, int(round(total * fraction)))
        return np.sort(rng.choice(total, size=size, replace=False))

    # -- inference ------------------------------------------------------------

    def _raw_scores(self, features: np.ndarray) -> np.ndarray:
        if self._objective is None:
            raise NotFittedError("GradientBoostingClassifier not fitted")
        features = np.asarray(features, dtype=np.float64)
        scores = self._objective.init_scores(len(features))
        for round_ in self._rounds[: self.best_iteration_]:
            for k, tree in enumerate(round_.trees):
                scores[:, k] += self.params.learning_rate * tree.predict(features)
        return scores

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        if self._objective is None:
            raise NotFittedError("GradientBoostingClassifier not fitted")
        return self._objective.predict_proba(self._raw_scores(features))

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self.predict_proba(features).argmax(axis=1)

    # -- introspection ------------------------------------------------------------

    @property
    def feature_importances_(self) -> np.ndarray:
        """Total split gain per feature, normalised to sum to 1."""
        if self._objective is None:
            raise NotFittedError("GradientBoostingClassifier not fitted")
        gains = np.zeros(self.num_features_)
        for round_ in self._rounds[: self.best_iteration_]:
            for tree in round_.trees:
                for feature, gain in tree.feature_gains.items():
                    gains[feature] += gain
        total = gains.sum()
        return gains / total if total > 0 else gains
