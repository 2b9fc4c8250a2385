"""From-scratch gradient-boosted trees (XGBoost-style)."""

from repro.boosting.gbm import GBMParams, GradientBoostingClassifier
from repro.boosting.objectives import SoftmaxObjective, softmax
from repro.boosting.tree import RegressionTree, TreeParams

__all__ = [
    "GBMParams",
    "GradientBoostingClassifier",
    "SoftmaxObjective",
    "softmax",
    "RegressionTree",
    "TreeParams",
]
