"""Factory for the five Table III baselines."""

from __future__ import annotations

from collections.abc import Callable

from repro.core.errors import ModelError
from repro.models.base import RiskModel
from repro.models.bilstm import TimeAwareBiLSTM
from repro.models.deberta import DebertaRiskModel
from repro.models.higru import HiGRU
from repro.models.logistic import LogisticBaseline
from repro.models.roberta import RobertaRiskModel
from repro.models.xgboost_baseline import XGBoostBaseline

_REGISTRY: dict[str, Callable[..., RiskModel]] = {
    "xgboost": XGBoostBaseline,
    "bilstm": TimeAwareBiLSTM,
    "higru": HiGRU,
    "roberta": RobertaRiskModel,
    "deberta": DebertaRiskModel,
    # Extensions beyond the paper's five baselines:
    "logreg": LogisticBaseline,
}

#: Paper order of the Table III rows.
TABLE3_ORDER = ("xgboost", "bilstm", "higru", "roberta", "deberta")


def create_model(name: str, **kwargs) -> RiskModel:
    """Instantiate a baseline by key (case-insensitive)."""
    key = name.strip().lower()
    if key not in _REGISTRY:
        raise ModelError(
            f"unknown model {name!r}; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[key](**kwargs)
