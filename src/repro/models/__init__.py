"""The five Table III baseline models."""

from repro.models.base import RiskModel, window_labels
from repro.models.bilstm import BiLSTMNetwork, TimeAwareBiLSTM
from repro.models.deberta import DebertaRiskModel, DebertaRiskNetwork
from repro.models.features import FeatureFramework
from repro.models.higru import HiGRU, HiGRUNetwork, TimeAwareAttention
from repro.models.neural_common import (
    EncodedWindows,
    TextPipeline,
    TrainerConfig,
    TrainingHistory,
    predict_classifier,
    train_classifier,
)
from repro.models.plm import (
    MLMHead,
    MLMResult,
    PLMConfig,
    mask_tokens,
    pretrain_mlm,
)
from repro.models.registry import (
    TABLE3_ORDER,
    create_model,
)
from repro.models.roberta import RobertaRiskModel, RobertaRiskNetwork
from repro.models.xgboost_baseline import XGBoostBaseline

__all__ = [
    "RiskModel",
    "window_labels",
    "BiLSTMNetwork",
    "TimeAwareBiLSTM",
    "DebertaRiskModel",
    "DebertaRiskNetwork",
    "FeatureFramework",
    "HiGRU",
    "HiGRUNetwork",
    "TimeAwareAttention",
    "EncodedWindows",
    "TextPipeline",
    "TrainerConfig",
    "TrainingHistory",
    "predict_classifier",
    "train_classifier",
    "MLMHead",
    "MLMResult",
    "PLMConfig",
    "mask_tokens",
    "pretrain_mlm",
    "TABLE3_ORDER",
    "create_model",
    "RobertaRiskModel",
    "RobertaRiskNetwork",
    "XGBoostBaseline",
]
