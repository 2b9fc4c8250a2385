"""Interface and training-smoke tests for all five baselines.

Training budgets are tiny (2 epochs, handfuls of windows); these tests
verify the contracts — shapes, determinism, error handling — not accuracy.
"""

import numpy as np
import pytest

from repro import perf
from repro.boosting import GBMParams
from repro.core.errors import ModelError, NotFittedError
from repro.models import (
    TABLE3_ORDER,
    HiGRU,
    PLMConfig,
    RobertaRiskModel,
    TimeAwareBiLSTM,
    TrainerConfig,
    XGBoostBaseline,
    create_model,
)
from repro.models.deberta import DebertaRiskModel

TINY = TrainerConfig(epochs=2, batch_size=8, patience=5)


def tiny_model(name):
    if name == "xgboost":
        return XGBoostBaseline(
            params=GBMParams(n_estimators=5, max_depth=3),
            max_tfidf_features=50,
        )
    if name == "bilstm":
        return TimeAwareBiLSTM(trainer=TINY, embed_dim=16, hidden_dim=16,
                               max_vocab=300)
    if name == "higru":
        return HiGRU(trainer=TINY, embed_dim=16, bottom_hidden=8,
                     top_hidden=16, max_vocab=300, max_tokens=16)
    config = PLMConfig(dim=16, num_layers=1, num_heads=2, ffn_hidden=32,
                       max_len=32)
    cls = RobertaRiskModel if name == "roberta" else DebertaRiskModel
    return cls(config=config, trainer=TINY, pretrain_steps=3, max_vocab=300)


@pytest.fixture(scope="module")
def tiny_splits(small_dataset):
    splits = small_dataset.splits()
    return splits.train[:40], splits.validation[:10], splits.test[:10]


class TestRegistry:
    def test_create_model_case_insensitive(self):
        assert create_model("XGBoost").name == "XGBoost"

    def test_unknown_model_rejected(self):
        with pytest.raises(ModelError):
            create_model("gpt7")


@pytest.mark.parametrize("name", TABLE3_ORDER)
class TestBaselineContract:
    def test_fit_predict_shapes(self, name, tiny_splits):
        train, val, test = tiny_splits
        model = tiny_model(name)
        model.fit(train, val)
        pred = model.predict(test)
        assert pred.shape == (len(test),)
        assert pred.dtype == np.int64
        assert ((pred >= 0) & (pred <= 3)).all()

    def test_predict_before_fit_raises(self, name, tiny_splits):
        with pytest.raises(NotFittedError):
            tiny_model(name).predict(tiny_splits[2])

    def test_empty_train_rejected(self, name):
        with pytest.raises(ModelError):
            tiny_model(name).fit([])

    def test_predict_empty_returns_empty(self, name, tiny_splits):
        train, val, _ = tiny_splits
        model = tiny_model(name)
        model.fit(train, val)
        assert model.predict([]).shape == (0,)

    def test_fit_is_timed_under_its_model_span(self, name, tiny_splits):
        # The benchmark tracer's name: a report can say which model spent
        # the training time (nn.epoch, gbm.fit) nested under it.
        train, val, _ = tiny_splits
        perf.reset()
        tiny_model(name).fit(train, val)
        spans = perf.snapshot()["spans"]
        perf.reset()
        assert spans[f"models.fit.{name}"]["calls"] == 1
        inner = "gbm.fit" if name == "xgboost" else "nn.epoch"
        assert f"models.fit.{name}/{inner}" in spans, sorted(spans)


class TestXGBoostSpecifics:
    def test_importances_by_dimension(self, tiny_splits):
        train, val, _ = tiny_splits
        model = tiny_model("xgboost")
        model.fit(train, val)
        dims = model.dimension_importance()
        assert set(dims) == {"time", "sequence", "text"}
        assert abs(sum(dims.values()) - 1.0) < 1e-6

    def test_top_features(self, tiny_splits):
        train, val, _ = tiny_splits
        model = tiny_model("xgboost")
        model.fit(train, val)
        top = model.top_features(5)
        assert len(top) == 5
        assert top[0][1] >= top[-1][1]

    def test_predict_proba(self, tiny_splits):
        train, val, test = tiny_splits
        model = tiny_model("xgboost")
        model.fit(train, val)
        probs = model.predict_proba(test)
        assert np.allclose(probs.sum(axis=1), 1.0)


class TestNeuralSpecifics:
    def test_training_history_recorded(self, tiny_splits):
        train, val, _ = tiny_splits
        model = tiny_model("bilstm")
        model.fit(train, val)
        assert len(model.history.train_loss) >= 1
        assert len(model.history.val_macro_f1) >= 1

    def test_plm_mlm_result_exposed(self, tiny_splits):
        train, val, _ = tiny_splits
        model = tiny_model("roberta")
        model.fit(train, val)
        assert model.mlm_result is not None
        assert len(model.mlm_result.losses) == 3

    def test_plm_without_pretraining(self, tiny_splits):
        train, val, _ = tiny_splits
        model = tiny_model("deberta")
        model.pretrain_steps = 0
        model.fit(train, val)
        assert model.mlm_result is None

    def test_deterministic_predictions(self, tiny_splits):
        train, val, test = tiny_splits
        a = tiny_model("higru")
        a.fit(train, val)
        first = a.predict(test)
        second = a.predict(test)
        assert (first == second).all()
