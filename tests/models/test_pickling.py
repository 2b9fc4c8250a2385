"""Pickle round trip of every registry model.

The contract behind the serving worker pool: a fitted model, pickled in
the parent and unpickled in a worker, must predict *identically* —
bitwise, not approximately — because pool workers are supposed to be
indistinguishable from the parent process.
"""

import pickle

import numpy as np
import pytest

from repro.boosting import GBMParams
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
from repro.serve import InferenceEngine

TINY = TrainerConfig(epochs=2, batch_size=8, patience=5)

def _tiny_model(name):
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
    if name in ("roberta", "deberta"):
        config = PLMConfig(dim=16, num_layers=1, num_heads=2, ffn_hidden=32,
                           max_len=32)
        cls = RobertaRiskModel if name == "roberta" else DebertaRiskModel
        return cls(config=config, trainer=TINY, pretrain_steps=3,
                   max_vocab=300)
    return create_model(name)


@pytest.fixture(scope="module")
def tiny_splits(small_dataset):
    splits = small_dataset.splits()
    return splits.train[:40], splits.validation[:10], splits.test[:10]


@pytest.fixture(scope="module")
def fitted(tiny_splits):
    """One fitted instance per registry model (plus logreg)."""
    train, val, _ = tiny_splits
    models = {}
    for name in [*TABLE3_ORDER, "logreg"]:
        model = _tiny_model(name)
        model.fit(train, val)
        models[name] = model
    return models


def _round_trip(model):
    return pickle.loads(pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL))


@pytest.mark.parametrize("name", [*TABLE3_ORDER, "logreg"])
class TestRoundTrip:
    def test_bitwise_identical_predictions(self, name, fitted, tiny_splits):
        _, _, test = tiny_splits
        model = fitted[name]
        clone = _round_trip(model)
        np.testing.assert_array_equal(
            clone.predict_proba(test), model.predict_proba(test)
        )
        np.testing.assert_array_equal(clone.predict(test), model.predict(test))


def test_pickles_while_an_engine_is_open(fitted, tiny_splits):
    # Serving must not change what a pickled model carries: the copy
    # encodes through the pipeline's own method and predicts the same.
    _, _, test = tiny_splits
    model = fitted["bilstm"]
    with InferenceEngine(model):
        clone = _round_trip(model)
    assert "encode_post" not in vars(clone.pipeline)
    np.testing.assert_array_equal(
        clone.predict_proba(test), model.predict_proba(test)
    )
