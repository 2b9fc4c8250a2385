"""export_state/import_state: round-trip every registry model.

The contract behind the serving worker pool: a fitted model, flattened
to skeleton + weight arena and rebuilt over frombuffer views, must
predict *identically* — bitwise, not approximately — because pool
workers are supposed to be indistinguishable from the exporting
process.
"""

import numpy as np
import pytest

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
    export_state,
    import_state,
)
from repro.models.deberta import DebertaRiskModel

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


@pytest.mark.parametrize("name", [*TABLE3_ORDER, "logreg"])
class TestRoundTrip:
    def test_bitwise_identical_predictions(self, name, fitted, tiny_splits):
        _, _, test = tiny_splits
        model = fitted[name]
        state = export_state(model)
        clone = import_state(state.skeleton, state.manifest, state.arena)
        np.testing.assert_array_equal(
            clone.predict_proba(test), model.predict_proba(test)
        )
        np.testing.assert_array_equal(clone.predict(test), model.predict(test))

    def test_arena_holds_the_weights(self, name, fitted):
        state = export_state(fitted[name])
        assert state.nbytes > 0
        assert len(state.manifest["entries"]) > 0
        assert state.manifest["model_class"] == type(fitted[name]).__name__


class TestContract:
    def test_unfitted_model_rejected(self):
        with pytest.raises(NotFittedError):
            export_state(_tiny_model("logreg"))

    def test_non_model_rejected(self):
        with pytest.raises(ModelError):
            export_state({"weights": np.ones(3)})

    def test_wrong_version_rejected(self, fitted):
        state = export_state(fitted["logreg"])
        bad = dict(state.manifest, state_version=999)
        with pytest.raises(ModelError):
            import_state(state.skeleton, bad, state.arena)

    def test_copy_mode_detaches_from_buffer(self, fitted, tiny_splits):
        _, _, test = tiny_splits
        model = fitted["logreg"]
        state = export_state(model)
        clone = import_state(
            state.skeleton, state.manifest, state.arena, copy=True
        )
        state.arena[:] = 0  # scribble over the buffer
        np.testing.assert_array_equal(
            clone.predict_proba(test), model.predict_proba(test)
        )
