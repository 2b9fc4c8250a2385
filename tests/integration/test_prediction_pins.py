"""Cross-commit pin of the five baselines' outputs at a toy budget.

The benchmark checks that fits of one commit agree with each other; this
test checks that they agree with the commit that recorded the digests.
A change meant to keep the arithmetic (a fused kernel, a faster
tokenizer, a cache) must leave every digest here as it is. A change that
moves them on purpose records the new values and says why.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.config import CorpusConfig, SplitConfig
from repro.core.pipeline import build_dataset
from repro.models.registry import TABLE3_ORDER, create_model

SEED = 1
SCALE = 0.02
EPOCHS = 3

#: sha256 of each model's int64 test predictions (``<name>``) and of its
#: float64 ``predict_proba`` over every window of the three splits
#: (``<name>.proba``; at this budget most models predict one class on
#: the few test windows, so the probabilities are the sharper pin).
PINS = {
    "xgboost": "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
    "xgboost.proba": "f9b8f7aeb8f97e5ca0bc1287af8386a083458c4cdd926af12094f432429ab18a",
    "bilstm": "87d82d155685fda42f606911efa50ac195bef4be188fcd1ecdb773d60e88ae5f",
    "bilstm.proba": "9eef1f426c523d519aacaff08cb6cdbc63f6593b0394f5ebb76659cd7a9639e1",
    "higru": "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
    "higru.proba": "ebabe309dacea06eff15838bb2b9866589618f5c0fa1a5ef4e7bccb91777e084",
    "roberta": "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
    "roberta.proba": "9d20b11e83105ec4a25c2c0b4824124758c788347c6e3abce94bf94565272230",
    "deberta": "605390e5a369ee568b19ead1733af824c7c1d286d7d24b86283238fc44a99334",
    "deberta.proba": "c19fb2ae9cd57e1c625822002201c29b5350eece0b64272be958868d416d4347",
}


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _label_complete_splits(dataset):
    """The first split seed from ``SEED`` up whose training part holds
    every label, so gradient boosting never meets an unseen class."""
    for split_seed in range(SEED, SEED + 100):
        splits = dataset.splits(split_config=SplitConfig(seed=split_seed))
        parts = (splits.train, splits.validation, splits.test)
        labels = {int(w.label) for part in parts for w in part}
        if {int(w.label) for w in splits.train} == labels:
            return splits
    raise AssertionError("no label-complete split")


def output_digests() -> dict[str, str]:
    config = dataclasses.replace(CorpusConfig().scaled(SCALE), seed=SEED)
    dataset = build_dataset(config, near_dedup=False).dataset
    splits = _label_complete_splits(dataset)
    windows = splits.train + splits.validation + splits.test
    digests = {}
    for name in TABLE3_ORDER:
        kwargs = {}
        if name in ("roberta", "deberta"):
            kwargs = {"pretrain_texts": dataset.pretrain_texts[:100],
                      "pretrain_steps": 2}
        model = create_model(name, **kwargs)
        if hasattr(model, "trainer"):
            model.trainer = dataclasses.replace(
                model.trainer, epochs=EPOCHS, patience=EPOCHS + 1
            )
        model.fit(splits.train, splits.validation)
        predictions = np.asarray(model.predict(splits.test), dtype=np.int64)
        digests[name] = _sha256(predictions)
        digests[f"{name}.proba"] = _sha256(model.predict_proba(windows))
    return digests


@pytest.fixture(scope="module")
def digests():
    return output_digests()


@pytest.mark.parametrize("key", sorted(PINS))
def test_output_is_pinned(digests, key):
    assert digests[key] == PINS[key]


if __name__ == "__main__":
    for key, value in output_digests().items():
        print(f'    "{key}": "{value}",')
