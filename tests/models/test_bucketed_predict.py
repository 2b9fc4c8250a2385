"""Length-bucketed prediction: same outputs, less padding."""

import numpy as np
import pytest

from repro.models.neural_common import (
    TextPipeline,
    TrainerConfig,
    bucketed_batches,
    flat_lengths,
    predict_classifier,
    predict_proba_classifier,
)


def test_bucketed_batches_cover_all_indices():
    lengths = np.array([5, 1, 9, 3, 7, 2, 8, 4])
    batches = bucketed_batches(lengths, batch_size=3)
    flat = np.concatenate(batches)
    assert sorted(flat.tolist()) == list(range(8))
    assert all(len(b) <= 3 for b in batches)


def test_bucketed_batches_sorted_by_length():
    lengths = np.array([5, 1, 9, 3])
    batches = bucketed_batches(lengths, batch_size=2)
    order = np.concatenate(batches)
    assert np.all(np.diff(lengths[order]) >= 0)


def test_bucketed_batches_stable_for_ties():
    lengths = np.array([4, 4, 4, 4])
    batches = bucketed_batches(lengths, batch_size=2)
    assert np.concatenate(batches).tolist() == [0, 1, 2, 3]


def test_flat_lengths_counts_eos_per_post(small_splits):
    pipeline = TextPipeline().fit(small_splits.train)
    encoded = pipeline.encode(small_splits.train[:5])
    lengths = flat_lengths(encoded)
    expected = [
        sum(len(ids) + 1 for ids in posts)
        for posts in encoded.post_token_ids
    ]
    assert lengths.tolist() == expected


@pytest.fixture(scope="module")
def tiny_roberta(small_splits, small_dataset):
    from repro.models.plm import PLMConfig
    from repro.models.roberta import RobertaRiskModel

    model = RobertaRiskModel(
        config=PLMConfig(dim=16, num_layers=1, num_heads=2, ffn_hidden=32,
                         max_len=64),
        trainer=TrainerConfig(epochs=1, batch_size=8, patience=2, seed=0),
        pretrain_texts=small_dataset.pretrain_texts[:300],
        pretrain_steps=2,
        seed=0,
    )
    model.fit(small_splits.train, small_splits.validation)
    return model


def test_bucketed_predict_matches_unbucketed(tiny_roberta, small_splits):
    windows = small_splits.train[:20]
    encoded = tiny_roberta.pipeline.encode(windows)
    kwargs = dict(batch_size=4)
    labels_b = predict_classifier(
        tiny_roberta.network, tiny_roberta._forward, encoded,
        bucket_by_length=True, **kwargs,
    )
    labels_u = predict_classifier(
        tiny_roberta.network, tiny_roberta._forward, encoded,
        bucket_by_length=False, **kwargs,
    )
    # Labels are bitwise identical; probabilities may differ by summation
    # -order noise because padded widths change BLAS reduction trees.
    np.testing.assert_array_equal(labels_b, labels_u)
    probs_b = predict_proba_classifier(
        tiny_roberta.network, tiny_roberta._forward, encoded,
        bucket_by_length=True, **kwargs,
    )
    probs_u = predict_proba_classifier(
        tiny_roberta.network, tiny_roberta._forward, encoded,
        bucket_by_length=False, **kwargs,
    )
    np.testing.assert_allclose(probs_b, probs_u, atol=1e-12)
    assert probs_b.shape == (len(windows), 4)
    np.testing.assert_allclose(probs_b.sum(axis=1), 1.0)


def test_bucketed_batch_composition_is_deterministic(tiny_roberta, small_splits):
    encoded = tiny_roberta.pipeline.encode(small_splits.train[:20])
    first = predict_proba_classifier(
        tiny_roberta.network, tiny_roberta._forward, encoded, batch_size=4
    )
    second = predict_proba_classifier(
        tiny_roberta.network, tiny_roberta._forward, encoded, batch_size=4
    )
    np.testing.assert_array_equal(first, second)
