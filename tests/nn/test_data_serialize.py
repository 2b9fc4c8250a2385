"""Tests for batching and padding utilities."""

import numpy as np
import pytest

from repro.nn import (
    batches,
    class_balanced_indices,
    pad_feature_sequences,
    pad_sequences,
)


class TestPadSequences:
    def test_padding_and_mask(self):
        ids, mask = pad_sequences([[1, 2, 3], [4]], pad_value=0)
        assert ids.tolist() == [[1, 2, 3], [4, 0, 0]]
        assert mask.tolist() == [[1, 1, 1], [1, 0, 0]]

    def test_truncation_keeps_tail(self):
        ids, mask = pad_sequences([[1, 2, 3, 4, 5]], max_len=3)
        assert ids.tolist() == [[3, 4, 5]]

    def test_empty_input(self):
        ids, mask = pad_sequences([])
        assert ids.shape == (0, 0)

    def test_custom_pad_value(self):
        ids, _ = pad_sequences([[1], [2, 3]], pad_value=9)
        assert ids[0, 1] == 9


class TestPadFeatures:
    def test_shape_and_mask(self):
        seqs = [np.ones((2, 4)), np.ones((5, 4))]
        out, mask = pad_feature_sequences(seqs)
        assert out.shape == (2, 5, 4)
        assert mask.sum() == 7

    def test_max_len_truncates_tail_kept(self):
        seq = np.arange(12).reshape(6, 2).astype(float)
        out, _ = pad_feature_sequences([seq], max_len=2)
        assert np.allclose(out[0], seq[-2:])


class TestBatches:
    def test_covers_everything_once(self):
        seen = np.concatenate(list(batches(10, 3)))
        assert sorted(seen.tolist()) == list(range(10))

    def test_shuffled_with_rng(self, rng):
        order = np.concatenate(list(batches(50, 10, rng=rng)))
        assert sorted(order.tolist()) == list(range(50))
        assert order.tolist() != list(range(50))

    def test_drop_last(self):
        got = list(batches(10, 3, drop_last=True))
        assert all(len(b) == 3 for b in got)
        assert len(got) == 3

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(batches(10, 0))


class TestClassBalance:
    def test_equalises_class_counts(self, rng):
        labels = np.array([0] * 50 + [1] * 5 + [2] * 10)
        idx = class_balanced_indices(labels, rng)
        balanced = labels[idx]
        counts = np.bincount(balanced)
        assert counts[0] == counts[1] == counts[2]

    def test_per_class_override(self, rng):
        labels = np.array([0, 0, 1])
        idx = class_balanced_indices(labels, rng, per_class=4)
        assert len(idx) == 8

