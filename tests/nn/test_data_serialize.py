"""Tests for batching and padding utilities."""

import numpy as np
import pytest

from repro.nn import batches, pad_sequences


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
