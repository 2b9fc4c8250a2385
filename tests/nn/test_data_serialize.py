"""Tests for the padding utility."""

from repro.nn import pad_sequences


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
