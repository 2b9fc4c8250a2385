"""Broadcast MinHash signatures must be bitwise equal to the loop version."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.preprocess import dedup
from repro.preprocess.dedup import MinHasher, shingles

TEXTS = [
    "the quick brown fox jumps over the lazy dog and naps afterwards",
    "",
    "one",
    "two words",
    "the quick brown fox jumps over the lazy cat and naps afterwards",
    "!!!",
    " ".join(f"w{i}" for i in range(40)),
    "the quick brown fox jumps over the lazy dog and naps afterwards",
]


def _assert_batch_matches_reference(hasher, sets):
    batch = hasher.signatures(sets)
    assert batch.dtype == np.uint64
    assert batch.shape == (len(sets), hasher.num_perm)
    for row, shingle_set in zip(batch, sets):
        np.testing.assert_array_equal(
            row, hasher._signature_reference(shingle_set)
        )


class TestSignatureEquivalence:
    @pytest.mark.parametrize("num_perm", [16, 64, 128])
    def test_bitwise_equal(self, num_perm):
        hasher = MinHasher(num_perm=num_perm)
        s = shingles(
            "the quick brown fox jumps over the lazy dog and naps afterwards"
        )
        fast = hasher.signature(s)
        slow = hasher._signature_reference(s)
        assert fast.dtype == slow.dtype == np.uint64
        np.testing.assert_array_equal(fast, slow)

    def test_empty_set(self):
        hasher = MinHasher(num_perm=16)
        np.testing.assert_array_equal(
            hasher.signature(set()), hasher._signature_reference(set())
        )

    def test_single_shingle(self):
        hasher = MinHasher(num_perm=32)
        np.testing.assert_array_equal(
            hasher.signature({"only"}), hasher._signature_reference({"only"})
        )

    @settings(max_examples=30, deadline=None)
    @given(st.text(alphabet="abcdefgh ", min_size=0, max_size=80))
    def test_property_bitwise_equal(self, text):
        hasher = MinHasher(num_perm=16)
        s = shingles(text)
        np.testing.assert_array_equal(
            hasher.signature(s), hasher._signature_reference(s)
        )


class TestBatchedSignatures:
    @pytest.mark.parametrize("num_perm", [16, 64])
    def test_batch_equals_reference(self, num_perm):
        hasher = MinHasher(num_perm=num_perm)
        sets = [shingles(t) for t in TEXTS] + [set(), {"only"}, set()]
        _assert_batch_matches_reference(hasher, sets)

    @pytest.mark.parametrize("block_rows", [1, 3, 7, 38])
    def test_blocks_cross_set_boundaries(self, monkeypatch, block_rows):
        # Blocks smaller than one set, ending inside a set, and spanning
        # several sets (with empty sets between them) all give the same
        # signatures.
        monkeypatch.setattr(dedup, "_BLOCK_ROWS", block_rows)
        hasher = MinHasher(num_perm=32)
        sets = [set()] + [shingles(t) for t in TEXTS] + [set(), set(), {"x"}]
        _assert_batch_matches_reference(hasher, sets)

    @pytest.mark.parametrize("table_values", [1, 150, 275, 385, 10**6])
    @pytest.mark.parametrize("block_rows", [1, 3, 38, 1024])
    def test_permutation_slices(self, monkeypatch, table_values, block_rows):
        # With 55 distinct shingles: slices of 1, 2, 5 and 7 permutations
        # (the last two do not divide num_perm) and the whole table, each
        # with blocks inside, across and around sets.
        monkeypatch.setattr(dedup, "_TABLE_VALUES", table_values)
        monkeypatch.setattr(dedup, "_BLOCK_ROWS", block_rows)
        hasher = MinHasher(num_perm=24)
        sets = [set()] + [shingles(t) for t in TEXTS] + [set(), {"x"}, {"only"}]
        _assert_batch_matches_reference(hasher, sets)

    def test_empty_batch_and_all_empty_sets(self):
        hasher = MinHasher(num_perm=16)
        assert hasher.signatures([]).shape == (0, 16)
        _assert_batch_matches_reference(hasher, [set(), set()])

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.text(alphabet="abcd ", min_size=0, max_size=40), max_size=12),
        st.integers(1, 20),
    )
    def test_property_batch_equals_reference(self, texts, block_rows):
        hasher = MinHasher(num_perm=16)
        original = dedup._BLOCK_ROWS
        dedup._BLOCK_ROWS = block_rows
        try:
            _assert_batch_matches_reference(hasher, [shingles(t) for t in texts])
        finally:
            dedup._BLOCK_ROWS = original

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.text(alphabet="abcd ", min_size=0, max_size=40), max_size=12),
        st.integers(1, 20),
        st.integers(1, 200),
    )
    def test_property_sliced_batch_equals_reference(
        self, texts, block_rows, table_values
    ):
        hasher = MinHasher(num_perm=16)
        saved = dedup._BLOCK_ROWS, dedup._TABLE_VALUES
        dedup._BLOCK_ROWS, dedup._TABLE_VALUES = block_rows, table_values
        try:
            _assert_batch_matches_reference(hasher, [shingles(t) for t in texts])
        finally:
            dedup._BLOCK_ROWS, dedup._TABLE_VALUES = saved
