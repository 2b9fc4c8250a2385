"""Batched TF-IDF transform vs the per-document Counter reference."""

import numpy as np
import pytest

from repro.text.tfidf import TfidfVectorizer

DOCS = [
    "the cat sat on the mat",
    "the dog sat on the log",
    "cats and dogs and cats again",
    "a completely unrelated sentence about boats",
    "the the the repeated token stress test the",
]


def assert_same_matrix(fast, slow):
    """Same shape and nonzero pattern; values within 1e-8."""
    assert fast.shape == slow.shape
    assert fast.dtype == slow.dtype == np.float64
    np.testing.assert_array_equal(fast != 0.0, slow != 0.0)
    np.testing.assert_allclose(fast, slow, atol=1e-8)


class TestTransformEquivalence:
    @pytest.mark.parametrize("sublinear", [True, False])
    def test_matches_reference(self, sublinear):
        vec = TfidfVectorizer(
            min_df=1, sublinear_tf=sublinear, drop_stopwords=False
        )
        vec.fit(DOCS)
        assert_same_matrix(vec.transform(DOCS), vec._transform_reference(DOCS))

    def test_bigrams_match(self):
        vec = TfidfVectorizer(min_df=1, ngram_range=(1, 2), drop_stopwords=False)
        vec.fit(DOCS)
        assert_same_matrix(vec.transform(DOCS), vec._transform_reference(DOCS))

    def test_out_of_vocabulary_and_empty_docs(self):
        vec = TfidfVectorizer(min_df=1, drop_stopwords=False)
        vec.fit(DOCS)
        queries = ["", "zzz qqq unseen tokens only", "the cat", "   "]
        assert_same_matrix(
            vec.transform(queries), vec._transform_reference(queries)
        )

    def test_all_empty_batch(self):
        vec = TfidfVectorizer(min_df=1, drop_stopwords=False)
        vec.fit(DOCS)
        fast = vec.transform(["", ""])
        slow = vec._transform_reference(["", ""])
        assert fast.shape == slow.shape
        assert not fast.any() and not slow.any()

    def test_fit_then_transform_rows_are_unit_norm(self):
        vec = TfidfVectorizer(min_df=1, drop_stopwords=False)
        matrix = vec.fit(DOCS).transform(DOCS)
        norms = np.linalg.norm(matrix, axis=1)
        np.testing.assert_allclose(norms[norms > 0], 1.0, atol=1e-8)
