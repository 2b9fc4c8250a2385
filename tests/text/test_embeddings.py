"""Tests for skip-gram negative-sampling embeddings."""

import numpy as np
import pytest

from repro.text.embeddings import (
    SGNSConfig,
    SkipGramEmbeddings,
    train_embeddings,
)
from repro.text.vocab import Vocabulary

# A corpus with obvious co-occurrence structure: 'cat'/'dog' share contexts,
# 'stock'/'bond' share different contexts.
ANIMAL = ["the cat chased the ball", "the dog chased the ball",
          "a cat sleeps all day", "a dog sleeps all day"]
FINANCE = ["the stock market rallied today", "the bond market rallied today",
           "buy stock and hold it", "buy bond and hold it"]
CORPUS = (ANIMAL + FINANCE) * 30


def _cosine(embeddings, a, b):
    vectors = embeddings.vectors
    va, vb = (vectors[embeddings.vocab.id_of(t)] for t in (a, b))
    return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))


@pytest.fixture(scope="module")
def embeddings():
    config = SGNSConfig(dim=24, epochs=3, window=2, seed=3)
    return train_embeddings(CORPUS, config=config)


class TestTraining:
    def test_loss_decreases(self, embeddings):
        pass  # trained in fixture; loss check below uses fresh run

    def test_loss_trace_decreases(self):
        config = SGNSConfig(dim=16, epochs=2, seed=0)
        emb = train_embeddings(CORPUS, config=config)
        # compare first-decile mean to last-decile mean
        # (individual batches are noisy)
        # Re-run train to capture trace:
        from repro.text.tokenizer import WordTokenizer
        vocab = emb.vocab
        tok = WordTokenizer()
        seqs = [[vocab.id_of(t) for t in tok(x)] for x in CORPUS]
        fresh = SkipGramEmbeddings(vocab, config)
        result = fresh.train(seqs)
        n = len(result.losses)
        assert np.mean(result.losses[-n // 5 :]) < np.mean(
            result.losses[: n // 5]
        )

    def test_vector_shapes(self, embeddings):
        assert embeddings.vectors.shape == (len(embeddings.vocab), 24)

    def test_empty_corpus_rejected(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(ValueError):
            SkipGramEmbeddings(vocab).train([])


class TestSemantics:
    def test_shared_context_words_are_similar(self, embeddings):
        same_domain = _cosine(embeddings, "cat", "dog")
        cross_domain = _cosine(embeddings, "cat", "stock")
        assert same_domain > cross_domain

    def test_most_similar_finds_paradigm_mate(self, embeddings):
        vocab = embeddings.vocab
        others = [t for t in vocab.tokens()[vocab.num_special:] if t != "stock"]
        others.sort(key=lambda t: -_cosine(embeddings, "stock", t))
        assert "bond" in others[:3]
