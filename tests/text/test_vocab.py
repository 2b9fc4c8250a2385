"""Tests for the vocabulary."""

import pytest

from repro.text.vocab import MASK, PAD, SPECIAL_TOKENS, UNK, Vocabulary


class TestConstruction:
    def test_specials_have_fixed_ids(self):
        vocab = Vocabulary()
        assert vocab.pad_id == 0
        assert vocab.unk_id == 1
        assert vocab.bos_id == 2
        assert vocab.eos_id == 3
        assert vocab.mask_id == 4

    def test_build_frequency_sorted(self):
        vocab = Vocabulary.build([["b", "a", "a"], ["a", "b", "c"]])
        # 'a' (3) before 'b' (2) before 'c' (1)
        assert vocab.id_of("a") < vocab.id_of("b") < vocab.id_of("c")

    def test_min_freq(self):
        vocab = Vocabulary.build([["a", "a", "b"]], min_freq=2)
        assert "a" in vocab
        assert "b" not in vocab

    def test_max_size_includes_specials(self):
        vocab = Vocabulary.build([[f"w{i}" for i in range(100)]], max_size=10)
        assert len(vocab) == 10

    def test_duplicate_token_ignored(self):
        vocab = Vocabulary(["x", "x"])
        assert len(vocab) == len(SPECIAL_TOKENS) + 1


class TestMapping:
    @pytest.fixture()
    def vocab(self):
        return Vocabulary(["alpha", "beta"])

    def test_roundtrip(self, vocab):
        ids = vocab.encode(["alpha", "beta"])
        assert [vocab.tokens()[i] for i in ids] == ["alpha", "beta"]

    def test_unknown_maps_to_unk(self, vocab):
        assert vocab.id_of("gamma") == vocab.unk_id

    def test_encode_with_specials(self, vocab):
        ids = vocab.encode(["alpha"], add_special=True)
        assert ids[0] == vocab.bos_id
        assert ids[-1] == vocab.eos_id

    def test_contains(self, vocab):
        assert "alpha" in vocab
        assert "delta" not in vocab
        assert PAD in vocab and UNK in vocab and MASK in vocab

    def test_tokens_listing(self, vocab):
        tokens = vocab.tokens()
        assert tokens[:5] == list(SPECIAL_TOKENS)
        assert tokens[5:] == ["alpha", "beta"]
