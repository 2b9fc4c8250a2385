"""Tests for word/sentence tokenisation."""

import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.preprocess.normalize import normalise, normalise_reference
from repro.text.tokenizer import (
    STOPWORDS,
    WordTokenizer,
    content_words,
    sentences,
)


class TestWordTokenizer:
    def test_basic_split(self):
        assert WordTokenizer()("hello world") == ["hello", "world"]

    def test_lowercases(self):
        assert WordTokenizer()("Hello WORLD") == ["hello", "world"]

    def test_contractions_expanded(self):
        assert WordTokenizer()("I can't") == ["i", "can", "not"]

    def test_punctuation_dropped_by_default(self):
        assert WordTokenizer()("stop. now!") == ["stop", "now"]

    def test_punctuation_kept_when_requested(self):
        tokens = WordTokenizer(keep_punctuation=True)("stop. now!")
        assert "." in tokens and "!" in tokens

    def test_numbers_preserved(self):
        assert "42" in WordTokenizer()("I am 42 years old")

    def test_empty_text(self):
        assert WordTokenizer()("") == []

    def test_apostrophe_words(self):
        # Possessives survive as single tokens after normalisation.
        tokens = WordTokenizer()("my friend's note")
        assert "friend's" in tokens


class TestSentences:
    def test_splits_on_terminals(self):
        got = sentences("First one. Second one! Third one?")
        assert len(got) == 3

    def test_single_sentence(self):
        assert sentences("just one") == ["just one"]

    def test_empty(self):
        assert sentences("  ") == []


class TestContentWords:
    def test_removes_stopwords(self):
        got = content_words("I am not the only one feeling hopeless")
        assert "the" not in got
        assert "hopeless" in got

    def test_removes_digits(self):
        assert "42" not in content_words("42 days of feeling empty")

    def test_stopword_list_sane(self):
        assert "the" in STOPWORDS
        assert "hopeless" not in STOPWORDS


# Characters where the fast paths could part from the reference: the
# apostrophe and its fullwidth / typographic forms, the separators
# \x1c-\x1f that str.split and the regex class both count as whitespace,
# NFKC-changing forms (ligatures, fullwidth letters and digits,
# superscripts, compatibility spaces), case-folding oddities, punctuation
# and the contraction trigger "cannot".
_TRICKY = st.sampled_from(
    list("aZ9 \t\n'!?.\x1c\x1d\x1e\x1f\x85\xa0 　")
    + list("＇’ａＡ０ﬁ²İKß")
    + ["cannot", "CANNOT", "can't", "won＇t", "n't", "I'M", "it's"]
)
_TEXT = st.lists(st.one_of(_TRICKY, st.text(max_size=3)), max_size=12).map(
    "".join
)


class TestFastPathsMatchReference:
    def test_split_and_regex_share_whitespace(self):
        space = re.compile(r"\s")
        assert all(
            bool(space.match(chr(c))) == chr(c).isspace()
            for c in range(sys.maxunicode + 1)
        )

    @settings(max_examples=400, deadline=None)
    @given(_TEXT)
    def test_normalise(self, text):
        assert normalise(text) == normalise_reference(text)

    @settings(max_examples=400, deadline=None)
    @given(_TEXT, st.booleans())
    def test_tokenize(self, text, keep_punctuation):
        tokenizer = WordTokenizer(keep_punctuation=keep_punctuation)
        assert tokenizer.tokenize(text) == tokenizer.tokenize_reference(text)

    def test_corpus_texts(self, small_corpus):
        tokenizer = WordTokenizer()
        for post in small_corpus.raw_posts[:3000]:
            assert tokenizer(post.text) == tokenizer.tokenize_reference(post.text)
