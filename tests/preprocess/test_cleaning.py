"""Tests for noise stripping and relevance filtering."""

import re
import unicodedata
from datetime import datetime, timezone

import pytest

from repro.corpus.lexicon import NOISE_FRAGMENTS, OFFTOPIC_SENTENCES
from repro.corpus.models import RedditPost
from repro.preprocess.cleaning import (
    _BRACKET_TAG_RE,
    _HASHTAG_RE,
    _OFFTOPIC_PATTERNS,
    _RELEVANCE_TERMS,
    _REPEAT_PUNCT_RE,
    _URL_RE,
    _ZERO_WIDTH,
    clean_and_filter,
    clean_post,
    is_relevant,
    relevance_score,
    strip_noise,
)

#: Texts for the gated fast paths: off-topic and distress sentences, each
#: noise fragment, and non-ASCII text that case-insensitive matching
#: folds onto the patterns (long s, Kelvin sign).
GATE_TEXTS = (
    OFFTOPIC_SENTENCES
    + NOISE_FRAGMENTS
    + (
        "I feel hopeless, anyone watching the game tonight?",
        "Promo Code inside, I am so tired of everything",
        "ſelling my laptop, feeling hopeless and alone",
        "\u212ailled it at the game tonight, so exhausted",
        "Visit WWW.Example.com #a #b now!!!   hopeless\u00a0and\tnumb ",
        "HTTPS://x.example [Removed by mod] \u200bsuicidal  ",
        "",
    )
)


def _relevance_reference(text):
    lowered = text.lower()
    hits = sum(1 for term in _RELEVANCE_TERMS if term in lowered)
    penalties = sum(1 for pat in _OFFTOPIC_PATTERNS if pat.search(lowered))
    return max(0.0, min(1.0, (hits - 2 * penalties) / 3.0))


def _strip_noise_reference(text):
    text = unicodedata.normalize("NFKC", text).translate(_ZERO_WIDTH)
    text = _URL_RE.sub(" ", text)
    text = _HASHTAG_RE.sub(" ", text)
    text = _BRACKET_TAG_RE.sub(" ", text)
    text = _REPEAT_PUNCT_RE.sub(r"\1", text)
    return re.sub(r"\s+", " ", text).strip()


class TestGatedFastPaths:
    @pytest.mark.parametrize("text", GATE_TEXTS)
    def test_relevance_equals_ungated_count(self, text):
        for variant in (text, text.upper(), strip_noise(text)):
            assert relevance_score(variant) == _relevance_reference(variant)

    @pytest.mark.parametrize("text", GATE_TEXTS)
    def test_strip_noise_equals_unconditional_subs(self, text):
        for variant in (text, text.upper(), "a " + text + " #x #y"):
            assert strip_noise(variant) == _strip_noise_reference(variant)


def make_post(body, title="title"):
    return RedditPost(
        post_id="x1",
        author="a",
        subreddit="SuicideWatch",
        title=title,
        body=body,
        created_utc=datetime(2020, 5, 1, tzinfo=timezone.utc),
    )


class TestStripNoise:
    def test_removes_urls(self):
        assert "http" not in strip_noise("see http://spam.example/x now")
        assert "www" not in strip_noise("go to www.spam.example please")

    def test_removes_zero_width_chars(self):
        assert strip_noise("he​llo") == "hello"

    def test_collapses_repeated_punctuation(self):
        assert strip_noise("help!!!!!!") == "help!"
        assert strip_noise("what????") == "what?"

    def test_removes_hashtag_runs(self):
        out = strip_noise("I feel low #help #advice #late")
        assert "#help" not in out

    def test_removes_removed_tags(self):
        assert "[removed" not in strip_noise("text [removed by editor] more")

    def test_collapses_whitespace(self):
        assert strip_noise("a   b\n\n c") == "a b c"

    def test_plain_text_untouched(self):
        assert strip_noise("I feel exhausted tonight.") == (
            "I feel exhausted tonight."
        )


class TestRelevance:
    def test_distress_text_is_relevant(self):
        assert is_relevant(
            "I feel hopeless and alone, I keep thinking about suicide"
        )

    def test_commercial_text_is_irrelevant(self):
        assert not is_relevant("Selling two concert tickets, DM me, promo code")

    def test_scores_bounded(self):
        assert 0.0 <= relevance_score("anything at all") <= 1.0

    def test_dealing_does_not_trigger_deal_penalty(self):
        text = "I have been dealing with everything alone and feel hopeless"
        assert relevance_score(text) > 0.0

    def test_empty_text_irrelevant(self):
        assert not is_relevant("")


class TestCleanAndFilter:
    def test_drops_offtopic(self):
        posts = [
            make_post("I feel worthless and want to disappear"),
            make_post("Best pizza place near campus? Also selling tickets"),
        ]
        kept, dropped = clean_and_filter(posts)
        assert len(kept) == 1
        assert dropped == 1

    def test_clean_post_returns_copy(self):
        post = make_post("body http://x.example/1")
        cleaned = clean_post(post)
        assert cleaned is not post
        assert "http" in post.body  # original untouched
        assert "http" not in cleaned.body

    def test_preserves_order(self):
        posts = [
            make_post(f"I feel hopeless and alone, day {i}") for i in range(5)
        ]
        kept, _ = clean_and_filter(posts)
        assert [p.post_id for p in kept] == [p.post_id for p in posts]

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 1.0])
    def test_threshold_monotone(self, threshold):
        posts = [make_post("I feel exhausted and hopeless tonight")] * 3
        kept, _ = clean_and_filter(posts, relevance_threshold=threshold)
        assert len(kept) in (0, 3)
