"""Tests for noise stripping and relevance filtering."""

import math
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.lexicon import NOISE_FRAGMENTS, OFFTOPIC_SENTENCES
from repro.corpus.models import RedditPost
from repro.preprocess.cleaning import (
    _OFFTOPIC_PATTERNS,
    _OFFTOPIC_SOURCES,
    _RELEVANCE_TERMS,
    clean_and_filter,
    clean_post,
    is_relevant,
    is_relevant_reference,
    relevance_score,
    strip_noise,
    strip_noise_reference,
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


#: Pieces that the noise substitutions and the relevance filter react to:
#: bracket tags, punctuation runs (also the one NFKC makes of "…"), URLs,
#: hashtags, relevance terms, off-topic cores and non-ASCII look-alikes.
NOISE_PIECES = (
    "[removed]", "[Deleted by user]", "[removed", "[", "]", "[ot]",
    "!!!", "!!", "???", "?", "...", "..", "…", ",,,", ",,", ".,.",
    "http://x.example/a", "WWW.a.b", "www", "#a #b", "#x", "#",
    "hopeless", "alone", "Suicidal", "end my life", "can't go on", "NOTE",
    "selling", "pizza", "dm me", "deals", "ſelling", "\u212aill",
    "\u200b", "\u00a0", " ", "\n", "x", "é",
)
noisy_texts = st.one_of(
    st.lists(st.sampled_from(NOISE_PIECES), max_size=12).map("".join),
    st.lists(st.sampled_from(NOISE_PIECES), max_size=12).map(" ".join),
    st.text(max_size=60),
)
#: Thresholds around every reachable score (k/3), outside [0, 1] and NaN.
THRESHOLDS = (
    -1.0, 0.0, 1e-12, 0.3, 1 / 3, 0.34, 0.5, 2 / 3, 0.7, 1.0, 1.0001, 5.0,
    -math.inf, math.inf, math.nan,
)


class TestGatedFastPaths:
    @pytest.mark.parametrize("text", GATE_TEXTS)
    def test_relevance_equals_ungated_count(self, text):
        for variant in (text, text.upper(), strip_noise(text)):
            assert relevance_score(variant) == _relevance_reference(variant)

    @pytest.mark.parametrize("text", GATE_TEXTS)
    def test_strip_noise_equals_unconditional_subs(self, text):
        for variant in (text, text.upper(), "a " + text + " #x #y"):
            assert strip_noise(variant) == strip_noise_reference(variant)

    @settings(max_examples=300, deadline=None)
    @given(noisy_texts)
    def test_strip_noise_property(self, text):
        assert strip_noise(text) == strip_noise_reference(text)

    @pytest.mark.parametrize("text", GATE_TEXTS)
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_is_relevant_equals_score_comparison(self, text, threshold):
        for variant in (text, text.upper(), strip_noise(text)):
            assert is_relevant(variant, threshold) == is_relevant_reference(
                variant, threshold
            )
            assert is_relevant(variant, threshold) == (
                relevance_score(variant) >= threshold
            )

    @settings(max_examples=300, deadline=None)
    @given(noisy_texts, st.sampled_from(THRESHOLDS) | st.floats(-0.5, 1.5))
    def test_is_relevant_property(self, text, threshold):
        assert is_relevant(text, threshold) == is_relevant_reference(
            text, threshold
        )

    @pytest.mark.parametrize("term", _RELEVANCE_TERMS)
    def test_each_term_alone_is_one_hit(self, term):
        for text in (term, f"x {term} y", term.upper()):
            assert is_relevant(text, 0.3) == is_relevant_reference(text, 0.3)
            assert is_relevant(text, 0.3)

    @pytest.mark.parametrize("source", _OFFTOPIC_SOURCES)
    def test_offtopic_text_takes_the_full_score(self, source):
        core = source.replace("\\b", "").replace("\\", "").removesuffix("s?")
        for text in (f"hopeless {core}", f"hopeless alone numb {core}"):
            for threshold in THRESHOLDS:
                assert is_relevant(text, threshold) == is_relevant_reference(
                    text, threshold
                )


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
