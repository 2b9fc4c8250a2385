"""Text cleaning and relevance filtering (paper §II-A2).

The raw crawl contains URLs, zero-width characters, excessive punctuation,
hashtag spam, and off-topic submissions. This module removes the noise and
filters posts unrelated to the suicide-risk theme.
"""

from __future__ import annotations

import re
import unicodedata

from repro.corpus.models import RedditPost

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_HASHTAG_RE = re.compile(r"(?:#\w+\s*){2,}")
_REPEAT_PUNCT_RE = re.compile(r"([!?.,])\1{2,}")
_BRACKET_TAG_RE = re.compile(r"\[(?:removed|deleted)[^\]]*\]", re.IGNORECASE)
_ZERO_WIDTH = dict.fromkeys(map(ord, "​‌‍﻿"), None)

#: First-person distress vocabulary used by the cheap relevance filter.
_RELEVANCE_TERMS = (
    "suicide", "suicidal", "die", "dying", "death", "kill", "end my life",
    "ending it", "self harm", "self-harm", "hurt myself", "attempt",
    "hopeless", "worthless", "can't go on", "goodbye", "note", "crisis",
    "depress", "anxious", "anxiety", "therapy", "therapist", "hotline",
    "alone", "exhausted", "numb", "trapped", "overwhelmed", "struggling",
    "vent", "tired of", "wish i", "want out", "disappear", "not wake up",
    "hollow", "isolated", "defeated", "drained", "invisible", "restless",
    "heavy", "pointless", "hospital", "recover", "survived", "scars",
    "worried about", "talking about", "wish to be gone", "not exist",
    "be alive", "no plan", "support", "resources", "help", "safe",
    "counselor", "hurting", "struggle", "off my chest", "gone",
)
#: Finds any one relevance term in a single pass.
_ANY_TERM_RE = re.compile("|".join(map(re.escape, _RELEVANCE_TERMS)))

#: Patterns typical of commercial / off-topic content (regexes, word-bounded
#: where a bare word would otherwise shadow distress vocabulary).
_OFFTOPIC_SOURCES = (
    r"promo code", r"dm me", r"for sale", r"\bselling\b", r"\btickets\b",
    r"\bdiscount\b", r"\bdeals?\b", r"recommendations for a",
    r"study group", r"the game tonight", r"\bpizza\b", r"\blaptop\b",
    r"\brouter\b", r"\[ot\]",
)
_OFFTOPIC_PATTERNS = tuple(
    re.compile(pat, re.IGNORECASE) for pat in _OFFTOPIC_SOURCES
)
#: One case-sensitive search for the literal core of every pattern (its
#: ``\b`` anchors and a trailing ``s?`` dropped). Most posts match none of
#: the patterns, so this gates the per-pattern count. On lower-cased ASCII
#: text it matches wherever a pattern does; outside ASCII, case-insensitive
#: matching has extra equivalences (``ſ`` matches ``s``), so such text
#: always takes the full count. A plain alternation runs far faster than an
#: ``IGNORECASE`` one, which cannot skip ahead by first character.
_OFFTOPIC_GATE = re.compile(
    "|".join(pat.replace(r"\b", "").removesuffix("s?") for pat in _OFFTOPIC_SOURCES)
)


def strip_noise(text: str) -> str:
    """Remove URLs, zero-width chars, hashtag runs, repeated punctuation."""
    text = unicodedata.normalize("NFKC", text)
    text = text.translate(_ZERO_WIDTH)
    # Each substitution runs only where it can match: a URL needs "://"
    # or a case-insensitive "www.", a hashtag run "#", a bracket tag "[",
    # a punctuation run three equal characters.
    if "://" in text or "www." in text.lower():
        text = _URL_RE.sub(" ", text)
    if "#" in text:
        text = _HASHTAG_RE.sub(" ", text)
    if "[" in text:
        text = _BRACKET_TAG_RE.sub(" ", text)
    if "!!!" in text or "???" in text or "..." in text or ",,," in text:
        text = _REPEAT_PUNCT_RE.sub(r"\1", text)
    # str.split() and the regex \s agree on every code point.
    return " ".join(text.split())


def strip_noise_reference(text: str) -> str:
    """Reference twin of :func:`strip_noise`: every substitution, always,
    and whitespace collapsed by regex."""
    text = unicodedata.normalize("NFKC", text).translate(_ZERO_WIDTH)
    text = _URL_RE.sub(" ", text)
    text = _HASHTAG_RE.sub(" ", text)
    text = _BRACKET_TAG_RE.sub(" ", text)
    text = _REPEAT_PUNCT_RE.sub(r"\1", text)
    return re.sub(r"\s+", " ", text).strip()


def _score(raw: int) -> float:
    """Relevance score of ``raw`` = hits − 2·penalties."""
    return max(0.0, min(1.0, raw / 3.0))


def relevance_score(text: str) -> float:
    """Crude lexical relevance score in [0, 1].

    Counts distress-vocabulary hits and penalises off-topic/commercial
    patterns. A score of 0 means certainly off-topic.
    """
    lowered = text.lower()
    hits = sum(map(lowered.__contains__, _RELEVANCE_TERMS))
    penalties = 0
    if not lowered.isascii() or _OFFTOPIC_GATE.search(lowered):
        penalties = sum(1 for pat in _OFFTOPIC_PATTERNS if pat.search(lowered))
    return _score(hits - 2 * penalties)


def is_relevant(text: str, threshold: float = 0.3) -> bool:
    """Whether a post passes the suicide-risk-theme relevance filter.

    When one term hit is the fewest that clears ``threshold`` (as at the
    default) and the text is lower-cased ASCII that the off-topic gate
    clears, no penalty applies and the score grows with the hits, so one
    alternation search over every term answers. Any other text or
    threshold takes :func:`relevance_score`. Equal to
    :func:`is_relevant_reference` on every text and threshold.
    """
    if not _score(0) >= threshold and _score(1) >= threshold:
        lowered = text.lower()
        if lowered.isascii() and not _OFFTOPIC_GATE.search(lowered):
            return _ANY_TERM_RE.search(lowered) is not None
    return relevance_score(text) >= threshold


def is_relevant_reference(text: str, threshold: float = 0.3) -> bool:
    """Reference twin of :func:`is_relevant`: the full score, compared."""
    return relevance_score(text) >= threshold


def clean_post(post: RedditPost) -> RedditPost:
    """Return a copy of ``post`` with noise stripped from the body."""
    return post.with_body(strip_noise(post.body))


def clean_and_filter(
    posts: list[RedditPost], relevance_threshold: float = 0.3
) -> tuple[list[RedditPost], int]:
    """Clean every post and drop irrelevant ones.

    Returns
    -------
    (kept, num_dropped):
        Cleaned relevant posts (original order) and the drop count.
    """
    kept = []
    dropped = 0
    for post in posts:
        cleaned = clean_post(post)
        if not cleaned.body or not is_relevant(cleaned.text, relevance_threshold):
            dropped += 1
            continue
        kept.append(cleaned)
    return kept, dropped
