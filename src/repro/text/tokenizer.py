"""Word- and sentence-level tokenisation."""

from __future__ import annotations

import re

from repro.preprocess.normalize import normalise, normalise_reference

_WORD_RE = re.compile(r"[a-z]+(?:'[a-z]+)?|\d+|[!?.]")
# The same matches minus the punctuation tokens: those are single
# characters no other alternative can consume.
_WORD_ONLY_RE = re.compile(r"[a-z]+(?:'[a-z]+)?|\d+")
_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")

#: Common English stopwords (used for word-cloud / TF-IDF filtering).
STOPWORDS: frozenset[str] = frozenset(
    """
    a an the and or but if then than so because as of at by for with about
    into through during before after above below to from up down in out on
    off over under again once here there all any both each few more most
    other some such only own same too very can will just should now i me my
    we our you your he him his she her it its they them their what which who
    whom this that these those am is are was were be been being have has had
    having do does did doing would could ought not no nor
    """.split()
)


class WordTokenizer:
    """Regex word tokeniser over normalised text.

    Splits on word characters, keeps sentence-final punctuation as tokens
    (useful for the statistical features), lower-cases, expands
    contractions.
    """

    def __init__(self, keep_punctuation: bool = False) -> None:
        self.keep_punctuation = keep_punctuation

    def tokenize(self, text: str) -> list[str]:
        pattern = _WORD_RE if self.keep_punctuation else _WORD_ONLY_RE
        return pattern.findall(normalise(text))

    def tokenize_reference(self, text: str) -> list[str]:
        """Reference twin of :meth:`tokenize`: the reference normal form,
        then punctuation filtered out of the full token stream."""
        tokens = _WORD_RE.findall(normalise_reference(text))
        if not self.keep_punctuation:
            tokens = [t for t in tokens if t not in {"!", "?", "."}]
        return tokens

    def __call__(self, text: str) -> list[str]:
        return self.tokenize(text)


def sentences(text: str) -> list[str]:
    """Split text into sentences on terminal punctuation."""
    parts = _SENTENCE_RE.split(text.strip())
    return [p.strip() for p in parts if p.strip()]


def content_words(text: str) -> list[str]:
    """Tokens minus stopwords and digits — the word-cloud vocabulary."""
    tokens = WordTokenizer().tokenize(text)
    return [t for t in tokens if t not in STOPWORDS and not t.isdigit()]
