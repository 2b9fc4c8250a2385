"""Text normalisation and tokenisation hooks for the cleaned corpus.

Normalisation standardises text "for machine learning applications"
(paper §II-A2): unicode folding, case folding, contraction expansion, and
whitespace collapsing. Tokenisation itself lives in :mod:`repro.text`;
this module only applies the canonical normal form that the tokenisers
assume.
"""

from __future__ import annotations

import re
import unicodedata

_CONTRACTIONS = {
    "can't": "can not",
    "cannot": "can not",
    "won't": "will not",
    "n't": " not",
    "i'm": "i am",
    "it's": "it is",
    "that's": "that is",
    "i've": "i have",
    "i'd": "i would",
    "i'll": "i will",
    "don't": "do not",
    "doesn't": "does not",
    "didn't": "did not",
    "isn't": "is not",
    "wasn't": "was not",
    "there's": "there is",
    "they're": "they are",
    "you're": "you are",
    "we're": "we are",
}

_WS_RE = re.compile(r"\s+")
_CONTRACTION_RE = re.compile(
    "|".join(re.escape(k) for k in sorted(_CONTRACTIONS, key=len, reverse=True))
)


def expand_contractions(text: str) -> str:
    """Expand common English contractions (lower-case input assumed)."""
    return _CONTRACTION_RE.sub(lambda m: _CONTRACTIONS[m.group(0)], text)


def normalise(text: str) -> str:
    """Canonical normal form: NFKC, lower case, expanded contractions,
    collapsed whitespace.

    Equal to :func:`normalise_reference`, skipping what cannot change the
    text: NFKC leaves ASCII as it is, and every contraction contains an
    apostrophe except ``cannot``. ``str.split`` splits on the same
    whitespace characters as the regex class of the reference.
    """
    if not text.isascii():
        text = unicodedata.normalize("NFKC", text)
    text = text.lower()
    if "'" in text or "cannot" in text:
        text = expand_contractions(text)
    return " ".join(text.split())


def normalise_reference(text: str) -> str:
    """Reference twin of :func:`normalise`: every step on every text."""
    text = unicodedata.normalize("NFKC", text)
    text = text.lower()
    text = expand_contractions(text)
    return _WS_RE.sub(" ", text).strip()
