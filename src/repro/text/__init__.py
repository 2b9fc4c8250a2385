"""Text stack: tokenisers, vocabulary, TF-IDF, statistical features."""

from repro.text.stats import TextStats, stats_matrix, text_stats
from repro.text.tfidf import TfidfVectorizer
from repro.text.tokenizer import (
    STOPWORDS,
    WordTokenizer,
    content_words,
    sentences,
)
from repro.text.vocab import (
    BOS,
    EOS,
    MASK,
    PAD,
    SPECIAL_TOKENS,
    UNK,
    Vocabulary,
)

__all__ = [
    "TextStats",
    "stats_matrix",
    "text_stats",
    "TfidfVectorizer",
    "STOPWORDS",
    "WordTokenizer",
    "content_words",
    "sentences",
    "BOS",
    "EOS",
    "MASK",
    "PAD",
    "SPECIAL_TOKENS",
    "UNK",
    "Vocabulary",
]
