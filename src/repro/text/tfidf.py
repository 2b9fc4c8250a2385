"""Dense TF-IDF vectorisation, used by the XGBoost baseline."""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable

import numpy as np

from repro.core.errors import NotFittedError
from repro.text.tokenizer import STOPWORDS, WordTokenizer


class TfidfVectorizer:
    """Classic TF-IDF with smoothed idf, sublinear tf, and L2 rows.

    Parameters
    ----------
    max_features:
        Keep only the most document-frequent terms (None = all).
    min_df / max_df:
        Document-frequency bounds; ``max_df`` as a fraction of documents.
    sublinear_tf:
        Use ``1 + log(tf)`` instead of raw counts.
    drop_stopwords:
        Remove common English stopwords before counting.
    ngram_range:
        Inclusive (lo, hi) n-gram sizes over word tokens.
    """

    def __init__(
        self,
        max_features: int | None = 4000,
        min_df: int = 2,
        max_df: float = 0.9,
        sublinear_tf: bool = True,
        drop_stopwords: bool = True,
        ngram_range: tuple[int, int] = (1, 1),
    ) -> None:
        if ngram_range[0] < 1 or ngram_range[1] < ngram_range[0]:
            raise ValueError(f"bad ngram_range {ngram_range}")
        self.max_features = max_features
        self.min_df = min_df
        self.max_df = max_df
        self.sublinear_tf = sublinear_tf
        self.drop_stopwords = drop_stopwords
        self.ngram_range = ngram_range
        self._tokenizer = WordTokenizer()
        self.vocabulary_: dict[str, int] | None = None
        self.idf_: np.ndarray | None = None

    # -- helpers ----------------------------------------------------------

    def _terms(self, text: str) -> list[str]:
        tokens = self._tokenizer(text)
        if self.drop_stopwords:
            tokens = [t for t in tokens if t not in STOPWORDS]
        lo, hi = self.ngram_range
        terms: list[str] = []
        for n in range(lo, hi + 1):
            if n == 1:
                terms.extend(tokens)
            else:
                terms.extend(
                    " ".join(tokens[i : i + n])
                    for i in range(len(tokens) - n + 1)
                )
        return terms

    # -- API -----------------------------------------------------------------

    def fit(self, documents: Iterable[str]) -> "TfidfVectorizer":
        docs = list(documents)
        n_docs = len(docs)
        if n_docs == 0:
            raise ValueError("cannot fit on an empty document collection")
        doc_freq = Counter()
        for doc in docs:
            doc_freq.update(set(self._terms(doc)))
        max_count = self.max_df * n_docs
        items = [
            (term, df)
            for term, df in doc_freq.items()
            if df >= self.min_df and df <= max_count
        ]
        items.sort(key=lambda kv: (-kv[1], kv[0]))
        if self.max_features is not None:
            items = items[: self.max_features]
        self.vocabulary_ = {term: i for i, (term, _) in enumerate(items)}
        self.idf_ = np.array(
            [
                math.log((1 + n_docs) / (1 + df)) + 1.0
                for _, df in items
            ],
            dtype=np.float64,
        )
        return self

    def transform(self, documents: Iterable[str]) -> np.ndarray:
        """Batched dense ``(n_docs, |V|)`` float64 construction.

        All documents' term ids are concatenated once; counting, tf/idf
        weighting, and row L2 norms are then single numpy passes keyed on
        ``doc · |V| + term`` (no per-document Counter — that predecessor
        survives as :meth:`_transform_reference`). Each ``(doc, term)``
        pair's weight is written once into a zero array, so the result holds
        the same values a CSR matrix of the pairs would densify to.
        """
        if self.vocabulary_ is None or self.idf_ is None:
            raise NotFittedError("TfidfVectorizer.transform before fit")
        vocab = self.vocabulary_
        n_vocab = len(vocab)
        term_ids: list[int] = []
        lengths: list[int] = []
        for doc in documents:
            ids = [vocab[t] for t in self._terms(doc) if t in vocab]
            term_ids.extend(ids)
            lengths.append(len(ids))
        n_docs = len(lengths)
        doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
        keys = doc_of * n_vocab + np.asarray(term_ids, dtype=np.int64)
        uniq, counts = np.unique(keys, return_counts=True)
        rows = uniq // n_vocab
        cols = uniq % n_vocab
        tf = counts.astype(np.float64)
        weights = (1.0 + np.log(tf)) if self.sublinear_tf else tf
        vals = weights * self.idf_[cols]
        norms = np.sqrt(
            np.bincount(rows, weights=vals * vals, minlength=n_docs)
        )
        norms[norms == 0.0] = 1.0
        vals /= norms[rows]
        out = np.zeros((n_docs, n_vocab), dtype=np.float64)
        out[rows, cols] = vals
        return out

    def _transform_reference(self, documents: Iterable[str]) -> np.ndarray:
        """Per-document Counter predecessor, kept for equivalence tests."""
        if self.vocabulary_ is None or self.idf_ is None:
            raise NotFittedError("TfidfVectorizer.transform before fit")
        docs = list(documents)
        out = np.zeros((len(docs), len(self.vocabulary_)), dtype=np.float64)
        for i, doc in enumerate(docs):
            counts = Counter(
                self.vocabulary_[t]
                for t in self._terms(doc)
                if t in self.vocabulary_
            )
            row_idx = sorted(counts)
            row_val = []
            for j in row_idx:
                tf = counts[j]
                weight = (1.0 + math.log(tf)) if self.sublinear_tf else float(tf)
                row_val.append(weight * self.idf_[j])
            norm = math.sqrt(sum(v * v for v in row_val)) or 1.0
            for j, v in zip(row_idx, row_val):
                out[i, j] = v / norm
        return out

    def feature_names(self) -> list[str]:
        if self.vocabulary_ is None:
            raise NotFittedError("TfidfVectorizer.feature_names before fit")
        names = [""] * len(self.vocabulary_)
        for term, idx in self.vocabulary_.items():
            names[idx] = term
        return names
