"""Multi-level feature engineering framework (paper §III-A1).

Three dimensions, exactly as the paper lays out:

* **time** — posting-interval statistics, time-of-day distribution,
  behaviour-pattern features (:mod:`repro.temporal.features`);
* **text** — TF-IDF of the window text, statistical and linguistic
  features of the latest post;
* **sequence** — sliding-window statistics over the history: change
  trends (content-length deltas), historical cumulative features.
"""

from __future__ import annotations

import numpy as np

from repro import perf
from repro.core.errors import NotFittedError
from repro.temporal.features import TemporalStats, temporal_stats
from repro.text.stats import TextStats, stats_matrix
from repro.text.tfidf import TfidfVectorizer
from repro.temporal.windows import PostWindow


def _sequence_features(window: PostWindow) -> np.ndarray:
    """Change-trend and cumulative features over the window."""
    lengths = np.array([len(p.text) for p in window.posts], dtype=np.float64)
    n = len(lengths)
    prev_mean = lengths[:-1].mean() if n > 1 else lengths[0]
    prev_std = lengths[:-1].std() if n > 2 else 0.0
    last = lengths[-1]
    length_delta = last - prev_mean
    length_z = length_delta / (prev_std + 1.0)
    trend = float(np.polyfit(np.arange(n), lengths, 1)[0]) if n >= 2 else 0.0
    return np.array(
        [
            float(n),                    # window occupancy
            lengths.mean(),
            lengths.std(),
            last,
            length_delta,                # sudden change in content length
            length_z,
            trend,
            np.log1p(lengths.sum()),     # historical cumulative volume
        ]
    )


_SEQUENCE_NAMES = [
    "seq_window_size",
    "seq_len_mean",
    "seq_len_std",
    "seq_len_last",
    "seq_len_delta",
    "seq_len_z",
    "seq_len_trend",
    "seq_cum_log_volume",
]


class FeatureFramework:
    """Fits on training windows, transforms windows into dense matrices.

    The column layout is ``[time | sequence | text-stats | tfidf]``;
    :meth:`dimension_slices` exposes the per-dimension column ranges so
    feature-importance mass can be attributed to the paper's three
    dimensions.
    """

    def __init__(self, max_tfidf_features: int = 300) -> None:
        self.max_tfidf_features = max_tfidf_features
        self._tfidf: TfidfVectorizer | None = None
        self._names: list[str] | None = None

    @staticmethod
    def _window_text(window: PostWindow) -> str:
        return "\n".join(window.texts)

    def fit(self, windows: list[PostWindow]) -> "FeatureFramework":
        with perf.span("models.features"):
            self._tfidf = TfidfVectorizer(max_features=self.max_tfidf_features)
            self._tfidf.fit(self._window_text(w) for w in windows)
        self._names = (
            ["time_" + n for n in TemporalStats.feature_names()]
            + _SEQUENCE_NAMES
            + ["stat_" + n for n in TextStats.feature_names()]
            + ["tfidf_" + n for n in self._tfidf.feature_names()]
        )
        return self

    def transform(self, windows: list[PostWindow]) -> np.ndarray:
        if self._tfidf is None:
            raise NotFittedError("FeatureFramework.transform before fit")
        with perf.span("models.features"):
            time_block = np.vstack(
                [temporal_stats(list(w.posts)).as_vector() for w in windows]
            )
            seq_block = np.vstack([_sequence_features(w) for w in windows])
            stat_block = stats_matrix([w.latest.text for w in windows])
            tfidf_block = self._tfidf.transform(
                self._window_text(w) for w in windows
            ).toarray()
            return np.hstack([time_block, seq_block, stat_block, tfidf_block])

    def fit_transform(self, windows: list[PostWindow]) -> np.ndarray:
        return self.fit(windows).transform(windows)

    @property
    def feature_names(self) -> list[str]:
        if self._names is None:
            raise NotFittedError("FeatureFramework not fitted")
        return list(self._names)

    def dimension_slices(self) -> dict[str, slice]:
        """Column ranges of the three paper dimensions."""
        if self._tfidf is None:
            raise NotFittedError("FeatureFramework not fitted")
        n_time = len(TemporalStats.feature_names())
        n_seq = len(_SEQUENCE_NAMES)
        n_stat = len(TextStats.feature_names())
        n_tfidf = len(self._tfidf.vocabulary_)
        return {
            "time": slice(0, n_time),
            "sequence": slice(n_time, n_time + n_seq),
            "text": slice(n_time + n_seq, n_time + n_seq + n_stat + n_tfidf),
        }
