"""Dense temporal encodings for neural models (paper §III-A2/4/5).

Three encoding families are shared by the BiLSTM, HiGRU, RoBERTa and
DeBERTa baselines:

* **periodic** — sin/cos pairs for hour-of-day, day-of-week, day-of-month
  and month-of-year cycles;
* **interval** — log-bucketed gap to the previous post;
* **cumulative** — position in the history and time since the first post;

plus the binary **time tags** (night posting, weekend) the DeBERTa variant
adds.
"""

from __future__ import annotations

from datetime import datetime

import numpy as np

from repro.corpus.models import RedditPost
from repro.temporal.features import is_night

#: (name, period, extractor) for the periodic channels.
_PERIODIC = (
    ("hour", 24.0, lambda t: t.hour + t.minute / 60.0),
    ("weekday", 7.0, lambda t: float(t.weekday())),
    ("monthday", 31.0, lambda t: float(t.day - 1)),
    ("month", 12.0, lambda t: float(t.month - 1)),
)

_PERIODS = np.array([period for _, period, _ in _PERIODIC])

#: Gap buckets in hours: <1h, <6h, <1d, <3d, <1w, <1mo, ≥1mo.
_GAP_EDGES_HOURS = np.array([1.0, 6.0, 24.0, 72.0, 168.0, 720.0])


def periodic_encoding(when: datetime) -> np.ndarray:
    """Sin/cos features for all periodic channels (length 8)."""
    out = []
    for _, period, extract in _PERIODIC:
        angle = 2.0 * np.pi * extract(when) / period
        out.extend((np.sin(angle), np.cos(angle)))
    return np.array(out, dtype=np.float64)


def interval_encoding(gap_hours: float) -> np.ndarray:
    """One-hot gap bucket plus the log-gap scalar (length 8)."""
    bucket = int(np.searchsorted(_GAP_EDGES_HOURS, max(0.0, gap_hours)))
    onehot = np.zeros(len(_GAP_EDGES_HOURS) + 1)
    onehot[bucket] = 1.0
    return np.concatenate([onehot, [np.log1p(max(0.0, gap_hours))]])


def cumulative_encoding(index: int, total: int, hours_since_first: float) -> np.ndarray:
    """Position-in-history and elapsed-time features (length 3)."""
    frac = index / max(1, total - 1) if total > 1 else 1.0
    return np.array(
        [frac, np.log1p(index), np.log1p(hours_since_first)], dtype=np.float64
    )


def time_tags(when: datetime) -> np.ndarray:
    """Binary night-posting and weekend tags (length 2)."""
    return np.array(
        [float(is_night(when)), float(when.weekday() >= 5)], dtype=np.float64
    )


class TimeEncoder:
    """Per-post temporal feature vectors for a chronological window.

    Each row ends with the DeBERTa-style binary tags (night / weekend).
    The output dimension is exposed as :attr:`dim` so models can size
    their temporal projection layers.
    """

    # periodic 8 + interval 8 (7 buckets + log) + cumulative 3 + tags 2
    dim = 8 + (len(_GAP_EDGES_HOURS) + 2) + 3 + 2

    def encode_window(self, posts: list[RedditPost]) -> np.ndarray:
        """(len(posts), dim) matrix of temporal features.

        Each channel is computed for all posts at once, with the float64
        operations of the per-post functions above in the same order, so
        the matrix is bitwise equal to :meth:`encode_window_reference`.
        """
        n = len(posts)
        if not n:
            return np.zeros((0, self.dim))
        times = [post.created_utc for post in posts]
        ts = np.array([when.timestamp() for when in times])
        out = np.zeros((n, self.dim))
        cycles = np.array(
            [[extract(when) for _, _, extract in _PERIODIC] for when in times]
        )
        angles = 2.0 * np.pi * cycles / _PERIODS
        out[:, 0:8:2] = np.sin(angles)
        out[:, 1:8:2] = np.cos(angles)
        gaps = np.zeros(n)
        gaps[1:] = np.diff(ts) / 3600.0
        gaps = np.where(gaps > 0.0, gaps, 0.0)  # max(0.0, gap)
        buckets = len(_GAP_EDGES_HOURS) + 1
        out[np.arange(n), 8 + np.searchsorted(_GAP_EDGES_HOURS, gaps)] = 1.0
        col = 8 + buckets
        out[:, col] = np.log1p(gaps)
        index = np.arange(n)
        out[:, col + 1] = index / (n - 1) if n > 1 else 1.0
        out[:, col + 2] = np.log1p(index.astype(np.float64))
        out[:, col + 3] = np.log1p((ts - ts[0]) / 3600.0)
        out[:, col + 4] = [float(is_night(when)) for when in times]
        out[:, col + 5] = [float(when.weekday() >= 5) for when in times]
        return out

    def encode_window_reference(self, posts: list[RedditPost]) -> np.ndarray:
        """Reference twin of :meth:`encode_window`: one row per post from
        the per-post encoding functions."""
        if not posts:
            return np.zeros((0, self.dim))
        first_ts = posts[0].created_utc.timestamp()
        rows = []
        prev_ts: float | None = None
        for i, post in enumerate(posts):
            ts = post.created_utc.timestamp()
            gap_hours = 0.0 if prev_ts is None else (ts - prev_ts) / 3600.0
            parts = [
                periodic_encoding(post.created_utc),
                interval_encoding(gap_hours),
                cumulative_encoding(i, len(posts), (ts - first_ts) / 3600.0),
                time_tags(post.created_utc),
            ]
            rows.append(np.concatenate(parts))
            prev_ts = ts
        return np.vstack(rows)
