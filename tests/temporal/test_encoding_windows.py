"""Tests for temporal encodings and prediction windows."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from repro.core.config import WindowConfig
from repro.core.errors import DatasetError
from repro.core.schema import RiskLevel
from repro.corpus.models import RedditPost, UserHistory
from repro.temporal.encoding import (
    TimeEncoder,
    cumulative_encoding,
    interval_encoding,
    periodic_encoding,
    time_tags,
)
from repro.temporal.windows import build_window, build_windows

T0 = datetime(2020, 3, 2, 12, 0, tzinfo=timezone.utc)


def make_post(when, pid="p", label=RiskLevel.IDEATION):
    return RedditPost(
        post_id=pid, author="a", subreddit="s", title="", body="b",
        created_utc=when, oracle_label=label,
    )


class TestPeriodicEncoding:
    def test_shape_and_range(self):
        vec = periodic_encoding(T0)
        assert vec.shape == (8,)
        assert (np.abs(vec) <= 1.0).all()

    def test_same_hour_same_encoding(self):
        a = periodic_encoding(T0)[:2]
        b = periodic_encoding(T0 + timedelta(days=7))[:2]
        assert np.allclose(a, b)

    def test_sin_cos_identity(self):
        vec = periodic_encoding(T0)
        for i in range(0, 8, 2):
            assert vec[i] ** 2 + vec[i + 1] ** 2 == pytest.approx(1.0)


class TestIntervalEncoding:
    def test_one_hot_plus_log(self):
        vec = interval_encoding(3.0)
        assert vec.shape == (8,)
        assert vec[:7].sum() == 1.0
        assert vec[-1] == pytest.approx(np.log1p(3.0))

    def test_bucket_monotone(self):
        assert np.argmax(interval_encoding(0.5)[:7]) < np.argmax(
            interval_encoding(1000)[:7]
        )

    def test_negative_gap_clamped(self):
        vec = interval_encoding(-5.0)
        assert vec[-1] == 0.0


class TestCumulativeEncoding:
    def test_first_and_last(self):
        first = cumulative_encoding(0, 5, 0.0)
        last = cumulative_encoding(4, 5, 100.0)
        assert first[0] == 0.0
        assert last[0] == 1.0

    def test_single_post(self):
        vec = cumulative_encoding(0, 1, 0.0)
        assert vec[0] == 1.0


class TestTimeTags:
    def test_night_weekend(self):
        night = T0.replace(hour=2)
        assert time_tags(night)[0] == 1.0
        saturday = datetime(2020, 3, 7, 12, tzinfo=timezone.utc)
        assert time_tags(saturday)[1] == 1.0

    def test_day_weekday(self):
        assert (time_tags(T0) == 0.0).all()


class TestTimeEncoder:
    def test_dim_consistency(self):
        encoder = TimeEncoder()
        posts = [make_post(T0 + timedelta(hours=i), f"p{i}") for i in range(4)]
        matrix = encoder.encode_window(posts)
        assert matrix.shape == (4, encoder.dim)

    def test_empty_window(self):
        assert TimeEncoder().encode_window([]).shape[0] == 0

    def test_bitwise_equal_to_reference(self, small_dataset):
        encoder = TimeEncoder()
        windows = [[make_post(T0, "p0")]]
        # equal timestamps, out-of-order posts (negative gaps), month and
        # year boundaries, night and weekend hours
        stamps = [T0, T0, T0 - timedelta(hours=3), T0 + timedelta(days=40, minutes=7),
                  datetime(2020, 12, 31, 23, 59, tzinfo=timezone.utc),
                  datetime(2021, 1, 2, 3, 30, tzinfo=timezone.utc)]
        windows.append([make_post(t, f"p{i}") for i, t in enumerate(stamps)])
        for history in small_dataset.histories().values():
            posts = list(history.posts)
            windows += [posts[max(0, i - 4): i + 1] for i in range(len(posts))]
        for posts in windows:
            with np.errstate(invalid="ignore"):  # log1p of a negative span
                fast = encoder.encode_window(posts)
                reference = encoder.encode_window_reference(posts)
            assert np.array_equal(fast, reference, equal_nan=True)

    def test_first_gap_is_zero(self):
        encoder = TimeEncoder()
        posts = [make_post(T0, "p0"), make_post(T0 + timedelta(hours=9), "p1")]
        matrix = encoder.encode_window(posts)
        # log-gap channel (index 15) is 0 for the first post
        assert matrix[0, 15] == 0.0
        assert matrix[1, 15] == pytest.approx(np.log1p(9.0))


class TestWindows:
    def _history(self, n=8, label=RiskLevel.BEHAVIOR):
        posts = [
            make_post(T0 + timedelta(days=i), f"p{i}",
                      RiskLevel.IDEATION if i < n - 1 else label)
            for i in range(n)
        ]
        return UserHistory("a", posts)

    def test_label_is_latest_posts(self):
        window = build_window(self._history(label=RiskLevel.ATTEMPT))
        assert window.label is RiskLevel.ATTEMPT

    def test_window_size_respected(self):
        window = build_window(self._history(8), WindowConfig(size=5))
        assert len(window) == 5
        assert window.latest.post_id == "p7"

    def test_label_override(self):
        window = build_window(self._history(), label=RiskLevel.INDICATOR)
        assert window.label is RiskLevel.INDICATOR

    def test_empty_history_rejected(self):
        with pytest.raises(DatasetError):
            build_window(UserHistory("a", []))

    def test_span_constraint(self):
        window = build_window(
            self._history(10), WindowConfig(size=10, max_span_days=2.5)
        )
        assert len(window) == 3

    def test_build_windows_with_label_map(self):
        history = self._history(3)
        labels = {"p2": RiskLevel.ATTEMPT}
        windows = build_windows({"a": history}, labels=labels)
        assert len(windows) == 1
        assert windows[0].label is RiskLevel.ATTEMPT

    def test_build_windows_skips_unlabelled_latest(self):
        history = self._history(3)
        windows = build_windows({"a": history}, labels={"p0": RiskLevel.IDEATION})
        assert windows == []

    def test_windows_sorted_by_author(self):
        histories = {
            "zed": self._history(2),
            "abe": self._history(2),
        }
        # fix author fields
        for name, history in histories.items():
            history.author = name
        windows = build_windows(histories)
        assert [w.author for w in windows] == ["abe", "zed"]
