"""Tests for normalisation and temporal partitioning."""

from datetime import datetime, timedelta, timezone

import pytest

from repro.core.errors import PreprocessError
from repro.corpus.models import RedditPost, UserHistory
from repro.preprocess.normalize import expand_contractions, normalise
from repro.preprocess.partition import (
    assert_chronological,
    group_by_user,
    slice_window,
)


def make_post(author, when, pid):
    return RedditPost(
        post_id=pid, author=author, subreddit="s", title="", body="b",
        created_utc=when,
    )


T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)


class TestNormalise:
    def test_lowercases(self):
        assert normalise("HeLLo") == "hello"

    def test_expands_contractions(self):
        assert normalise("I can't sleep") == "i can not sleep"
        assert normalise("it's over, I'm done") == "it is over, i am done"

    def test_nt_suffix(self):
        assert expand_contractions("shouldn't") == "should not"

    def test_collapses_whitespace(self):
        assert normalise("a \t b\n\nc") == "a b c"

    def test_unicode_folding(self):
        assert normalise("ｆｕｌｌｗｉｄｔｈ") == "fullwidth"

    def test_idempotent(self):
        text = "I can't keep doing This  anymore"
        assert normalise(normalise(text)) == normalise(text)


class TestGrouping:
    def test_groups_and_sorts(self):
        posts = [
            make_post("b", T0 + timedelta(days=2), "p3"),
            make_post("a", T0 + timedelta(days=1), "p2"),
            make_post("a", T0, "p1"),
        ]
        histories = group_by_user(posts)
        assert set(histories) == {"a", "b"}
        assert [p.post_id for p in histories["a"].posts] == ["p1", "p2"]

    def test_assert_chronological_passes(self):
        history = UserHistory(
            "a", [make_post("a", T0, "p1"), make_post("a", T0 + timedelta(1), "p2")]
        )
        assert_chronological(history)

    def test_assert_chronological_raises(self):
        history = UserHistory("a")
        history.posts = [
            make_post("a", T0 + timedelta(1), "p2"),
            make_post("a", T0, "p1"),
        ]
        with pytest.raises(PreprocessError):
            assert_chronological(history)


class TestSliceWindow:
    def _history(self, n=10):
        return UserHistory(
            "a", [make_post("a", T0 + timedelta(days=i), f"p{i}") for i in range(n)]
        )

    def test_max_posts(self):
        got = slice_window(self._history(), max_posts=3)
        assert [p.post_id for p in got] == ["p7", "p8", "p9"]

    def test_max_span(self):
        got = slice_window(self._history(), max_span_days=2.5)
        assert [p.post_id for p in got] == ["p7", "p8", "p9"]

    def test_end_filter(self):
        got = slice_window(self._history(), end=T0 + timedelta(days=4))
        assert got[-1].post_id == "p4"

    def test_empty_when_end_before_first(self):
        got = slice_window(self._history(), end=T0 - timedelta(days=1))
        assert got == []

    def test_no_constraints_returns_all(self):
        assert len(slice_window(self._history())) == 10
