"""Temporal partitioning: organise posts chronologically per user.

The paper partitions the dataset "according to temporal constraints to
facilitate time-series analysis" — posts are grouped by author and ordered
by timestamp so that risk-evolution tracking is well defined.
"""

from __future__ import annotations

from collections import defaultdict
from datetime import datetime

from repro.core.errors import PreprocessError
from repro.corpus.models import RedditPost, UserHistory


def group_by_user(posts: list[RedditPost]) -> dict[str, UserHistory]:
    """Group posts into per-author chronological histories."""
    histories: dict[str, list[RedditPost]] = defaultdict(list)
    for post in posts:
        histories[post.author].append(post)
    result = {}
    for author, items in histories.items():
        items.sort(key=lambda p: (p.created_utc, p.post_id))
        result[author] = UserHistory(author=author, posts=items)
    return result


def assert_chronological(history: UserHistory) -> None:
    """Raise if a history is not strictly chronological."""
    times = [p.created_utc for p in history.posts]
    for earlier, later in zip(times, times[1:]):
        if later < earlier:
            raise PreprocessError(
                f"history of {history.author} is not chronological"
            )


def slice_window(
    history: UserHistory,
    end: datetime | None = None,
    max_posts: int | None = None,
    max_span_days: float | None = None,
) -> list[RedditPost]:
    """Most recent posts of a history subject to window constraints.

    Parameters
    ----------
    end:
        Only posts at or before this instant are considered (defaults to
        the last post's time).
    max_posts:
        Keep at most this many of the most recent posts.
    max_span_days:
        Drop posts older than this many days before the window end.
    """
    posts = history.posts
    if end is not None:
        posts = [p for p in posts if p.created_utc <= end]
    if not posts:
        return []
    anchor = posts[-1].created_utc
    if max_span_days is not None:
        horizon = anchor.timestamp() - max_span_days * 86_400.0
        posts = [p for p in posts if p.created_utc.timestamp() >= horizon]
    if max_posts is not None:
        posts = posts[-max_posts:]
    return posts
