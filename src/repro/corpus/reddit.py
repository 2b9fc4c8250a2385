"""An in-memory simulated Reddit, standing in for the official API.

The paper's raw data was crawled from the ``r/SuicideWatch`` subreddit with
the official Reddit API. That API is a network/service dependency, so this
module provides the smallest faithful substrate: subreddits hold
submissions; a paginated *listing* endpoint returns them newest-first in
pages with an opaque ``after`` cursor, exactly like ``/r/<sub>/new``.

The crawler in :mod:`repro.corpus.generator` only uses this public surface,
so swapping in a real API client would be a one-class change.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from datetime import datetime

from repro.core.errors import CorpusError
from repro.corpus.models import RedditPost

_BASE36 = "0123456789abcdefghijklmnopqrstuvwxyz"


def _to_base36(value: int) -> str:
    if value == 0:
        return "0"
    digits = []
    while value:
        value, rem = divmod(value, 36)
        digits.append(_BASE36[rem])
    return "".join(reversed(digits))


@dataclass
class Listing:
    """One page of a paginated listing response."""

    posts: list[RedditPost]
    after: str | None


@dataclass
class Subreddit:
    """A community holding submissions, newest first."""

    name: str
    posts: list[RedditPost] = field(default_factory=list)
    # post id → index in ``posts``; None while ``posts`` needs sorting.
    _positions: dict[str, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def submit(self, post: RedditPost) -> None:
        if post.subreddit != self.name:
            raise CorpusError(
                f"post {post.post_id} targets r/{post.subreddit}, "
                f"not r/{self.name}"
            )
        self.posts.append(post)
        self._positions = None

    def _ensure_sorted(self) -> None:
        if self._positions is None:
            # Newest first; ties broken by id for determinism.
            self.posts.sort(key=lambda p: (p.created_utc, p.post_id), reverse=True)
            self._positions = {p.post_id: i for i, p in enumerate(self.posts)}

    def __len__(self) -> int:
        return len(self.posts)


class RedditSimulator:
    """Minimal Reddit clone exposing the listing API the crawler needs.

    Example
    -------
    >>> reddit = RedditSimulator()
    >>> reddit.create_subreddit("SuicideWatch")
    >>> # ...populate...
    >>> page = reddit.new("SuicideWatch", limit=100)
    >>> next_page = reddit.new("SuicideWatch", limit=100, after=page.after)
    """

    #: Mirror of the real API's maximum page size.
    MAX_PAGE_SIZE = 100

    def __init__(self) -> None:
        self._subreddits: dict[str, Subreddit] = {}
        self._id_counter = itertools.count(1_000_000)
        self.api_calls = 0

    # -- write side -------------------------------------------------------

    def create_subreddit(self, name: str) -> Subreddit:
        """Create (or return the existing) subreddit ``name``."""
        if name not in self._subreddits:
            self._subreddits[name] = Subreddit(name=name)
        return self._subreddits[name]

    def next_post_id(self) -> str:
        """A fresh base-36 submission id (``t3_``-style fullname body)."""
        return _to_base36(next(self._id_counter))

    def submit(self, post: RedditPost) -> None:
        """Add a post to its subreddit (creating the subreddit if needed)."""
        self.create_subreddit(post.subreddit).submit(post)

    # -- read side (the API surface the crawler uses) ----------------------

    def subreddit(self, name: str) -> Subreddit:
        try:
            return self._subreddits[name]
        except KeyError as exc:
            raise CorpusError(f"unknown subreddit: r/{name}") from exc

    def new(
        self,
        subreddit: str,
        limit: int = 25,
        after: str | None = None,
    ) -> Listing:
        """Newest-first page of submissions, as ``GET /r/<sub>/new``.

        Parameters
        ----------
        limit:
            Page size, clamped to :data:`MAX_PAGE_SIZE` like the real API.
        after:
            Opaque cursor (a post id) returned in a previous page; the
            page starts strictly after that post.
        """
        self.api_calls += 1
        sub = self.subreddit(subreddit)
        sub._ensure_sorted()
        limit = max(1, min(int(limit), self.MAX_PAGE_SIZE))
        start = 0
        if after is not None:
            index = sub._positions.get(after)
            if index is None:
                raise CorpusError(f"unknown cursor: {after!r}")
            start = index + 1
        page = sub.posts[start : start + limit]
        next_after = page[-1].post_id if len(page) == limit else None
        if start + limit >= len(sub.posts):
            next_after = None
        return Listing(posts=list(page), after=next_after)

    def iterate_all(self, subreddit: str, page_size: int = 100):
        """Yield every submission of a subreddit via repeated listing calls."""
        after: str | None = None
        while True:
            page = self.new(subreddit, limit=page_size, after=after)
            yield from page.posts
            if page.after is None:
                return
            after = page.after


def crawl(
    reddit: RedditSimulator,
    subreddit: str,
    start: datetime,
    end: datetime,
    page_size: int = 100,
) -> list[RedditPost]:
    """Crawl all posts of ``subreddit`` inside ``[start, end]``.

    Mirrors the paper's collection step (§II-A1): exhaustively page the
    listing endpoint and keep submissions whose timestamp falls in the
    crawl window. Returned oldest-first (chronological) for downstream
    temporal processing.
    """
    if start >= end:
        raise CorpusError("crawl window start must precede end")
    kept = [
        post
        for post in reddit.iterate_all(subreddit, page_size=page_size)
        if start <= post.created_utc <= end
    ]
    kept.sort(key=lambda p: (p.created_utc, p.post_id))
    return kept
