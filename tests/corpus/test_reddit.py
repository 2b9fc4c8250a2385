"""Tests for the simulated Reddit substrate."""

from datetime import datetime, timedelta, timezone

import pytest

from repro.core.errors import CorpusError
from repro.corpus.models import RedditPost
from repro.corpus.reddit import RedditSimulator, crawl


def make_post(reddit, author="alice", sub="SuicideWatch", when=None, body="hello"):
    when = when or datetime(2020, 6, 1, tzinfo=timezone.utc)
    return RedditPost(
        post_id=reddit.next_post_id(),
        author=author,
        subreddit=sub,
        title="t",
        body=body,
        created_utc=when,
    )


@pytest.fixture()
def reddit():
    sim = RedditSimulator()
    sim.create_subreddit("SuicideWatch")
    return sim


class TestSubmission:
    def test_submit_and_count(self, reddit):
        reddit.submit(make_post(reddit))
        assert len(reddit.subreddit("SuicideWatch")) == 1

    def test_submit_creates_subreddit(self, reddit):
        post = make_post(reddit, sub="newplace")
        reddit.submit(post)
        assert len(reddit.subreddit("newplace")) == 1

    def test_unknown_subreddit_raises(self, reddit):
        with pytest.raises(CorpusError):
            reddit.subreddit("nope")

    def test_wrong_subreddit_submit_raises(self, reddit):
        post = make_post(reddit, sub="SuicideWatch")
        with pytest.raises(CorpusError):
            reddit.create_subreddit("other").submit(post)

    def test_post_ids_unique(self, reddit):
        ids = {reddit.next_post_id() for _ in range(500)}
        assert len(ids) == 500


class TestListing:
    def _populate(self, reddit, n):
        base = datetime(2020, 1, 1, tzinfo=timezone.utc)
        for i in range(n):
            reddit.submit(make_post(reddit, when=base + timedelta(hours=i)))

    def test_newest_first(self, reddit):
        self._populate(reddit, 10)
        page = reddit.new("SuicideWatch", limit=10)
        times = [p.created_utc for p in page.posts]
        assert times == sorted(times, reverse=True)

    def test_page_size_clamped(self, reddit):
        self._populate(reddit, 250)
        page = reddit.new("SuicideWatch", limit=1000)
        assert len(page.posts) == RedditSimulator.MAX_PAGE_SIZE

    def test_pagination_cursor(self, reddit):
        self._populate(reddit, 7)
        first = reddit.new("SuicideWatch", limit=3)
        second = reddit.new("SuicideWatch", limit=3, after=first.after)
        assert len(first.posts) == 3
        assert len(second.posts) == 3
        assert not {p.post_id for p in first.posts} & {
            p.post_id for p in second.posts
        }

    def test_last_page_has_no_cursor(self, reddit):
        self._populate(reddit, 5)
        page = reddit.new("SuicideWatch", limit=10)
        assert page.after is None

    def test_bad_cursor_raises(self, reddit):
        self._populate(reddit, 3)
        with pytest.raises(CorpusError):
            reddit.new("SuicideWatch", after="zzz")

    def test_cursor_survives_a_newer_submission(self, reddit):
        self._populate(reddit, 6)
        first = reddit.new("SuicideWatch", limit=3)
        # A newer post shifts every position by one; the cursor still
        # resumes right after the post it names.
        reddit.submit(make_post(reddit, when=datetime(2021, 1, 1, tzinfo=timezone.utc)))
        second = reddit.new("SuicideWatch", limit=3, after=first.after)
        expected = reddit.subreddit("SuicideWatch").posts[4:7]
        assert [p.post_id for p in second.posts] == [p.post_id for p in expected]

    def test_iterate_all_covers_everything(self, reddit):
        self._populate(reddit, 230)
        seen = list(reddit.iterate_all("SuicideWatch", page_size=100))
        assert len(seen) == 230
        assert len({p.post_id for p in seen}) == 230

    def test_api_calls_counted(self, reddit):
        self._populate(reddit, 230)
        before = reddit.api_calls
        list(reddit.iterate_all("SuicideWatch", page_size=100))
        assert reddit.api_calls - before == 3


class TestCrawl:
    def test_crawl_filters_window_and_sorts(self, reddit):
        inside = datetime(2020, 6, 1, tzinfo=timezone.utc)
        outside = datetime(2019, 6, 1, tzinfo=timezone.utc)
        reddit.submit(make_post(reddit, when=inside))
        reddit.submit(make_post(reddit, when=outside))
        reddit.submit(make_post(reddit, when=inside + timedelta(days=1)))
        got = crawl(
            reddit,
            "SuicideWatch",
            datetime(2020, 1, 1, tzinfo=timezone.utc),
            datetime(2021, 1, 1, tzinfo=timezone.utc),
        )
        assert len(got) == 2
        assert got[0].created_utc <= got[1].created_utc

    def test_crawl_rejects_inverted_window(self, reddit):
        when = datetime(2020, 1, 1, tzinfo=timezone.utc)
        with pytest.raises(CorpusError):
            crawl(reddit, "SuicideWatch", when, when)
