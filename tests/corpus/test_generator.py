"""Tests for the synthetic corpus builder."""

from datetime import timedelta

import numpy as np
import pytest

from repro.core.config import CorpusConfig
from repro.core.schema import ALL_LEVELS
from repro.corpus.generator import (
    SUBREDDIT,
    CorpusGenerator,
    place_in_day,
)
from repro.corpus.models import utc_from_timestamp


def _place_with_datetime(timestamp, hour, minute):
    day = utc_from_timestamp(timestamp).replace(
        hour=0, minute=0, second=0, microsecond=0
    )
    return (day + timedelta(hours=hour, minutes=minute)).timestamp()


class TestPlaceInDay:
    def test_equals_datetime_arithmetic(self):
        rng = np.random.default_rng(0)
        config = CorpusConfig()
        window = (config.end - config.start).total_seconds()
        stamps = config.start.timestamp() + rng.random(5000) * window
        hours = np.where(
            rng.random(5000) < 0.3,
            (23.0 + rng.exponential(2.0, 5000)) % 24.0,
            np.clip(rng.normal(15.0, 3.5, 5000), 6, 22),
        )
        minutes = rng.integers(60, size=5000)
        for stamp, hour, minute in zip(
            stamps.tolist(), hours.tolist(), minutes.tolist()
        ):
            assert place_in_day(stamp, hour, minute) == _place_with_datetime(
                stamp, hour, minute
            )

    @pytest.mark.parametrize(
        "stamp",
        [
            1609459199.9999996,  # rounds up to the next second and day
            1609459199.9999994,  # rounds down: stays on the earlier day
            1609459200.0,
            1577836800.0000005,
        ],
    )
    @pytest.mark.parametrize("hour", [0.0, 23.999999999, 7.5, 1 / 7200000000])
    def test_rounding_edges(self, stamp, hour):
        for minute in (0, 59):
            assert place_in_day(stamp, hour, minute) == _place_with_datetime(
                stamp, hour, minute
            )


class TestGenerate:
    def test_annotated_volume_near_target(self, small_corpus):
        target = small_corpus.config.target_posts
        got = len(small_corpus.annotated_posts)
        # dirt injection adds a few percent of duplicates
        assert target <= got <= int(target * 1.1)

    def test_annotated_user_count(self, small_corpus):
        authors = {p.author for p in small_corpus.annotated_posts}
        assert authors == small_corpus.annotated_authors
        assert len(authors) == small_corpus.config.num_users

    def test_label_mix_tracks_table1(self, small_corpus):
        posts = [
            p for p in small_corpus.annotated_posts if p.oracle_label is not None
        ]
        for level in ALL_LEVELS:
            frac = np.mean([p.oracle_label == level for p in posts])
            assert abs(frac - small_corpus.config.label_mix[level]) < 0.08

    def test_timestamps_inside_crawl_window(self, small_corpus):
        cfg = small_corpus.config
        for post in small_corpus.raw_posts:
            assert cfg.start <= post.created_utc <= cfg.end

    def test_raw_posts_chronological(self, small_corpus):
        times = [p.created_utc for p in small_corpus.raw_posts]
        assert times == sorted(times)

    def test_background_pool_exists(self, small_corpus):
        assert len(small_corpus.background_posts) > len(
            small_corpus.annotated_posts
        )

    def test_offtopic_dirt_present(self, small_corpus):
        offtopic = [p for p in small_corpus.raw_posts if p.oracle_label is None]
        assert offtopic

    def test_duplicate_dirt_present(self, small_corpus):
        texts = [p.body for p in small_corpus.annotated_posts]
        assert len(set(texts)) < len(texts)

    def test_all_in_one_subreddit(self, small_corpus):
        assert {p.subreddit for p in small_corpus.raw_posts} == {SUBREDDIT}

    def test_reproducible(self):
        a = CorpusGenerator(CorpusConfig().scaled(0.02)).generate()
        b = CorpusGenerator(CorpusConfig().scaled(0.02)).generate()
        assert [p.body for p in a.raw_posts[:50]] == [
            p.body for p in b.raw_posts[:50]
        ]

    def test_text_stream_equals_numpy_scalar_calls(self, monkeypatch):
        """The decoded sampler draws give the corpus and the end state of
        the ``text`` stream that numpy's scalar calls give."""

        class NumpyDraws:
            def __init__(self, generator):
                self.random, self.integers = generator.random, generator.integers

            def close(self):
                pass

        def generate():
            generator = CorpusGenerator(CorpusConfig().scaled(0.02))
            corpus = generator.generate()
            return corpus.raw_posts, generator._registry.get("text").bit_generator.state

        posts, state = generate()
        monkeypatch.setattr("repro.corpus.lexicon.ScalarDraws", NumpyDraws)
        numpy_posts, numpy_state = generate()
        assert posts == numpy_posts
        assert state["state"] == numpy_state["state"]
        assert state["has_uint32"] == numpy_state["has_uint32"]
        if numpy_state["has_uint32"]:
            assert state["uinteger"] == numpy_state["uinteger"]

    def test_seed_changes_output(self):
        a = CorpusGenerator(CorpusConfig().scaled(0.02)).generate()
        b = CorpusGenerator(CorpusConfig(seed=99).scaled(0.02)).generate()
        assert [p.body for p in a.raw_posts[:50]] != [
            p.body for p in b.raw_posts[:50]
        ]

    def test_users_histories_strictly_increasing(self, small_corpus):
        by_author = {}
        for p in small_corpus.annotated_posts:
            by_author.setdefault(p.author, []).append(p.created_utc)
        for times in by_author.values():
            assert all(a < b for a, b in zip(times, times[1:]))


    def test_scale_one_uses_paper_sizes(self):
        gen = CorpusGenerator(CorpusConfig())
        assert gen.config.num_users == 1265
