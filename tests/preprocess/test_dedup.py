"""Tests for exact and near-duplicate removal."""

from collections import defaultdict
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.models import RedditPost
from repro.preprocess.dedup import (
    MinHasher,
    _band_buckets,
    jaccard,
    normalised_fingerprint,
    remove_exact_duplicates,
    remove_near_duplicates,
    shingles,
)


def make_post(body, pid, when=None):
    return RedditPost(
        post_id=pid,
        author="a",
        subreddit="s",
        title="",
        body=body,
        created_utc=when or datetime(2020, 1, 1, tzinfo=timezone.utc),
    )


class TestFingerprint:
    def test_case_and_whitespace_invariant(self):
        assert normalised_fingerprint("Hello  World") == normalised_fingerprint(
            "hello world"
        )

    def test_punctuation_invariant(self):
        assert normalised_fingerprint("hello, world!") == normalised_fingerprint(
            "hello world"
        )

    def test_different_text_different_fingerprint(self):
        assert normalised_fingerprint("aaa") != normalised_fingerprint("bbb")


class TestShinglesAndJaccard:
    def test_shingle_count(self):
        assert len(shingles("a b c d e", k=3)) == 3

    def test_short_text(self):
        assert shingles("hello", k=3) == {"hello"}
        assert shingles("", k=3) == set()

    def test_jaccard_identity(self):
        s = shingles("the quick brown fox jumps")
        assert jaccard(s, s) == 1.0

    def test_jaccard_disjoint(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_jaccard_empty(self):
        assert jaccard(set(), set()) == 1.0
        assert jaccard(set(), {"a"}) == 0.0


class TestMinHasher:
    def test_estimate_close_to_true_jaccard(self):
        hasher = MinHasher(num_perm=128)
        a = shingles("the quick brown fox jumps over the lazy dog again")
        b = shingles("the quick brown fox walks over the lazy dog again")
        true = jaccard(a, b)
        est = MinHasher.estimate_jaccard(hasher.signature(a), hasher.signature(b))
        assert abs(true - est) < 0.2

    def test_identical_sets_estimate_one(self):
        hasher = MinHasher(num_perm=32)
        s = shingles("some text that repeats exactly")
        assert MinHasher.estimate_jaccard(
            hasher.signature(s), hasher.signature(s)
        ) == 1.0

    def test_rejects_tiny_num_perm(self):
        with pytest.raises(ValueError):
            MinHasher(num_perm=2)

    @settings(max_examples=25, deadline=None)
    @given(st.text(alphabet="abcdef ", min_size=0, max_size=60))
    def test_signature_shape_property(self, text):
        hasher = MinHasher(num_perm=16)
        sig = hasher.signature(shingles(text))
        assert sig.shape == (16,)


class TestExactDedup:
    def test_keeps_earliest(self):
        early = make_post("same text here", "p1")
        late = make_post(
            "same text here", "p2",
            when=datetime(2020, 2, 1, tzinfo=timezone.utc),
        )
        kept, dropped = remove_exact_duplicates([late, early])
        assert dropped == 1
        assert kept[0].post_id == "p1"

    def test_no_duplicates_untouched(self):
        posts = [make_post(f"text {i}", f"p{i}") for i in range(5)]
        kept, dropped = remove_exact_duplicates(posts)
        assert dropped == 0
        assert len(kept) == 5


class TestNearDedup:
    def test_detects_noise_variant(self):
        base = "I feel hopeless and alone tonight and cannot sleep at all " * 3
        a = make_post(base, "p1")
        b = make_post(
            base + " extra", "p2",
            when=datetime(2020, 3, 1, tzinfo=timezone.utc),
        )
        kept, dropped = remove_near_duplicates([a, b], threshold=0.8)
        assert dropped == 1
        assert kept[0].post_id == "p1"

    def test_distinct_posts_survive(self):
        a = make_post("completely different words entirely", "p1")
        b = make_post("nothing shared with that other text", "p2")
        kept, dropped = remove_near_duplicates([a, b])
        assert dropped == 0
        assert len(kept) == 2

    def test_bands_must_divide_permutations(self):
        with pytest.raises(ValueError):
            remove_near_duplicates([], num_perm=64, bands=10)

    def test_empty_input(self):
        assert remove_near_duplicates([]) == ([], 0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_band_buckets_in_dict_fill_order(self, seed):
        # The drop decisions depend on bucket order, so the buckets must
        # come as a dict keyed by (band, band bytes), filled post by post
        # and band by band, first sees them.
        sigs = np.random.default_rng(seed).integers(0, 3, size=(300, 16))
        sigs = sigs.astype(np.uint64)
        buckets = defaultdict(list)
        for idx, sig in enumerate(sigs):
            for band in range(8):
                key = (band, sig[band * 2 : (band + 1) * 2].tobytes())
                buckets[key].append(idx)
        expected = [members for members in buckets.values() if len(members) > 1]
        assert _band_buckets(sigs, 8) == expected

    def test_cluster_keeps_single_survivor(self):
        base = "the same long message repeated almost verbatim many times " * 3
        posts = [
            make_post(base, f"p{i}",
                      when=datetime(2020, 1, 1, tzinfo=timezone.utc)
                      + timedelta(days=i))
            for i in range(4)
        ]
        kept, dropped = remove_near_duplicates(posts, threshold=0.9)
        assert len(kept) == 1
        assert dropped == 3
