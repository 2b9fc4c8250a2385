"""Tests for the content-addressed build cache."""

import dataclasses

import pytest

from repro.core.cache import (
    CACHE_ENV,
    SCHEMA_VERSION,
    BuildCache,
    build_dataset_cached,
    fingerprint,
)
from repro.core.config import AnnotationConfig, CorpusConfig

SCALE = 0.05
NEAR_DEDUP = False


@pytest.fixture(scope="module")
def small_config():
    return CorpusConfig().scaled(SCALE)


@pytest.fixture(scope="module")
def annotation_config(small_config):
    return AnnotationConfig(seed=small_config.seed)


class TestFingerprint:
    def test_deterministic(self, small_config, annotation_config):
        a = fingerprint(small_config, annotation_config, NEAR_DEDUP)
        b = fingerprint(small_config, annotation_config, NEAR_DEDUP)
        assert a == b
        assert len(a) == 64

    def test_config_changes_key(self, small_config, annotation_config):
        base = fingerprint(small_config, annotation_config, NEAR_DEDUP)
        reseeded = dataclasses.replace(small_config, seed=123)
        assert fingerprint(reseeded, annotation_config, NEAR_DEDUP) != base
        rescaled = CorpusConfig().scaled(0.06)
        assert fingerprint(rescaled, annotation_config, NEAR_DEDUP) != base

    def test_flags_change_key(self, small_config, annotation_config):
        base = fingerprint(small_config, annotation_config, NEAR_DEDUP)
        assert (
            fingerprint(small_config, annotation_config, not NEAR_DEDUP)
            != base
        )

    def test_schema_version_in_payload(
        self, small_config, annotation_config, monkeypatch
    ):
        base = fingerprint(small_config, annotation_config, NEAR_DEDUP)
        monkeypatch.setattr(
            "repro.core.cache.SCHEMA_VERSION", SCHEMA_VERSION + 1
        )
        assert fingerprint(small_config, annotation_config, NEAR_DEDUP) != base


class TestRoundTrip:
    def test_store_load_rebuilds_equivalent_result(
        self, tmp_path, small_config, annotation_config
    ):
        cache = BuildCache(root=tmp_path / "cache")
        key = fingerprint(small_config, annotation_config, NEAR_DEDUP)
        assert cache.load(key) is None
        built = build_dataset_cached(
            small_config, annotation_config,
            near_dedup=NEAR_DEDUP, cache=cache,
        )
        assert cache.has(key)
        warm = cache.load(key)
        assert warm is not None
        assert warm.dataset.num_posts == built.dataset.num_posts
        assert warm.dataset.num_users == built.dataset.num_users
        assert warm.dataset.kappa == pytest.approx(built.dataset.kappa)
        assert warm.dataset.labels == built.dataset.labels
        assert warm.dataset.pretrain_texts == built.dataset.pretrain_texts
        # oracle labels, which the JSONL release drops, survive the cache
        for a, b in zip(warm.dataset.posts, built.dataset.posts):
            assert a.post_id == b.post_id
            assert a.oracle_label == b.oracle_label
            assert a.created_utc == b.created_utc
        assert warm.campaign.kappa == pytest.approx(built.campaign.kappa)
        assert warm.report.as_dict() == built.report.as_dict()

    def test_warm_read_through_hits_cache(
        self, tmp_path, small_config, annotation_config
    ):
        cache = BuildCache(root=tmp_path / "cache")
        cold = build_dataset_cached(
            small_config, annotation_config,
            near_dedup=NEAR_DEDUP, cache=cache,
        )
        warm = build_dataset_cached(
            small_config, annotation_config,
            near_dedup=NEAR_DEDUP, cache=cache,
        )
        assert warm.dataset.labels == cold.dataset.labels
        y_cold = [int(cold.dataset.labels[p.post_id]) for p in cold.dataset.posts]
        y_warm = [int(warm.dataset.labels[p.post_id]) for p in warm.dataset.posts]
        assert y_cold == y_warm

    def test_warm_splits_identical(
        self, tmp_path, small_config, annotation_config
    ):
        cache = BuildCache(root=tmp_path / "cache")
        cold = build_dataset_cached(
            small_config, annotation_config,
            near_dedup=NEAR_DEDUP, cache=cache,
        )
        warm = build_dataset_cached(
            small_config, annotation_config,
            near_dedup=NEAR_DEDUP, cache=cache,
        )
        s_cold = cold.dataset.splits()
        s_warm = warm.dataset.splits()
        for name in ("train", "validation", "test"):
            a = [w.author for w in getattr(s_cold, name)]
            b = [w.author for w in getattr(s_warm, name)]
            assert a == b


class TestInvalidation:
    def test_corrupt_entry_is_a_miss(
        self, tmp_path, small_config, annotation_config
    ):
        cache = BuildCache(root=tmp_path / "cache")
        build_dataset_cached(
            small_config, annotation_config,
            near_dedup=NEAR_DEDUP, cache=cache,
        )
        key = fingerprint(small_config, annotation_config, NEAR_DEDUP)
        (cache.entry_dir(key) / "build.pkl").write_bytes(b"not a pickle")
        assert cache.load(key) is None

    def test_schema_bump_invalidates(
        self, tmp_path, small_config, annotation_config, monkeypatch
    ):
        cache = BuildCache(root=tmp_path / "cache")
        build_dataset_cached(
            small_config, annotation_config,
            near_dedup=NEAR_DEDUP, cache=cache,
        )
        key = fingerprint(small_config, annotation_config, NEAR_DEDUP)
        assert cache.load(key) is not None
        monkeypatch.setattr(
            "repro.core.cache.SCHEMA_VERSION", SCHEMA_VERSION + 1
        )
        assert cache.load(key) is None

    def test_evict(self, tmp_path, small_config, annotation_config):
        cache = BuildCache(root=tmp_path / "cache")
        build_dataset_cached(
            small_config, annotation_config,
            near_dedup=NEAR_DEDUP, cache=cache,
        )
        key = fingerprint(small_config, annotation_config, NEAR_DEDUP)
        assert cache.evict(key)
        assert not cache.has(key)
        assert not cache.evict(key)


class TestEnv:
    def test_from_env_unset(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        assert BuildCache.from_env() is None
        monkeypatch.setenv(CACHE_ENV, "")
        assert BuildCache.from_env() is None

    def test_from_env_set(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "c"))
        cache = BuildCache.from_env()
        assert cache is not None
        assert cache.root == tmp_path / "c"
