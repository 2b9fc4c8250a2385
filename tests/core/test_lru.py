"""Bounded LRU cache behind TextPipeline's per-post tokenization cache."""

import threading

import pytest

from repro.core.lru import LRUCache


def test_maxsize_validated():
    with pytest.raises(ValueError):
        LRUCache(0)


def test_get_put_roundtrip():
    cache = LRUCache(4)
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert cache.get("missing") is None
    assert cache.get("missing", 42) == 42


def test_eviction_drops_least_recently_used():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")  # refresh a; b is now the LRU entry
    cache.put("c", 3)
    assert "a" in cache
    assert "b" not in cache
    assert "c" in cache
    assert len(cache) == 2


def test_put_overwrites_without_growth():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("a", 2)
    assert cache.get("a") == 2
    assert len(cache) == 1


def test_stats_counters():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.get("a")
    cache.get("nope")
    cache.put("b", 2)
    cache.put("c", 3)  # evicts a
    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["evictions"] == 1
    assert stats["size"] == 2
    assert stats["maxsize"] == 2


def test_clear():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.clear()
    assert len(cache) == 0
    assert cache.get("a") is None


def test_thread_safety_under_contention():
    cache = LRUCache(64)
    errors = []

    def worker(base):
        try:
            for i in range(500):
                cache.put((base, i % 100), i)
                cache.get((base, (i + 1) % 100))
        except Exception as exc:  # pragma: no cover - only on failure
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(cache) <= 64
