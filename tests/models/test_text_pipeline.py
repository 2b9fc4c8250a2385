"""TextPipeline's per-post memo: bounded, refit-safe, copy-safe, and
filled by ``fit`` so no fitted text is tokenized twice."""

import pickle
from collections import Counter

import pytest

from repro import perf
from repro.core.lru import LRUCache
from repro.models import neural_common
from repro.models.neural_common import POST_CACHE_SIZE, TextPipeline
from repro.temporal.windows import PostWindow


@pytest.fixture(scope="module")
def two_sets(small_splits):
    """Two disjoint training sets whose vocabularies differ."""
    return small_splits.train[:15], small_splits.train[-15:]


def _texts(windows):
    return [post.text for window in windows for post in window.posts]


def _sliding(windows):
    """Every prefix of each window: consecutive ones share all but one
    post, as a monitoring service's sliding windows do."""
    return [
        PostWindow(author=w.author, posts=w.posts[: i + 1], label=w.label)
        for w in windows
        for i in range(len(w.posts))
    ]


def test_cache_is_bounded_and_holds_the_fit_texts(two_sets):
    pipeline = TextPipeline(max_vocab=200).fit(two_sets[0])
    stats = pipeline.post_cache.stats()
    assert stats["maxsize"] == POST_CACHE_SIZE
    assert stats["size"] == len(set(_texts(two_sets[0])))
    assert stats["hits"] == stats["misses"] == 0


def test_refit_serves_the_new_vocabularys_ids(two_sets):
    set_a, set_b = two_sets
    texts = _texts(set_a)
    pipeline = TextPipeline(max_vocab=200).fit(set_a)
    pipeline.encode(set_a)  # memoise every post under A's vocabulary
    under_a = [pipeline.encode_post(text) for text in texts]
    pipeline.fit(set_b)
    under_b = [
        TextPipeline(max_vocab=200).fit(set_b).encode_post(text)
        for text in texts
    ]
    assert under_b != under_a  # the two vocabularies really differ
    assert [pipeline.encode_post(text) for text in texts] == under_b


def test_assigning_a_vocabulary_empties_the_cache(two_sets):
    set_a, set_b = two_sets
    pipeline = TextPipeline(max_vocab=200).fit(set_a)
    pipeline.encode(set_a)
    assert len(pipeline.post_cache) > 0
    other = TextPipeline(max_vocab=200).fit(set_b)
    pipeline.vocab = other.vocab  # as BiLSTM does with pretrained vectors
    assert len(pipeline.post_cache) == 0
    text = _texts(set_a)[0]
    assert pipeline.encode_post(text) == other.encode_post(text)


def test_returned_lists_are_the_callers_own(two_sets):
    pipeline = TextPipeline(max_vocab=200).fit(two_sets[0])
    text = _texts(two_sets[0])[0]
    expected = TextPipeline(max_vocab=200).fit(two_sets[0]).encode_post(text)
    for _ in range(2):  # a miss, then a hit
        ids = pipeline.encode_post(text)
        assert ids == expected
        ids[0] = -1
        ids.append(-2)
    assert pipeline.encode_post(text) == expected


def test_overlapping_windows_hit_the_cache(two_sets):
    windows = _sliding(two_sets[0])
    texts = _texts(windows)
    distinct = len(set(texts))
    assert distinct < len(texts)
    pipeline = TextPipeline(max_vocab=200).fit(two_sets[0])

    # fit already tokenized every one of these texts.
    first = pipeline.encode(windows)
    stats = pipeline.post_cache.stats()
    assert stats["misses"] == 0
    assert stats["size"] == distinct
    assert stats["hits"] == len(texts)

    second = pipeline.encode(windows)
    again = pipeline.post_cache.stats()
    assert again["misses"] == 0
    assert again["hits"] == stats["hits"] + len(texts)
    assert second.post_token_ids == first.post_token_ids
    fresh = TextPipeline(max_vocab=200).fit(two_sets[0])
    fresh.post_cache.clear()
    assert fresh.encode(windows).post_token_ids == first.post_token_ids


class _CountingTokenizer:
    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def __call__(self, text):
        self.calls[text] += 1
        return self.inner(text)


def test_fit_tokenizes_each_distinct_text_once(two_sets):
    windows = two_sets[0]
    extra = _texts(two_sets[1]) + _texts(windows)[:5]
    pipeline = TextPipeline(max_vocab=200)
    pipeline._tokenizer = counting = _CountingTokenizer(pipeline._tokenizer)
    perf.reset()
    pipeline.fit(windows, extra_texts=extra)
    pipeline.encode_texts(extra)
    pipeline.encode(windows)
    assert set(counting.calls.values()) == {1}
    assert set(counting.calls) == set(_texts(windows)) | set(extra)
    tokenized = sum(
        stat.get("count", 0)
        for path, stat in perf.report().items()
        if path.endswith("text.tokenized")
    )
    perf.reset()
    assert tokenized == len(counting.calls)


def test_beyond_the_cache_no_text_is_tokenized_more_than_before(
    two_sets, monkeypatch
):
    """With more distinct texts than the cache holds, each text is
    tokenized at most as often as by the pipeline that tokenized every
    occurrence in fit and then encoded from an empty cache."""
    monkeypatch.setattr(neural_common, "POST_CACHE_SIZE", 7)
    windows = two_sets[0]
    extra = _texts(two_sets[1])
    occurrences = Counter(_texts(windows) + extra)
    assert len(occurrences) > 7
    pipeline = TextPipeline(max_vocab=200)
    pipeline._tokenizer = counting = _CountingTokenizer(pipeline._tokenizer)
    pipeline.fit(windows, extra_texts=extra)
    assert len(pipeline.post_cache) == 7
    sequence = extra + _texts(windows) + _texts(windows)
    pipeline.encode_texts(extra)
    pipeline.encode(windows)
    pipeline.encode(windows)

    old_cache, old_misses = LRUCache(7), Counter()
    for text in sequence:
        if old_cache.get(text) is None:
            old_misses[text] += 1
            old_cache.put(text, ())
    for text, calls in counting.calls.items():
        assert calls <= occurrences[text] + old_misses[text], text


def test_pickled_pipeline_arrives_with_a_warm_cache(two_sets):
    windows = two_sets[0]
    pipeline = TextPipeline(max_vocab=200).fit(windows)
    encoded = pipeline.encode(windows)
    clone = pickle.loads(pickle.dumps(pipeline))
    before = clone.post_cache.stats()
    assert before["size"] == pipeline.post_cache.stats()["size"]
    assert clone.encode(windows).post_token_ids == encoded.post_token_ids
    after = clone.post_cache.stats()
    assert after["misses"] == before["misses"]
    assert after["hits"] == before["hits"] + len(_texts(windows))
