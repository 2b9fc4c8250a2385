"""TextPipeline's per-post memo: bounded, refit-safe, copy-safe."""

import pickle

import pytest

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


def test_cache_is_bounded_and_empty_after_fit(two_sets):
    pipeline = TextPipeline(max_vocab=200).fit(two_sets[0])
    stats = pipeline.post_cache.stats()
    assert stats["maxsize"] == POST_CACHE_SIZE
    assert stats["size"] == stats["hits"] == stats["misses"] == 0


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

    first = pipeline.encode(windows)
    stats = pipeline.post_cache.stats()
    assert stats["misses"] == stats["size"] == distinct
    assert stats["hits"] == len(texts) - distinct

    second = pipeline.encode(windows)
    again = pipeline.post_cache.stats()
    assert again["misses"] == distinct
    assert again["hits"] == stats["hits"] + len(texts)
    assert second.post_token_ids == first.post_token_ids


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
