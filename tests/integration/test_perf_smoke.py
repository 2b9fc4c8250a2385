"""Fast perf sanity checks (``pytest -m perf_smoke``).

Each test times a vectorized kernel against its ``_reference`` twin (or
the float32 network against its float64 twin) on a workload large enough
that the fast path should win comfortably; the assertions use generous
margins so a loaded CI machine doesn't flake. The memory guards compare
traced peaks and count page faults, which do not depend on the load. The
paper-scale build pin (about 20 s) guards every rewrite of the build's
hot loops against a change of bytes.
"""

import dataclasses
import hashlib
import platform
import resource
import time
import tracemalloc

import numpy as np
import pytest

from repro.boosting.tree import RegressionTree, TreeParams
from repro.core.cache import BuildCache, build_dataset_cached, fingerprint
from repro.core.config import AnnotationConfig, CorpusConfig
from repro.core.pipeline import build_dataset
from repro.core.privacy import scrub_text, scrub_text_reference
from repro.core.rng import ScalarDraws, SeedSequenceRegistry
from repro.models.deberta import DebertaRiskNetwork
from repro.models.neural_common import train_classifier
from repro.models.plm import PLMConfig
from repro.models.registry import create_model
from repro.nn import Tensor, cross_entropy, no_grad
from repro.nn.attention import (
    attention_weights,
    attention_weights_reference,
    relative_scatter,
    relative_scatter_reference,
)
from repro.preprocess.dedup import MinHasher, shingles

pytestmark = pytest.mark.perf_smoke


def _clock(fn, repeats=3):
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestKernelSmoke:
    def test_split_scan_beats_reference(self):
        # Node-level workload: many scans at the few-hundred-row node
        # sizes a growing tree actually sees.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 20))
        g = rng.normal(size=200)
        h = np.ones(200)
        tree = RegressionTree(TreeParams())
        rows = np.arange(200)
        cols = np.arange(20)
        args = (x, g, h, rows, cols, float(g.sum()), float(h.sum()))
        fast = _clock(lambda: [tree._best_split(*args) for _ in range(50)])
        slow = _clock(
            lambda: [tree._best_split_reference(*args) for _ in range(50)]
        )
        assert tree._best_split(*args)[1] == tree._best_split_reference(*args)[1]
        assert fast < slow  # usually ~3x below; margin for CI noise

    def test_minhash_beats_reference(self):
        hasher = MinHasher(num_perm=128)
        sets = [
            shingles(f"sample text number {i} with several shared words " * 3)
            for i in range(50)
        ]
        fast = _clock(lambda: [hasher.signature(s) for s in sets])
        slow = _clock(lambda: [hasher._signature_reference(s) for s in sets])
        assert fast < slow * 1.5

    def test_minhash_batch_beats_reference(self):
        """The batch path over templated posts that share most shingles,
        as a crawl's do."""
        hasher = MinHasher(num_perm=64)
        sets = [
            shingles(f"i feel {i % 7} hopeless and alone tonight again " * 4)
            for i in range(300)
        ]
        fast = _clock(lambda: hasher.signatures(sets))
        slow = _clock(lambda: [hasher._signature_reference(s) for s in sets])
        assert fast < slow  # usually ~100x below

    def test_scrub_text_beats_reference(self):
        texts = [
            f"post {i}: I feel hopeless tonight and cannot sleep at all " * 4
            for i in range(400)
        ]
        fast = _clock(lambda: [scrub_text(t) for t in texts])
        slow = _clock(lambda: [scrub_text_reference(t) for t in texts])
        assert [scrub_text(t) for t in texts] == [
            scrub_text_reference(t) for t in texts
        ]
        assert fast < slow  # usually ~3x below; the digits keep one regex

    @pytest.mark.parametrize("transpose", [False, True])
    def test_relative_scatter_beats_reference(self, transpose):
        # One DeBERTa attention layer's gather gradient at the PLM's batch
        # size, head count, sequence length and bucket range.
        grad = np.random.default_rng(0).normal(size=(16, 4, 96, 96))
        fast = _clock(lambda: relative_scatter(grad, 16, transpose))
        slow = _clock(lambda: relative_scatter_reference(grad, 16, transpose))
        assert np.array_equal(
            relative_scatter(grad, 16, transpose),
            relative_scatter_reference(grad, 16, transpose),
        )
        assert fast < slow  # usually ~3-5x below; margin for CI noise

    def test_disentangled_weights_beat_reference(self):
        # DeBERTa's attention weights in a serve batch: 32 windows, 4
        # heads, 96 tokens, 33 relative buckets, float32, no graph. The
        # node gathers c2p and p2c itself; the twin builds them as
        # tensors and sums op by op.
        rng = np.random.default_rng(0)
        c2c = Tensor(rng.normal(size=(32, 4, 96, 96)))
        c2p = Tensor(rng.normal(size=(32, 4, 96, 33)))
        p2c = Tensor(rng.normal(size=(32, 4, 96, 33)))
        terms = [c2c, (c2p, 16, False), (p2c, 16, True)]

        def weights(fn):
            with no_grad():
                return fn(terms, 0.14, None).data

        fast = _clock(lambda: weights(attention_weights))
        slow = _clock(lambda: weights(attention_weights_reference))
        assert np.array_equal(
            weights(attention_weights), weights(attention_weights_reference)
        )
        assert fast < slow  # usually ~1.5-2x below; margin for CI noise

    def test_scalar_draws_beat_numpy(self):
        # The sentence sampler's mix: 100k scalar draws, two bounded
        # integers per uniform, decoded against numpy's scalar calls.
        calls = [
            None if c == 0 else int(k)
            for c, k in zip(
                np.random.default_rng(1).integers(3, size=100_000).tolist(),
                np.random.default_rng(2).integers(1, 40, size=100_000).tolist(),
            )
        ]

        def draw(source):
            random, integers = source.random, source.integers
            return [random() if k is None else integers(k) for k in calls]

        def decoded():
            return draw(ScalarDraws(np.random.default_rng(3)))

        def numpy_scalar():
            return draw(np.random.default_rng(3))

        assert decoded() == numpy_scalar()
        fast, slow = _clock(decoded), _clock(numpy_scalar)
        assert fast < slow  # usually ~3-4x below; margin for CI noise


class TestFloat32Smoke:
    def test_deberta_batch_beats_float64_twin(self, request):
        # One DeBERTa fine-tuning batch at the base PLM size: 16 windows
        # of 96 tokens and 5 posts, forward and backward.
        rng = np.random.default_rng(0)
        ids = rng.integers(5, 3000, size=(16, 96))
        inputs = (ids, np.ones((16, 96)), rng.normal(size=(16, 5, 12)),
                  np.ones((16, 5)), np.zeros((16, 5)))
        labels = rng.integers(0, 4, size=16)

        def batch_s():
            net = DebertaRiskNetwork(3000, 12, PLMConfig.base(),
                                     np.random.default_rng(1))

            def step():
                net.zero_grad()
                cross_entropy(net(*inputs), labels).backward()

            return _clock(step)

        fast = batch_s()
        request.getfixturevalue("float64_twin")
        slow = batch_s()
        assert fast < slow  # usually ~1.5x below; margin for CI noise


def _traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


class TestMemorySmoke:
    def test_training_holds_one_step_graph_at_a_time(self):
        # A DeBERTa fine-tune of two batches peaks no higher than one
        # batch's forward + backward: backward frees each graph, so a
        # step never overlaps the previous step's graph.
        splits = build_dataset(
            CorpusConfig().scaled(0.03), near_dedup=False
        ).dataset.splits()
        model = create_model("deberta", pretrain_steps=0, seed=0)
        trainer = dataclasses.replace(model.trainer, epochs=1)
        model.pipeline.fit(splits.train)
        model.network = model._build_network(SeedSequenceRegistry(0).get("init"))
        encoded = model.pipeline.encode(splits.train)
        assert len(encoded) > trainer.batch_size  # at least two steps

        def one_batch():
            idx = np.arange(trainer.batch_size)
            logits = model._forward(encoded, idx)
            cross_entropy(logits, encoded.labels[idx]).backward()

        model.network.train()
        step_mb = _traced_peak_mb(one_batch)
        model.network.zero_grad()
        train_mb = _traced_peak_mb(
            lambda: train_classifier(
                model.network, model._forward, encoded, None, trainer
            )
        )
        assert train_mb <= 1.15 * step_mb, (train_mb, step_mb)


    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap policy is set through glibc")
    def test_freed_heap_is_reused_without_page_faults(self):
        # What a training step or serving batch does: allocate 64 MB of
        # activations, free them all. Run the step twice, then count the
        # minor page faults of a third; handing the freed heap back to the
        # OS would fault all 16k of its pages in again.
        def step():
            arrays = [np.ones(1 << 19) for _ in range(16)]  # 16 x 4 MB
            del arrays

        step()
        step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        step()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 1000, faults


class TestCacheSmoke:
    def test_warm_cache_beats_cold_build(self, tmp_path):
        config = CorpusConfig().scaled(0.05)
        annotation = AnnotationConfig(seed=config.seed)
        cache = BuildCache(root=tmp_path / "cache")
        start = time.perf_counter()
        cold = build_dataset_cached(
            config, annotation, near_dedup=False, cache=cache
        )
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = build_dataset_cached(
            config, annotation, near_dedup=False, cache=cache
        )
        warm_s = time.perf_counter() - start
        assert cache.has(fingerprint(config, annotation, False))
        assert warm.dataset.labels == cold.dataset.labels
        assert warm_s < cold_s  # disk load vs full pipeline


class TestPaperScaleBuild:
    #: JSONL sha256 of ``build_dataset(CorpusConfig())``: scale 1.0, seed
    #: 15000 (``DEFAULT_SEED``), near-dedup and anonymisation on.
    SHA256 = "7afc2da776704c3218e010a508d84881792c5adb739d55b199669f1d80814f96"

    def test_dataset_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "dataset.jsonl"
        build_dataset(CorpusConfig()).dataset.to_jsonl(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.SHA256
