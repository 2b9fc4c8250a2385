"""Fast perf sanity checks (``pytest -m perf_smoke``).

Each test times a vectorized kernel against its ``_reference`` twin (or
the float32 network against its float64 twin) on a workload large enough
that the fast path should win comfortably; the assertions use generous
margins so a loaded CI machine doesn't flake. The memory guards compare
traced peaks and count page faults, which do not depend on the load.
"""

import dataclasses
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
from repro.core.rng import SeedSequenceRegistry
from repro.models.deberta import DebertaRiskNetwork
from repro.models.neural_common import train_classifier
from repro.models.plm import PLMConfig
from repro.models.registry import create_model
from repro.nn import cross_entropy
from repro.nn.attention import relative_scatter, relative_scatter_reference
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
