"""InferenceEngine: batching, caching, lifecycle, output integrity."""

import threading
import time
from concurrent.futures import wait as futures_wait

import numpy as np
import pytest

from repro import perf
from repro.core.errors import ModelError
from repro.core.schema import NUM_CLASSES
from repro.models import create_model
from repro.models.base import RiskModel
from repro.serve import EngineConfig, InferenceEngine
from repro.serve.engine import RequestTiming


@pytest.fixture(scope="module")
def fitted_logreg(small_splits):
    model = create_model("logreg")
    model.fit(small_splits.train, small_splits.validation)
    return model


@pytest.fixture()
def engine(fitted_logreg):
    with InferenceEngine(fitted_logreg, EngineConfig(max_batch_size=8)) as eng:
        yield eng


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(max_batch_size=0)
    with pytest.raises(ValueError):
        EngineConfig(max_wait_s=-1.0)


def test_multiple_workers_match_direct(fitted_logreg, small_splits):
    windows = small_splits.test
    direct = fitted_logreg.predict_proba(windows)
    config = EngineConfig(max_batch_size=2, max_wait_s=0.01)
    with InferenceEngine(fitted_logreg, config) as eng:
        futures = [eng.submit(w) for w in windows]
        rows = np.vstack([f.result(timeout=10.0) for f in futures])
    np.testing.assert_allclose(rows, direct, atol=1e-12)


def test_requires_fitted_model():
    with pytest.raises(ModelError):
        InferenceEngine(create_model("logreg"))


def test_predict_many_matches_predict_proba(engine, fitted_logreg, small_splits):
    windows = small_splits.test
    direct = fitted_logreg.predict_proba(windows)
    batched = engine.predict_many(windows)
    np.testing.assert_allclose(batched, direct, atol=1e-12)
    np.testing.assert_array_equal(
        batched.argmax(axis=1), direct.argmax(axis=1)
    )


def test_predict_many_empty(engine):
    assert engine.predict_many([]).shape[0] == 0


def test_async_submit_matches_direct(engine, fitted_logreg, small_splits):
    windows = small_splits.test[:6]
    futures = [engine.submit(w) for w in windows]
    rows = np.vstack([f.result(timeout=10.0) for f in futures])
    direct = fitted_logreg.predict_proba(windows)
    np.testing.assert_allclose(rows, direct, atol=1e-12)


def test_micro_batching_coalesces(fitted_logreg, small_splits):
    windows = small_splits.test[:8]
    config = EngineConfig(max_batch_size=16, max_wait_s=0.05)
    with InferenceEngine(fitted_logreg, config) as eng:
        futures = [eng.submit(w) for w in windows]
        for future in futures:
            future.result(timeout=10.0)
        stats = eng.stats()
    assert stats["batched_items"] == len(windows)
    assert stats["batches"] < len(windows)  # some coalescing happened
    assert stats["mean_batch_size"] > 1.0


def test_stats_shape(engine, small_splits):
    engine.predict_many(small_splits.test[:4])
    stats = engine.stats()
    assert stats["batches"] >= 1
    assert stats["batched_items"] >= 4
    assert stats["tokenization_cache"] is None  # logreg has no pipeline


def test_closed_engine_rejects_work(fitted_logreg, small_splits):
    eng = InferenceEngine(fitted_logreg)
    eng.close()
    with pytest.raises(RuntimeError):
        eng.predict_many(small_splits.test[:1])
    with pytest.raises(RuntimeError):
        eng.submit(small_splits.test[0])
    eng.close()  # idempotent


def test_error_propagates_to_futures(fitted_logreg):
    with InferenceEngine(fitted_logreg) as eng:
        future = eng.submit("not a window")
        with pytest.raises(Exception):
            future.result(timeout=10.0)


class TestTracing:
    def test_async_request_is_traced_with_lifecycle_events(
        self, fitted_logreg, small_splits
    ):
        with InferenceEngine(fitted_logreg) as eng:
            future = eng.submit(small_splits.test[0])
            future.result(timeout=10.0)
        timing = future.trace
        assert timing.enqueued <= timing.dispatched <= timing.completed
        assert timing.queue_wait_s == timing.dispatched - timing.enqueued
        assert timing.total_s == timing.completed - timing.enqueued
        assert timing.total_s >= timing.queue_wait_s >= 0.0

    def test_request_timing_before_dispatch_reads_zero(self):
        timing = RequestTiming()
        assert timing.queue_wait_s == 0.0
        assert timing.total_s == 0.0
        timing.dispatched = timing.enqueued + 0.002
        timing.completed = timing.enqueued + 0.005
        assert timing.queue_wait_s == pytest.approx(0.002)
        assert timing.total_s == pytest.approx(0.005)

    def test_latency_observations_feed_registry(
        self, fitted_logreg, small_splits
    ):
        perf.reset()
        with InferenceEngine(fitted_logreg) as eng:
            futures = [eng.submit(w) for w in small_splits.test[:4]]
            for f in futures:
                f.result(timeout=10.0)
        snap = perf.snapshot()
        lat = snap["observations"]["serve.request.latency_seconds"]
        assert lat["hist"]["count"] == 4
        wait = snap["observations"]["serve.request.queue_wait_seconds"]
        assert wait["hist"]["count"] == 4
        assert "serve.queue_depth" in snap["gauges"]
        counters = snap["counters"]
        assert counters["serve.batched_items"] == 4
        assert snap["spans"]["serve.batch"]["calls"] == counters["serve.batches"]
        perf.reset()

    def test_failed_batch_still_observes_each_request(self, fitted_logreg):
        perf.reset()
        with InferenceEngine(fitted_logreg) as eng:
            future = eng.submit("not a window")
            with pytest.raises(Exception):
                future.result(timeout=10.0)
        lat = perf.snapshot()["observations"]["serve.request.latency_seconds"]
        perf.reset()
        assert lat["hist"]["count"] == 1
        assert future.trace.total_s >= future.trace.queue_wait_s > 0.0


class GatedModel(RiskModel):
    """Scores every window uniformly. Its first batch runs until
    ``release`` is set; every later batch sleeps ``delay_s``. Records
    each batch's (size, start, end)."""

    name = "gated"

    def __init__(self, delay_s: float) -> None:
        super().__init__()
        self._fitted = True
        self.delay_s = delay_s
        self.started = threading.Event()
        self.release = threading.Event()
        self.batches: list[tuple[int, float, float]] = []

    def _fit(self, train, validation):
        pass

    def _predict(self, windows):
        return np.zeros(len(windows), dtype=np.int64)

    def _predict_proba(self, windows):
        start = time.perf_counter()
        if not self.started.is_set():
            self.started.set()
            self.release.wait(timeout=10.0)
        else:
            time.sleep(self.delay_s)
        self.batches.append((len(windows), start, time.perf_counter()))
        return np.full((len(windows), NUM_CLASSES), 1.0 / NUM_CLASSES)


def test_requests_queued_behind_a_batch_run_together_next():
    """Requests that queue while a batch runs go out as one batch right
    after it, however far apart they arrived: none waits longer than the
    running batch, plus ``max_wait_s``, plus its own batch."""
    model = GatedModel(delay_s=0.05)
    config = EngineConfig(max_batch_size=32, max_wait_s=0.01)
    with InferenceEngine(model, config) as eng:
        first = eng.submit("w0")
        assert model.started.wait(timeout=10.0)
        queued = []
        for i in range(4):
            queued.append(eng.submit(f"w{i + 1}"))
            time.sleep(3 * config.max_wait_s)  # beyond the last one's max_wait
        model.release.set()
        for future in [first, *queued]:
            future.result(timeout=10.0)
    assert [size for size, _, _ in model.batches] == [1, 4]
    (_, start0, end0), (_, start1, end1) = model.batches
    bound = (end0 - start0) + config.max_wait_s + (end1 - start1)
    for future in queued:
        timing = future.trace
        assert timing.total_s <= bound + 0.05
        # The wait behind the running batch counts as queue wait.
        assert timing.dispatched >= end0
        assert timing.queue_wait_s >= end0 - timing.enqueued


def test_submit_racing_close_resolves(fitted_logreg, small_splits):
    """A ``close()`` that runs between ``submit``'s open check and its
    enqueue must not strand the request on a dead queue: the future
    resolves (or fails) instead of hanging forever."""
    eng = InferenceEngine(fitted_logreg)
    real_ensure_open = eng._ensure_open
    closer = threading.Thread(target=eng.close)

    def ensure_open_then_close():
        real_ensure_open()
        closer.start()
        closer.join(timeout=0.5)  # let close() run to completion if it can

    eng._ensure_open = ensure_open_then_close
    future = eng.submit(small_splits.test[0])
    done, _ = futures_wait([future], timeout=10.0)
    closer.join(timeout=10.0)
    assert future in done, "submit raced close() and its future never resolved"
    assert not closer.is_alive()


def test_tokenization_cache_is_the_pipelines(small_splits, small_dataset):
    from repro.models.neural_common import TrainerConfig
    from repro.models.plm import PLMConfig
    from repro.models.roberta import RobertaRiskModel

    model = RobertaRiskModel(
        config=PLMConfig(dim=16, num_layers=1, num_heads=2, ffn_hidden=32,
                         max_len=64),
        trainer=TrainerConfig(epochs=1, batch_size=8, patience=2, seed=0),
        pretrain_texts=small_dataset.pretrain_texts[:200],
        pretrain_steps=1,
        seed=0,
    )
    model.fit(small_splits.train, small_splits.validation)
    perf.reset()
    with InferenceEngine(model) as eng:
        assert eng.tokenization_cache is model.pipeline.post_cache
        eng.predict_many(small_splits.test)
        first = eng.stats()["tokenization_cache"]
        assert set(first) >= {"hits", "misses", "size"}
        eng.predict_many(small_splits.test)  # second pass hits the cache
        second = eng.stats()["tokenization_cache"]
    assert second["hits"] > first["hits"]
    assert second["misses"] == first["misses"]
    gauges = perf.snapshot()["gauges"]
    perf.reset()
    for key in ("size", "hits", "misses"):
        assert gauges[f"serve.tokenize_cache.{key}"] == second[key]
    model.predict_proba(small_splits.test[:4])  # the engine is closed
    assert model.pipeline.post_cache.stats()["hits"] > second["hits"]


def test_predict_many_racing_submit_stays_in_eval_mode(small_splits, small_dataset):
    """Bulk passes in the caller's thread overlap the worker's batches
    on one network; neither may switch it back to training mode, where
    dropout would fire during inference."""
    from repro.models.deberta import DebertaRiskModel
    from repro.models.neural_common import TrainerConfig
    from repro.models.plm import PLMConfig

    model = DebertaRiskModel(
        config=PLMConfig(dim=16, num_layers=1, num_heads=2, ffn_hidden=32,
                         max_len=64),
        trainer=TrainerConfig(epochs=1, batch_size=8, patience=2, seed=0),
        pretrain_texts=small_dataset.pretrain_texts[:200],
        pretrain_steps=1,
        seed=0,
    )
    model.fit(small_splits.train, small_splits.validation)
    windows = small_splits.train + small_splits.validation + small_splits.test
    expected = model.predict_proba(windows)
    stop = threading.Event()
    errors = []
    config = EngineConfig(max_batch_size=len(windows), max_wait_s=0.0)
    with InferenceEngine(model, config) as eng:

        def submit_until_stopped():
            try:
                while not stop.is_set():
                    for future in [eng.submit(w) for w in windows[:4]]:
                        future.result(timeout=10.0)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        submitter = threading.Thread(target=submit_until_stopped)
        submitter.start()
        try:
            passes = [eng.predict_many(windows) for _ in range(15)]
        finally:
            stop.set()
            submitter.join(timeout=30.0)
    assert not submitter.is_alive()
    assert not errors, errors
    for probs in passes:
        np.testing.assert_array_equal(probs, expected)


@pytest.mark.perf_smoke
def test_engine_throughput_beats_per_window(fitted_logreg, small_splits):
    """Batched ``predict_many`` beats one ``predict_proba`` per window
    on the same cycled traffic, with the same answers."""
    windows = small_splits.test
    traffic = [windows[i % len(windows)] for i in range(128)]
    speedups = []
    with InferenceEngine(fitted_logreg, EngineConfig(max_batch_size=32)) as eng:
        eng.predict_many(traffic[:1])  # first-touch costs outside the clock
        # Best of three: single-shot wall-clock ratios flake under CPU
        # contention; the batching advantage itself is stable.
        for _ in range(3):
            start = time.perf_counter()
            before = np.vstack(
                [fitted_logreg.predict_proba([w]) for w in traffic]
            )
            before_s = time.perf_counter() - start
            start = time.perf_counter()
            after = eng.predict_many(traffic)
            after_s = time.perf_counter() - start
            np.testing.assert_array_equal(
                before.argmax(axis=1), after.argmax(axis=1)
            )
            assert float(np.abs(before - after).max()) < 1e-9
            speedups.append(before_s / after_s)
    assert max(speedups) > 1.2


@pytest.mark.perf_smoke
def test_serve_counters_flow_through_perf(fitted_logreg, small_splits):
    windows = small_splits.test[:8]
    perf.reset()
    with InferenceEngine(fitted_logreg) as eng:
        eng.predict_many(windows)
    report = perf.report()

    def total(counter):
        return sum(
            stat["count"] for path, stat in report.items()
            if path.rsplit("/", 1)[-1] == counter
        )

    assert total("serve.requests") == len(windows)
    assert total("serve.batches") >= 1
    assert any(path.endswith("serve.predict_many") for path in report)
