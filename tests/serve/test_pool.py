"""WorkerPool: output integrity, crash propagation, backpressure, telemetry.

Workers start with ``spawn`` (the pool's only start method), so the
helper model classes here must be importable by worker processes —
they live at module top level for exactly that reason.
"""

import time

import numpy as np
import pytest

from repro import perf
from repro.core.errors import ModelError, NotFittedError
from repro.core.schema import NUM_CLASSES
from repro.models import create_model
from repro.models.base import RiskModel
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    PoolConfig,
    PoolSaturatedError,
    WorkerCrashError,
    WorkerPool,
)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


class SlowModel(RiskModel):
    """Deterministic model whose scoring blocks for a fixed delay.

    Lets tests hold a worker busy (crash injection mid-request) or let
    the request queue back up (backpressure) without timing races on
    real model speed.
    """

    name = "Slow"

    def __init__(self, delay_s: float = 0.2) -> None:
        super().__init__()
        self.delay_s = delay_s
        self.weights = np.linspace(1.0, 2.0, NUM_CLASSES)

    def _fit(self, train, validation) -> None:
        pass

    def _predict(self, windows):
        return self._predict_proba(windows).argmax(axis=1)

    def _predict_proba(self, windows):
        time.sleep(self.delay_s)
        probs = np.tile(self.weights, (len(windows), 1))
        return probs / probs.sum(axis=1, keepdims=True)


class UnloadableModel(SlowModel):
    """Pickles fine in the parent but cannot be rebuilt in a worker."""

    name = "Unloadable"

    def __setstate__(self, state) -> None:
        raise RuntimeError("weights refused to load")


def _slow_pool(delay_s=0.2, **kwargs) -> WorkerPool:
    model = SlowModel(delay_s).fit(["w"])
    defaults = dict(num_workers=1, engine=EngineConfig(max_batch_size=4))
    defaults.update(kwargs)
    return WorkerPool(model, PoolConfig(**defaults))


@pytest.fixture(scope="module")
def fitted_logreg(small_splits):
    model = create_model("logreg")
    model.fit(small_splits.train, small_splits.validation)
    return model


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PoolConfig(num_workers=0)
        with pytest.raises(ValueError):
            PoolConfig(max_pending=0)
        with pytest.raises(ValueError):
            PoolConfig(startup_timeout_s=0)

    def test_exactly_one_model_source(self, fitted_logreg):
        with pytest.raises(ModelError):
            WorkerPool(None)
        with pytest.raises(TypeError):
            WorkerPool(fitted_logreg, state=object())

    def test_non_model_rejected(self):
        with pytest.raises(ModelError):
            WorkerPool({"weights": np.ones(3)})

    def test_unfitted_model_rejected(self):
        with pytest.raises(NotFittedError):
            WorkerPool(create_model("logreg"))


class TestOutputIntegrity:
    def test_bitwise_identical_to_single_engine(
        self, fitted_logreg, small_splits
    ):
        windows = list(small_splits.test)
        config = PoolConfig(num_workers=2, engine=EngineConfig(max_batch_size=4))
        with InferenceEngine(fitted_logreg, config.engine) as engine:
            single = engine.predict_many(windows)
        with WorkerPool(fitted_logreg, config) as pool:
            pooled = pool.predict_many(windows, timeout=60.0)
            labels = pool.predict_labels(windows, timeout=60.0)
        np.testing.assert_array_equal(pooled, single)  # bitwise, float64
        np.testing.assert_array_equal(labels, single.argmax(axis=1))

    def test_empty_input(self, fitted_logreg):
        config = PoolConfig(num_workers=1)
        with WorkerPool(fitted_logreg, config) as pool:
            out = pool.predict_many([])
        assert out.shape == (0, NUM_CLASSES)

    def test_submit_resolves_future(self, fitted_logreg, small_splits):
        windows = list(small_splits.test)[:3]
        with WorkerPool(fitted_logreg, PoolConfig(num_workers=1)) as pool:
            future = pool.submit(windows)
            probs = future.result(timeout=60.0)
        assert probs.shape == (3, NUM_CLASSES)


class TestCrashPropagation:
    def test_worker_startup_failure_raises(self):
        model = UnloadableModel().fit(["w"])
        with pytest.raises(WorkerCrashError, match="weights refused to load"):
            WorkerPool(model, PoolConfig(num_workers=1))

    def test_in_flight_futures_fail_instead_of_hanging(self):
        pool = _slow_pool(delay_s=0.5)
        try:
            futures = [pool.submit(["w"] * 2) for _ in range(3)]
            time.sleep(0.1)  # let the worker start chewing on the first
            pool.debug_kill_worker(0)
            for future in futures:
                with pytest.raises(WorkerCrashError):
                    future.result(timeout=30.0)
            assert pool.broken
        finally:
            pool.close()

    def test_broken_pool_rejects_new_work(self):
        pool = _slow_pool(delay_s=0.05)
        try:
            pool.debug_kill_worker(0)
            deadline = time.monotonic() + 30.0
            while not pool.broken and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.broken
            with pytest.raises(WorkerCrashError):
                pool.submit(["w"])
        finally:
            pool.close()

    def test_worker_request_error_fails_only_that_future(self, fitted_logreg):
        with WorkerPool(fitted_logreg, PoolConfig(num_workers=1)) as pool:
            bad = pool.submit([object()])  # unscoreable payload
            with pytest.raises(Exception) as excinfo:
                bad.result(timeout=30.0)
            assert not isinstance(excinfo.value, WorkerCrashError)
            assert not pool.broken  # worker survived the poison request
            good = pool.submit([])
            assert good.result(timeout=30.0).shape == (0, NUM_CLASSES)


class TestBackpressure:
    def test_saturated_queue_raises_instead_of_blocking(self):
        pool = _slow_pool(delay_s=0.5, max_pending=1)
        try:
            first = pool.submit(["w"], block=False)
            deadline = time.monotonic() + 10.0
            # Wait for the worker to take the first request off the queue.
            while pool._request_q.qsize() > 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            queued = pool.submit(["w"], block=False)  # fills the queue
            with pytest.raises(PoolSaturatedError):
                pool.submit(["w"], block=False)
            assert first.result(timeout=30.0).shape == (1, NUM_CLASSES)
            assert queued.result(timeout=30.0).shape == (1, NUM_CLASSES)
        finally:
            pool.close()


class TestLifecycle:
    def test_close_is_idempotent_and_rejects_submissions(self):
        pool = _slow_pool(delay_s=0.01)
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.submit(["w"])
        with pytest.raises(RuntimeError):
            pool.predict_many(["w"])

    def test_context_manager(self, fitted_logreg):
        with WorkerPool(fitted_logreg, PoolConfig(num_workers=1)) as pool:
            assert pool.stats()["workers_alive"] == 1
        assert pool.stats()["workers_alive"] == 0


class TestTelemetry:
    def test_parent_latency_histogram(self, fitted_logreg, small_splits):
        windows = list(small_splits.test)[:4]
        with WorkerPool(fitted_logreg, PoolConfig(num_workers=1)) as pool:
            pool.predict_many(windows, timeout=60.0)
        obs = perf.snapshot()["observations"]
        assert "serve.pool.request.latency_seconds" in obs


@pytest.mark.perf_smoke
def test_pool_smoke_bench(fitted_logreg, small_splits):
    """End-to-end pool run on real traffic: integrity + liveness."""
    windows = list(small_splits.test)
    traffic = [windows[i % len(windows)] for i in range(48)]
    config = PoolConfig(num_workers=2, engine=EngineConfig(max_batch_size=8))
    with InferenceEngine(fitted_logreg, config.engine) as engine:
        single = engine.predict_many(traffic)
    with WorkerPool(fitted_logreg, config) as pool:
        pooled = pool.predict_many(traffic, timeout=300.0)
    np.testing.assert_array_equal(pooled.argmax(axis=1), single.argmax(axis=1))
    np.testing.assert_array_equal(pooled, single)  # float64, bitwise
    latency = perf.snapshot()["observations"][
        "serve.pool.request.latency_seconds"
    ]
    assert latency["hist"]["count"] > 0
