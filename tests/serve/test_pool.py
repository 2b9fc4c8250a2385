"""WorkerPool: output integrity, failures that do not hang, lifecycle.

Workers start with ``spawn``, so the helper model classes here must be
importable by worker processes — they live at module top level for
exactly that reason.
"""

import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from itertools import cycle, islice

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
    WorkerCrashError,
    WorkerPool,
)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


class ConstantModel(RiskModel):
    """Scores every window with the same fixed probabilities."""

    name = "Constant"

    def _fit(self, train, validation) -> None:
        pass

    def _predict(self, windows):
        return self._predict_proba(windows).argmax(axis=1)

    def _predict_proba(self, windows):
        probs = np.tile(np.linspace(1.0, 2.0, NUM_CLASSES), (len(windows), 1))
        return probs / probs.sum(axis=1, keepdims=True)


class BatchSizeModel(ConstantModel):
    """Scores each window by the size of the batch it came in, so any
    shard that is not one engine batch shows in the output."""

    name = "BatchSize"

    def _predict_proba(self, windows):
        probs = np.tile(np.linspace(1.0, len(windows), NUM_CLASSES), (len(windows), 1))
        return probs / probs.sum(axis=1, keepdims=True)


class UnloadableModel(ConstantModel):
    """Pickles fine in the parent but cannot be rebuilt in a worker."""

    name = "Unloadable"

    def __setstate__(self, state) -> None:
        raise RuntimeError("weights refused to load")


class DyingOnLoadModel(ConstantModel):
    """Kills the worker process that unpickles it."""

    name = "DyingOnLoad"

    def __setstate__(self, state) -> None:
        os._exit(3)


class ExitingModel(ConstantModel):
    """Kills the worker process that scores it, as a segfault would."""

    name = "Exiting"

    def _predict_proba(self, windows):
        os._exit(3)


def _within(seconds, fn, *args):
    """``fn(*args)``, failing with ``TimeoutError`` instead of hanging."""
    runner = ThreadPoolExecutor(1)
    try:
        return runner.submit(fn, *args).result(timeout=seconds)
    finally:
        runner.shutdown(wait=False)


@pytest.fixture(scope="module")
def fitted_logreg(small_splits):
    model = create_model("logreg")
    model.fit(small_splits.train, small_splits.validation)
    return model


@pytest.fixture()
def traffic(small_splits):
    """Three engine batches' worth of test windows, repeated as needed."""
    size = EngineConfig().max_batch_size
    return list(islice(cycle(small_splits.test), 2 * size + 5))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PoolConfig(num_workers=0)
        assert [f.name for f in fields(PoolConfig)] == ["num_workers"]

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
    def test_bitwise_identical_to_single_engine(self, fitted_logreg, traffic):
        with InferenceEngine(fitted_logreg) as engine:
            single = engine.predict_many(traffic)
        with WorkerPool(fitted_logreg, PoolConfig(num_workers=2)) as pool:
            pooled = pool.predict_many(traffic)
        np.testing.assert_array_equal(pooled, single)  # bitwise, float64

    def test_shards_are_engine_batches(self):
        model = BatchSizeModel().fit(["w"])
        windows = ["w"] * (2 * EngineConfig().max_batch_size + 5)
        with InferenceEngine(model) as engine:
            single = engine.predict_many(windows)
        with WorkerPool(model, PoolConfig(num_workers=2)) as pool:
            np.testing.assert_array_equal(pool.predict_many(windows), single)

    def test_empty_input(self, fitted_logreg):
        with WorkerPool(fitted_logreg, PoolConfig(num_workers=1)) as pool:
            out = pool.predict_many([])
        assert out.shape == (0, NUM_CLASSES)


class TestCrashPropagation:
    def test_worker_startup_failure_raises(self):
        model = UnloadableModel().fit(["w"])
        with pytest.raises(WorkerCrashError, match="weights refused to load"):
            WorkerPool(model, PoolConfig(num_workers=1))
        assert multiprocessing.active_children() == []

    def test_worker_dying_at_startup_raises(self):
        with pytest.raises(WorkerCrashError, match="pool worker died"):
            WorkerPool(DyingOnLoadModel().fit(["w"]), PoolConfig(num_workers=2))
        assert multiprocessing.active_children() == []

    def test_in_flight_futures_fail_instead_of_hanging(self):
        with WorkerPool(ExitingModel().fit(["w"]), PoolConfig(2)) as pool:
            with pytest.raises(WorkerCrashError):
                _within(30.0, pool.predict_many, ["w"] * 40)

    def test_broken_pool_rejects_new_work(self):
        with WorkerPool(ExitingModel().fit(["w"]), PoolConfig(1)) as pool:
            with pytest.raises(WorkerCrashError):
                _within(30.0, pool.predict_many, ["w"])
            with pytest.raises(WorkerCrashError):
                _within(30.0, pool.predict_many, ["w"])

    def test_worker_request_error_fails_only_that_future(self, fitted_logreg, traffic):
        with WorkerPool(fitted_logreg, PoolConfig(num_workers=1)) as pool:
            with pytest.raises(Exception) as excinfo:
                pool.predict_many([object()])  # unscoreable payload
            assert not isinstance(excinfo.value, WorkerCrashError)
            assert pool.predict_many(traffic).shape == (len(traffic), NUM_CLASSES)


class TestLifecycle:
    def test_close_is_idempotent_and_rejects_submissions(self, fitted_logreg):
        pool = WorkerPool(fitted_logreg, PoolConfig(num_workers=1))
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.predict_many(["w"])

    def test_context_manager(self, fitted_logreg):
        with WorkerPool(fitted_logreg, PoolConfig(num_workers=1)) as pool:
            assert len(multiprocessing.active_children()) == 1
        assert multiprocessing.active_children() == []
        with pytest.raises(RuntimeError, match="closed"):
            pool.predict_many(["w"])


class TestTelemetry:
    def test_predict_many_span_in_parent(self, fitted_logreg, small_splits):
        perf.reset()
        with WorkerPool(fitted_logreg, PoolConfig(num_workers=1)) as pool:
            pool.predict_many(list(small_splits.test)[:4])
        assert perf.snapshot()["spans"]["serve.pool.predict_many"]["calls"] == 1


@pytest.mark.perf_smoke
def test_pool_smoke_bench(fitted_logreg, small_splits):
    """End-to-end pool run on real traffic: integrity + liveness."""
    traffic = list(islice(cycle(small_splits.test), 48))
    with InferenceEngine(fitted_logreg) as engine:
        single = engine.predict_many(traffic)
    with WorkerPool(fitted_logreg, PoolConfig(num_workers=2)) as pool:
        pooled = pool.predict_many(traffic)
    np.testing.assert_array_equal(pooled.argmax(axis=1), single.argmax(axis=1))
    np.testing.assert_array_equal(pooled, single)  # float64, bitwise
    assert perf.snapshot()["spans"]["serve.pool.predict_many"]["calls"] > 0
