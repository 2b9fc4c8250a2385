"""Multi-process serving: one engine per worker of a spawned executor.

:class:`WorkerPool` scores ``predict_many`` on ``num_workers``
processes from :func:`repro.core.workers.spawn_executor`, the spawner
``run_jobs`` uses. Every worker unpickles a private copy of the model
into its own :class:`~repro.serve.engine.InferenceEngine` (``Tensor``
and ``LRUCache`` drop their process-local state when pickled). Input is
cut into chunks of ``EngineConfig().max_batch_size`` windows, the
batches one engine would score, so the output is bitwise identical to
it. A worker that cannot load the model fails the constructor with its
error text; a worker that dies breaks the pool, and that call and every
later one raise :class:`WorkerCrashError` instead of hanging.
"""

from __future__ import annotations

import pickle
import traceback
from concurrent.futures import BrokenExecutor
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass

import numpy as np

from repro import perf
from repro.core.errors import ModelError, NotFittedError
from repro.core.schema import NUM_CLASSES
from repro.core.workers import spawn_executor
from repro.models.base import RiskModel
from repro.serve.engine import EngineConfig, InferenceEngine
from repro.temporal.windows import PostWindow

__all__ = ["PoolConfig", "WorkerCrashError", "WorkerPool"]


class WorkerCrashError(RuntimeError):
    """A worker process failed to start or died; the pool is broken."""


@dataclass(frozen=True)
class PoolConfig:
    """num_workers: engine processes to spawn, at most one per core."""

    num_workers: int = 2

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")


#: This worker's engine, or the error text that kept it from starting.
_ENGINE: InferenceEngine | None = None
_START_ERROR: str | None = None


def _start_worker(model_bytes: bytes) -> None:
    """Executor initializer. A raising initializer only breaks the
    executor and prints to the worker's stderr, so keep the text for
    :func:`_score` to raise where the parent sees it."""
    global _ENGINE, _START_ERROR
    try:
        _ENGINE = InferenceEngine(pickle.loads(model_bytes))
    except BaseException:
        _START_ERROR = traceback.format_exc().rstrip()


def _score(windows: list[PostWindow]) -> np.ndarray | None:
    """Score one chunk; an empty one only checks that the worker started."""
    if _START_ERROR is not None:
        raise WorkerCrashError(f"worker failed to start:\n{_START_ERROR}")
    return _ENGINE.predict_many(windows) if windows else None


@contextmanager
def _deaths_raised():
    """A worker that died, also while starting, raises WorkerCrashError."""
    try:
        yield
    except BrokenExecutor as exc:
        raise WorkerCrashError(f"a pool worker died: {exc}") from exc


class WorkerPool(AbstractContextManager):
    """``predict_many`` over a pool of engine processes.

    >>> with WorkerPool(model, PoolConfig(num_workers=4)) as pool:
    ...     probs = pool.predict_many(windows)
    """

    def __init__(self, model: RiskModel, config: PoolConfig | None = None) -> None:
        if not isinstance(model, RiskModel):
            raise ModelError(
                f"WorkerPool expects a RiskModel, got {type(model).__name__}"
            )
        if not model._fitted:
            raise NotFittedError(
                f"{type(model).__name__} is not fitted — workers serve "
                f"trained models"
            )
        self.config = config or PoolConfig()
        workers = self.config.num_workers
        model_bytes = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        self._executor = None
        try:
            with _deaths_raised():
                self._executor = spawn_executor(workers, _start_worker, (model_bytes,))
                list(self._executor.map(_score, [[]] * workers))
        except BaseException:
            self.close()
            raise

    def predict_many(self, windows: list[PostWindow]) -> np.ndarray:
        """(N, C) probabilities, sharded across the workers."""
        if self._executor is None:
            raise RuntimeError("WorkerPool is closed")
        if not windows:
            return np.zeros((0, NUM_CLASSES), dtype=np.float64)
        size = EngineConfig().max_batch_size
        chunks = [windows[i : i + size] for i in range(0, len(windows), size)]
        with perf.span("serve.pool.predict_many"), _deaths_raised():
            return np.vstack(list(self._executor.map(_score, chunks)))

    def close(self) -> None:
        """Shut the workers down. Idempotent."""
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None

    def __exit__(self, *exc) -> None:
        self.close()
