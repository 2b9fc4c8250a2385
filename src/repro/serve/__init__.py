"""High-throughput model serving: micro-batched inference over the
registry baselines. See :mod:`repro.serve.engine`."""

from repro.serve.engine import EngineConfig, InferenceEngine
from repro.serve.pool import PoolConfig, WorkerCrashError, WorkerPool

__all__ = [
    "EngineConfig",
    "InferenceEngine",
    "PoolConfig",
    "WorkerCrashError",
    "WorkerPool",
]
