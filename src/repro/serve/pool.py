"""Multi-process serving: N engine workers behind one shared queue.

One :class:`~repro.serve.engine.InferenceEngine` is capped by one GIL
and one BLAS context. The :class:`WorkerPool` scales past that by
spawning ``num_workers`` processes, each running its own engine over a
private copy of the model, all pulling from a single bounded request
queue:

* **pickle handoff** — the parent pickles the fitted model once and
  every worker unpickles a private copy. The served DeBERTa holds about
  1 MB of weights at ``repobench``'s serve scale, so the copies cost
  nothing measurable. ``Tensor`` and ``LRUCache`` drop their
  process-local state when pickled, so a worker's model arrives with
  its pipeline's tokenization cache warm;
* **single-engine contract** — ``predict_many`` shards its input into
  chunks aligned to ``engine.max_batch_size``, so every worker scores
  exactly the batches the single engine would have scored: labels are
  bitwise-identical and so are the float64 probabilities (see
  tests/serve/test_pool.py);
* **crash propagation** — a collector thread watches worker liveness;
  an unexpected worker death marks the pool *broken* and fails every
  in-flight ``Future`` with :class:`WorkerCrashError` instead of
  letting callers hang on results that will never arrive;
* **backpressure** — the request queue is bounded by
  ``max_pending``; ``submit(block=False)`` raises
  :class:`PoolSaturatedError` when the pool is at capacity so callers
  can shed load instead of queueing unboundedly;
* **telemetry** — the parent records ``serve.pool.*`` spans, counters,
  queue-depth gauges and end-to-end latency histograms in its own
  ``repro.perf`` registry, so they cover every request the pool
  serves.

Workers always start with ``spawn``, which is safe regardless of the
parent's threads. Lifecycle: construct → ``predict_many``/``submit`` →
``close()`` (or use as a context manager). ``close()`` sends stop
sentinels, waits for the workers to stop, then joins the processes.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import threading
import time
import traceback
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro import perf
from repro.core.errors import ModelError, NotFittedError
from repro.core.schema import NUM_CLASSES
from repro.models.base import RiskModel
from repro.serve.engine import EngineConfig, InferenceEngine
from repro.temporal.windows import PostWindow

__all__ = [
    "PoolConfig",
    "PoolSaturatedError",
    "WorkerCrashError",
    "WorkerPool",
]

class WorkerCrashError(RuntimeError):
    """A worker process died unexpectedly; the pool is broken."""


class PoolSaturatedError(RuntimeError):
    """The bounded request queue is full (``submit(block=False)``)."""


@dataclass(frozen=True)
class PoolConfig:
    """Worker-pool knobs.

    num_workers:
        Engine processes to spawn. Throughput scales with physical
        cores; on a single-core host the pool adds IPC overhead for no
        parallelism (``repobench`` reports ``serve.pool_windows_per_s``
        with ``nproc`` workers, next to the host's CPU count).
    engine:
        :class:`EngineConfig` used by every worker's local engine. Its
        ``max_batch_size`` also fixes the pool's ``predict_many``
        shard size, which is what keeps pool output bitwise-identical
        to the single-engine path.
    max_pending:
        Bound on queued (submitted, not yet collected) requests —
        the backpressure knob.
    startup_timeout_s / shutdown_timeout_s:
        How long to wait for workers to come up / drain before the
        pool gives up (startup) or terminates them (shutdown).
    """

    num_workers: int = 2
    engine: EngineConfig = field(default_factory=EngineConfig)
    max_pending: int = 256
    startup_timeout_s: float = 120.0
    shutdown_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.startup_timeout_s <= 0 or self.shutdown_timeout_s <= 0:
            raise ValueError("timeouts must be > 0")


def _format_error(exc: BaseException) -> str:
    """Flatten an exception (with traceback) to a string for the queue.

    Exception objects themselves may be unpicklable (or pickle huge
    context), so workers ship text.
    """
    lines = traceback.format_exception(type(exc), exc, exc.__traceback__)
    return "".join(lines).rstrip()


def _worker_main(
    worker_id: int,
    model_bytes: bytes,
    engine_config: EngineConfig,
    request_q,
    result_q,
) -> None:
    """Worker process body: unpickle the model, serve requests.

    Top-level (not a closure) so it pickles under the ``spawn`` start
    method. Returning normally is enough to deliver the last message:
    the queue's feeder thread flushes it before the process exits.
    """
    try:
        model = pickle.loads(model_bytes)
        engine = InferenceEngine(model, engine_config)
    except BaseException as exc:
        # Startup failure must reach the parent or __init__ would hang
        # waiting for "ready"; nothing to re-raise to in a child process.
        result_q.put(("start_error", worker_id, _format_error(exc)))
        return
    result_q.put(("ready", worker_id, os.getpid()))
    try:
        while True:
            msg = request_q.get()
            if msg[0] == "stop":
                return
            _, req_id, windows = msg
            try:
                probs = engine.predict_many(windows)
            except Exception as exc:
                # One bad request must not kill the worker; the parent
                # turns this payload into the Future's exception.
                result_q.put(("err", req_id, worker_id, _format_error(exc)))
            else:
                result_q.put(("ok", req_id, worker_id, probs))
    finally:
        try:
            engine.close()
        except Exception:
            # Shutdown is best-effort: the "stopped" message below
            # matters more than a clean engine teardown in a dying
            # process.
            pass
        result_q.put(("stopped", worker_id))


class WorkerPool:
    """Process-pool front end with the :class:`InferenceEngine` API.

    Usage
    -----
    >>> with WorkerPool(model, PoolConfig(num_workers=4)) as pool:
    ...     probs = pool.predict_many(windows)      # sync, sharded
    ...     future = pool.submit(windows[:8])       # async, one chunk
    ...     future.result()
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
        model_bytes = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)

        self._lock = threading.Lock()
        self._pending: dict[int, tuple[Future, float]] = {}
        self._next_id = 0
        self._closed = False
        self._closing = False
        self._broken = False
        self._broken_reason = ""
        self._start_error: str | None = None
        self._requests = 0
        self._errors = 0
        self._finished_workers: set[int] = set()
        self._ready_workers: set[int] = set()
        self._ready = threading.Event()
        self._workers_done = threading.Event()

        try:
            ctx = multiprocessing.get_context("spawn")
            self._request_q = ctx.Queue(maxsize=self.config.max_pending)
            self._result_q = ctx.Queue()
            self._processes = [
                ctx.Process(
                    target=_worker_main,
                    args=(
                        i,
                        model_bytes,
                        self.config.engine,
                        self._request_q,
                        self._result_q,
                    ),
                    name=f"pool-worker-{i}",
                    daemon=True,
                )
                for i in range(self.config.num_workers)
            ]
            for proc in self._processes:
                proc.start()
            self._collector = threading.Thread(
                target=self._collect_loop, name="pool-collector", daemon=True
            )
            self._collector.start()
            if not self._ready.wait(timeout=self.config.startup_timeout_s):
                raise WorkerCrashError(
                    f"pool workers not ready within "
                    f"{self.config.startup_timeout_s:.0f}s"
                )
            with self._lock:
                start_error = self._start_error
                broken_reason = self._broken_reason if self._broken else None
            failure = start_error or broken_reason
            if failure is not None:
                raise WorkerCrashError(f"worker failed to start:\n{failure}")
        except BaseException:
            self._teardown_after_init_failure()
            raise

    # -- request paths -----------------------------------------------------

    def submit(
        self,
        windows: list[PostWindow],
        block: bool = True,
        timeout: float | None = None,
    ) -> Future:
        """Queue one chunk of windows; resolves to (len, C) probabilities.

        With ``block=False`` (or on ``timeout``) a full request queue
        raises :class:`PoolSaturatedError` instead of waiting — the
        backpressure signal for callers that would rather shed load.
        """
        with self._lock:
            self._ensure_open_locked()
            req_id = self._next_id
            self._next_id += 1
            future: Future = Future()
            self._pending[req_id] = (future, time.perf_counter())
            self._requests += 1
        try:
            payload = ("req", req_id, list(windows))
            if block:
                self._request_q.put(payload, timeout=timeout)
            else:
                self._request_q.put_nowait(payload)
        except queue.Full:
            with self._lock:
                self._pending.pop(req_id, None)
            raise PoolSaturatedError(
                f"request queue at capacity ({self.config.max_pending} pending)"
            ) from None
        perf.count("serve.pool.requests")
        perf.gauge("serve.pool.queue_depth", self._request_q.qsize())
        return future

    def predict_many(
        self, windows: list[PostWindow], timeout: float | None = None
    ) -> np.ndarray:
        """(N, C) probabilities, sharded across the worker processes.

        Shards are cut at ``engine.max_batch_size`` boundaries — the
        same batch composition the single engine's ``predict_many``
        would use — so per-window results are bitwise-identical to one
        engine (each batch's forward pass sees exactly the same operands
        in the same order).
        """
        self._ensure_open()
        if not windows:
            return np.zeros((0, NUM_CLASSES), dtype=np.float64)
        size = self.config.engine.max_batch_size
        with perf.span("serve.pool.predict_many"):
            futures = [
                self.submit(windows[start : start + size])
                for start in range(0, len(windows), size)
            ]
            parts = [f.result(timeout=timeout) for f in futures]
        return np.vstack(parts)

    def predict_labels(
        self, windows: list[PostWindow], timeout: float | None = None
    ) -> np.ndarray:
        """Greedy labels via the sharded probability path."""
        probs = self.predict_many(windows, timeout=timeout)
        return probs.argmax(axis=1).astype(np.int64)

    # -- collector ---------------------------------------------------------

    def _collect_loop(self) -> None:
        while True:
            try:
                msg = self._result_q.get(timeout=0.1)
            except queue.Empty:
                self._check_workers()
                if self._workers_done.is_set() and self._closing:
                    return
                continue
            kind = msg[0]
            if kind == "ok":
                self._resolve(msg[1], result=msg[3])
            elif kind == "err":
                self._resolve(
                    msg[1],
                    error=RuntimeError(
                        f"worker {msg[2]} request failed:\n{msg[3]}"
                    ),
                )
            elif kind == "ready":
                with self._lock:
                    self._ready_workers.add(msg[1])
                    ready = len(self._ready_workers)
                if ready == self.config.num_workers:
                    self._ready.set()
            elif kind == "start_error":
                with self._lock:
                    self._start_error = msg[2]
                self._worker_finished(msg[1])
                self._ready.set()  # unblock __init__ so it can raise
                self._mark_broken(f"worker {msg[1]} failed to start")
            elif kind == "stopped":
                self._worker_finished(msg[1])

    def _resolve(self, req_id: int, result=None, error=None) -> None:
        with self._lock:
            entry = self._pending.pop(req_id, None)
            if error is not None:
                self._errors += 1
        if entry is None:
            return  # already failed by _mark_broken, or raced close()
        future, t_submit = entry
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
            perf.observe(
                "serve.pool.request.latency_seconds",
                time.perf_counter() - t_submit,
            )

    def _check_workers(self) -> None:
        """Poll worker liveness; unexpected deaths break the pool."""
        alive = 0
        with self._lock:
            closing = self._closing
            finished = set(self._finished_workers)
        for proc in self._processes:
            if proc.is_alive():
                alive += 1
            elif proc.pid is not None and _worker_index(proc) not in finished:
                self._worker_finished(_worker_index(proc))
                if not closing:
                    self._mark_broken(
                        f"worker {_worker_index(proc)} died unexpectedly "
                        f"(exit code {proc.exitcode})"
                    )
        perf.gauge("serve.pool.workers_alive", alive)

    def _worker_finished(self, worker_id: int) -> None:
        with self._lock:
            self._finished_workers.add(worker_id)
            done = len(self._finished_workers) == self.config.num_workers
        if done:
            self._workers_done.set()

    def _mark_broken(self, reason: str) -> None:
        with self._lock:
            if self._broken:
                return
            self._broken = True
            self._broken_reason = reason
            pending = list(self._pending.values())
            self._pending.clear()
        perf.count("serve.pool.worker_crashes")
        self._ready.set()  # unblock a constructor still waiting on startup
        error = WorkerCrashError(f"{reason}; in-flight requests failed")
        for future, _ in pending:
            if not future.done():
                future.set_exception(error)

    # -- lifecycle / introspection -----------------------------------------

    def _ensure_open(self) -> None:
        with self._lock:
            self._ensure_open_locked()

    def _ensure_open_locked(self) -> None:
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if self._broken:
            raise WorkerCrashError(
                f"WorkerPool is broken: {self._broken_reason}"
            )

    @property
    def broken(self) -> bool:
        with self._lock:
            return self._broken

    def stats(self) -> dict:
        """Pool-level counters for monitoring."""
        with self._lock:
            pending = len(self._pending)
            requests = self._requests
            errors = self._errors
            broken = self._broken
        return {
            "workers": self.config.num_workers,
            "workers_alive": sum(p.is_alive() for p in self._processes),
            "pending": pending,
            "requests": requests,
            "errors": errors,
            "broken": broken,
        }

    def debug_kill_worker(self, index: int = 0) -> None:
        """Hard-kill one worker (SIGKILL) — crash-injection for tests."""
        self._processes[index].kill()

    def _teardown_after_init_failure(self) -> None:
        with self._lock:
            self._closing = True
            self._closed = True
        for proc in self._processes if hasattr(self, "_processes") else []:
            if proc.is_alive():
                proc.terminate()
        for proc in self._processes if hasattr(self, "_processes") else []:
            proc.join(timeout=5.0)

    def close(self) -> None:
        """Stop workers, wait for them to finish, join the processes.

        Idempotent. In-flight futures that never got a result are
        failed rather than left pending.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._closing = True
        # Even a broken pool may hold healthy workers; each consumes
        # exactly one sentinel and reports "stopped".
        for _ in self._processes:
            try:
                self._request_q.put(("stop",), timeout=2.0)
            except queue.Full:
                break  # workers gone or wedged; terminate below
        self._workers_done.wait(timeout=self.config.shutdown_timeout_s)
        for proc in self._processes:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        if self._collector.is_alive():
            self._collector.join(timeout=5.0)
        with self._lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
        for future, _ in leftovers:
            if not future.done():
                future.set_exception(RuntimeError("pool closed"))
        # Unflushed queue feeder threads must not block interpreter exit.
        for q in (self._request_q, self._result_q):
            q.cancel_join_thread()
            q.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _worker_index(proc) -> int:
    """Recover the worker id baked into the process name."""
    return int(proc.name.rsplit("-", 1)[1])
