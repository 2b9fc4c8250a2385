"""High-throughput inference engine over any registry risk model.

The serving workload (ROADMAP north star: "heavy traffic from millions
of users") is dominated by repeated small scoring requests. Scoring one
window at a time wastes almost all of its wall clock on per-call
overhead — python dispatch, feature/tokenization setup, tiny gemms. The
:class:`InferenceEngine` closes that gap three ways:

* **dynamic micro-batching** — asynchronous ``submit`` requests queue up
  and a batcher thread coalesces them into batches of up to
  ``max_batch_size``, waiting at most ``max_wait_s`` after the first
  request so latency stays bounded under light load; one worker thread
  executes the coalesced batches, so the next batch assembles while the
  previous one runs;
* **a bounded LRU tokenization cache** — users repost and windows
  overlap, so per-post token encodings are memoised; the memo is the
  model pipeline's own (:class:`~repro.models.neural_common.TextPipeline`),
  which the engine reports as ``tokenization_cache``;
* **a synchronous ``predict_many`` fast path** — bulk scoring skips the
  queue entirely and feeds size-capped batches straight to the model.

All scoring runs under :func:`repro.nn.no_grad`, and every stage is
instrumented through ``repro.perf``: ``serve.*`` spans/counters, gauges
(queue depth, in-flight batches, tokenization-cache size/hits/misses)
and one latency and one queue-wait observation per async request. Each
async request's :class:`RequestTiming` rides on its future as
``future.trace``. See ``docs/observability.md``.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from repro import perf
from repro.core.errors import ModelError
from repro.core.lru import LRUCache
from repro.models.base import RiskModel
from repro.nn import no_grad
from repro.temporal.windows import PostWindow

__all__ = ["EngineConfig", "InferenceEngine", "RequestTiming"]

_SHUTDOWN = object()


@dataclass(frozen=True)
class EngineConfig:
    """Serving knobs.

    max_batch_size:
        Upper bound on coalesced batch size (both paths).
    max_wait_s:
        How long the micro-batcher waits for stragglers after the first
        queued request before dispatching a partial batch.
    """

    max_batch_size: int = 32
    max_wait_s: float = 0.005

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")


class RequestTiming:
    """``perf_counter`` stamps of one async request: when it was queued,
    when the micro-batcher dispatched its batch, when it completed.
    A phase not reached yet reads as zero seconds."""

    __slots__ = ("enqueued", "dispatched", "completed")

    def __init__(self) -> None:
        self.enqueued = self.dispatched = self.completed = time.perf_counter()

    @property
    def queue_wait_s(self) -> float:
        return self.dispatched - self.enqueued

    @property
    def total_s(self) -> float:
        return self.completed - self.enqueued


class InferenceEngine:
    """Batched scoring front-end for a fitted :class:`RiskModel`.

    Usage
    -----
    >>> engine = InferenceEngine(model, EngineConfig(max_batch_size=64))
    >>> probs = engine.predict_many(windows)          # sync bulk path
    >>> future = engine.submit(window)                # async micro-batched
    >>> future.result()                               # (C,) probabilities
    >>> engine.close()

    The engine is also a context manager; ``close()`` drains the queue
    and stops the batcher and worker threads.
    """

    def __init__(
        self,
        model: RiskModel,
        config: EngineConfig | None = None,
    ) -> None:
        if not getattr(model, "_fitted", False):
            raise ModelError("InferenceEngine requires a fitted model")
        self.model = model
        self.config = config or EngineConfig()
        self._queue: queue.Queue = queue.Queue()
        self._batch_queue: queue.Queue = queue.Queue()
        self._closed = False
        self._batches = 0
        self._batched_items = 0
        self._in_flight = 0
        self._lock = threading.Lock()
        self._batcher = threading.Thread(
            target=self._batch_loop, name="serve-batcher", daemon=True
        )
        self._batcher.start()
        self._worker = threading.Thread(
            target=self._worker_loop, name="serve-worker", daemon=True
        )
        self._worker.start()

    @property
    def tokenization_cache(self) -> LRUCache | None:
        """The model pipeline's per-post memo (``pipeline.post_cache``);
        ``None`` for models without a pipeline, such as XGBoost and
        logreg."""
        return getattr(getattr(self.model, "pipeline", None), "post_cache", None)

    # -- synchronous bulk path ---------------------------------------------

    def predict_many(self, windows: list[PostWindow]) -> np.ndarray:
        """(N, C) probabilities for ``windows``, batched, queue-free."""
        self._ensure_open()
        if not windows:
            return self.model.predict_proba([])
        size = self.config.max_batch_size
        out = []
        with perf.span("serve.predict_many"):
            with no_grad():
                for start in range(0, len(windows), size):
                    chunk = windows[start : start + size]
                    out.append(self.model.predict_proba(chunk))
                    self._record_batch(len(chunk))
        perf.count("serve.requests", len(windows))
        return np.vstack(out)

    def predict_labels(self, windows: list[PostWindow]) -> np.ndarray:
        """Greedy labels via the batched probability path."""
        probs = self.predict_many(windows)
        return probs.argmax(axis=1).astype(np.int64)

    # -- asynchronous micro-batched path -----------------------------------

    def submit(self, window: PostWindow) -> Future:
        """Queue one window; resolves to its (C,) probability vector.

        The request's :class:`RequestTiming` is exposed as
        ``future.trace``. The open check and the enqueue happen under
        the engine lock, so a request cannot land on the queue after
        ``close()`` has drained it.
        """
        future: Future = Future()
        timing = RequestTiming()
        future.trace = timing  # type: ignore[attr-defined]
        with self._lock:
            self._ensure_open()
            self._queue.put((window, future, timing))
        perf.count("serve.requests")
        perf.gauge("serve.queue_depth", self._queue.qsize())
        return future

    def predict_one(self, window: PostWindow, timeout: float | None = None):
        """Blocking single-window scoring through the micro-batcher."""
        return self.submit(window).result(timeout=timeout)

    def _batch_loop(self) -> None:
        cfg = self.config
        while True:
            try:
                item = self._queue.get(timeout=0.1)
            except queue.Empty:
                if self._closed:
                    return
                continue
            if item is _SHUTDOWN:
                return
            batch = [item]
            deadline = time.perf_counter() + cfg.max_wait_s
            while len(batch) < cfg.max_batch_size:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                try:
                    extra = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if extra is _SHUTDOWN:
                    self._dispatch(batch)
                    return
                batch.append(extra)
            self._dispatch(batch)

    def _dispatch(self, batch: list) -> None:
        """Hand an assembled batch to the worker."""
        now = time.perf_counter()
        for _, _, timing in batch:
            timing.dispatched = now
        with self._lock:
            self._in_flight += 1
            in_flight = self._in_flight
        perf.gauge("serve.in_flight_batches", in_flight)
        perf.gauge("serve.queue_depth", self._queue.qsize())
        self._batch_queue.put(batch)

    def _worker_loop(self) -> None:
        while True:
            batch = self._batch_queue.get()
            if batch is _SHUTDOWN:
                return
            self._run_batch(batch)

    def _run_batch(
        self, batch: list[tuple[PostWindow, Future, RequestTiming]]
    ) -> None:
        windows = [window for window, _, _ in batch]
        error = None
        try:
            with perf.span("serve.batch"):
                with no_grad():
                    probs = self.model.predict_proba(windows)
            self._record_batch(len(batch))
        except Exception as exc:  # propagate to every waiter
            error = exc
        try:
            self._finish_requests(batch)
            for i, (_, future, _) in enumerate(batch):
                if future.done():
                    continue  # cancelled by its caller
                if error is None:
                    future.set_result(probs[i])
                else:
                    future.set_exception(error)
        finally:
            with self._lock:
                self._in_flight -= 1
                in_flight = self._in_flight
            perf.gauge("serve.in_flight_batches", in_flight)

    @staticmethod
    def _finish_requests(batch: list) -> None:
        now = time.perf_counter()
        for _, _, timing in batch:
            timing.completed = now
            perf.observe("serve.request.latency_seconds", timing.total_s)
            perf.observe(
                "serve.request.queue_wait_seconds", timing.queue_wait_s
            )

    def _record_batch(self, size: int) -> None:
        with self._lock:
            self._batches += 1
            self._batched_items += size
        perf.count("serve.batches")
        perf.count("serve.batched_items", size)
        cache = self.tokenization_cache
        if cache is not None:
            counts = cache.stats()
            perf.gauge("serve.tokenize_cache.size", counts["size"])
            perf.gauge("serve.tokenize_cache.hits", counts["hits"])
            perf.gauge("serve.tokenize_cache.misses", counts["misses"])

    # -- lifecycle / introspection -----------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("InferenceEngine is closed")

    def stats(self) -> dict:
        """Batching and cache counters for monitoring."""
        cache = self.tokenization_cache
        with self._lock:
            batches = self._batches
            items = self._batched_items
            in_flight = self._in_flight
        return {
            "batches": batches,
            "batched_items": items,
            "mean_batch_size": items / batches if batches else 0.0,
            "queue_depth": self._queue.qsize(),
            "in_flight_batches": in_flight,
            "tokenization_cache": None if cache is None else cache.stats(),
        }

    def close(self) -> None:
        if self._closed:
            return
        with self._lock:
            self._closed = True
        self._queue.put(_SHUTDOWN)
        self._batcher.join(timeout=5.0)
        # The batcher has stopped producing; let the worker drain the
        # batch queue, then stop it.
        self._batch_queue.put(_SHUTDOWN)
        self._worker.join(timeout=5.0)
        # Fail any request that raced the shutdown sentinel.
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                _, future, _ = item
                if not future.done():
                    future.set_exception(RuntimeError("engine closed"))

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
