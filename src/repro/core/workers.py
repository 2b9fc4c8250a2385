"""The one way this package starts worker processes: :func:`spawn_executor`,
on which ``run_jobs`` fits models and ``WorkerPool`` scores windows."""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

__all__ = ["BLAS_THREAD_VARS", "spawn_executor"]

#: Thread-count variables a BLAS library reads once, when numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


@contextmanager
def _blas_threads_capped(threads: int) -> Iterator[None]:
    """Cap every :data:`BLAS_THREAD_VARS` entry at ``threads`` (a lower
    value already set stays) until the block ends.

    Spawned workers copy the environment when they start and their BLAS
    reads it when numpy loads, before any job code runs; the parent's
    BLAS has long been loaded and keeps its threads.
    """
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    for name, value in saved.items():
        current = int(value) if value and value.isdigit() else threads
        os.environ[name] = str(max(1, min(current, threads)))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _started(_: int) -> None:
    """No-op task: a worker that ran it has started."""


def spawn_executor(
    workers: int,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
) -> ProcessPoolExecutor:
    """An executor with all ``workers`` processes started.

    Workers are spawned, not forked, so a parent with threads cannot
    deadlock them, and their BLAS runs ``cpus // workers`` threads. The
    executor starts a process per task while none is idle, so one no-op
    task per worker, submitted back to back, starts them all under the
    cap. ``initializer(*initargs)`` runs in each worker first.
    """
    executor = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=initializer,
        initargs=initargs,
    )
    try:
        with _blas_threads_capped(max(1, _usable_cpus() // workers)):
            list(executor.map(_started, range(workers)))
    except BaseException:
        executor.shutdown(cancel_futures=True)
        raise
    return executor
