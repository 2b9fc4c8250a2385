"""Every worker process the package starts has its BLAS threads capped.

``spawn_executor`` is the one spawner; ``run_jobs`` and ``WorkerPool``
both start their workers through it. Each worker reports its pid and
environment, and the reports must cover every worker the executor
started.
"""

import json
import os
import time

import pytest

from repro.core import workers
from repro.core.workers import BLAS_THREAD_VARS, spawn_executor
from repro.eval import runner
from repro.eval.runner import run_jobs
from repro.models import create_model
from repro.models.logistic import LogisticBaseline
from repro.serve import PoolConfig, WorkerPool

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

CPUS = 8
WORKERS = 2
CAP = str(CPUS // WORKERS)


def _pid_and_env(_=None):
    """Top-level probe task. The pause keeps a worker busy, so the next
    task goes to another worker."""
    time.sleep(0.2)
    return os.getpid(), {var: os.environ.get(var) for var in BLAS_THREAD_VARS}


class _EnvProbe(LogisticBaseline):
    """A ``run_jobs`` job that reports its worker's pid and environment
    as its report's model name."""

    def _fit(self, train, validation):
        super()._fit(train, validation)
        self.name = json.dumps(_pid_and_env())


@pytest.fixture(params=["unset", "lower-kept"])
def blas_env(request, monkeypatch):
    """The parent's BLAS settings and what every worker must see."""
    monkeypatch.setattr(workers, "_usable_cpus", lambda: CPUS)
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    if request.param == "unset":
        return {var: CAP for var in BLAS_THREAD_VARS}
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "64")
    return {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": CAP,
            "MKL_NUM_THREADS": CAP}


def _check(reports, worker_pids, expected):
    assert {pid for pid, _ in reports} == set(worker_pids)
    assert len(set(worker_pids)) == WORKERS
    assert all(env == expected for _, env in reports)
    # The parent's environment is left as it was.
    assert os.environ.get("MKL_NUM_THREADS") is None


def test_run_jobs_workers_are_capped(small_splits, blas_env, monkeypatch):
    started = []

    def recording(n, *args):
        executor = spawn_executor(n, *args)
        started.extend(executor._processes)
        return executor

    monkeypatch.setattr(runner, "spawn_executor", recording)
    jobs = [(_EnvProbe(), small_splits) for _ in range(2 * WORKERS)]
    reports = [json.loads(r.model) for r in run_jobs(jobs, n_jobs=WORKERS)]
    _check(reports, started, blas_env)


def test_pool_workers_are_capped(small_splits, blas_env):
    model = create_model("logreg")
    model.fit(small_splits.train, small_splits.validation)
    with WorkerPool(model, PoolConfig(num_workers=WORKERS)) as pool:
        executor = pool._executor
        reports = list(executor.map(_pid_and_env, range(2 * WORKERS)))
        _check(reports, executor._processes, blas_env)


def test_spawn_executor_starts_every_worker():
    with spawn_executor(WORKERS) as executor:
        assert len(executor._processes) == WORKERS
