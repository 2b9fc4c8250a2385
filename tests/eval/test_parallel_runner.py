"""The job runner's parallel path must reproduce the serial reports bitwise."""

import multiprocessing
import os
from dataclasses import replace

import pytest

from repro import perf
from repro.boosting import GBMParams
from repro.core.errors import ExperimentError
from repro.core.workers import BLAS_THREAD_VARS, _usable_cpus
from repro.eval.runner import (
    _default_jobs,
    _longest_first,
    run_jobs,
    run_repeated,
)
from repro.models import create_model
from repro.models.logistic import LogisticBaseline
from repro.models.neural_common import TrainerConfig
from repro.models.registry import TABLE3_ORDER


def _report_tuple(report):
    return (
        report.model,
        report.accuracy,
        report.macro_f1,
        tuple(sorted((int(k), v) for k, v in report.class_f1.items())),
        report.confusion.tobytes(),
    )


class _FitFails(LogisticBaseline):
    """Module-level, so it pickles to a worker, where its fit raises."""

    name = "FitFails"

    def _fit(self, train, validation):
        raise RuntimeError("fit failed inside the job")


class _BlasProbe(LogisticBaseline):
    """Names its report after the BLAS thread variables its process saw."""

    def _fit(self, train, validation):
        super()._fit(train, validation)
        self.name = ",".join(os.environ.get(var, "-") for var in BLAS_THREAD_VARS)


def _mixed_jobs(splits):
    """Toy-size logreg, XGBoost and BiLSTM jobs, two on ``replace``d splits."""
    half = replace(splits, train=splits.train[: len(splits.train) // 2])
    xgboost = create_model(
        "xgboost",
        params=GBMParams(n_estimators=6, max_depth=3),
        max_tfidf_features=60,
    )
    xgboost.name = "XGBoost[half]"
    bilstm = create_model(
        "bilstm",
        trainer=TrainerConfig(epochs=1, patience=1),
        embed_dim=16,
        hidden_dim=16,
        max_vocab=200,
        max_tokens=16,
    )
    logreg_half = create_model("logreg")
    logreg_half.name = "LogReg[half]"
    return [
        (create_model("logreg"), splits),
        (xgboost, half),
        (bilstm, splits),
        (logreg_half, half),
    ]


class TestParallelEquivalence:
    def test_parallel_matches_serial_bitwise(self, small_splits):
        seeds = (0, 1, 2)
        serial = run_repeated("logreg", small_splits, seeds=seeds, n_jobs=1)
        parallel = run_repeated("logreg", small_splits, seeds=seeds, n_jobs=2)
        assert len(serial.reports) == len(parallel.reports) == len(seeds)
        for a, b in zip(serial.reports, parallel.reports):
            assert _report_tuple(a) == _report_tuple(b)

    def test_mixed_job_list_matches_serial_bitwise(self, small_splits):
        serial = run_jobs(_mixed_jobs(small_splits), n_jobs=1)
        parallel = run_jobs(_mixed_jobs(small_splits), n_jobs=2)
        assert [r.model for r in parallel] == [
            "LogReg", "XGBoost[half]", "BiLSTM", "LogReg[half]",
        ]
        assert [_report_tuple(r) for r in parallel] == [
            _report_tuple(r) for r in serial
        ]

    def test_seed_order_preserved(self, small_splits):
        result = run_repeated("logreg", small_splits, seeds=(3, 1), n_jobs=2)
        baseline = run_repeated("logreg", small_splits, seeds=(3, 1), n_jobs=1)
        values = result.summary("accuracy").values
        assert values == baseline.summary("accuracy").values

    def test_single_seed_stays_serial(self, small_splits):
        result = run_repeated("logreg", small_splits, seeds=(0,), n_jobs=4)
        assert len(result.reports) == 1


class TestScheduling:
    def test_jobs_start_longest_first(self):
        names = ("logreg", *TABLE3_ORDER, "logreg")
        order = _longest_first([(create_model(name), None) for name in names])
        assert [names[i] for i in order] == [
            "deberta", "roberta", "higru", "bilstm", "xgboost", "logreg", "logreg",
        ]
        assert order[-2:] == [0, 6]  # equal ranks keep job order


class TestWorkerSpans:
    def test_worker_spans_reach_the_parent(self, small_splits):
        jobs = _mixed_jobs(small_splits)
        perf.reset()
        run_jobs(jobs, n_jobs=2)
        spans = perf.snapshot()["spans"]
        for model, _ in jobs:
            entry = spans[f"eval.run_jobs/models.fit.{model.name.lower()}"]
            assert entry["calls"] == 1
            assert entry["total_s"] > 0


    def test_worker_counters_reach_the_parent(self, small_splits):
        perf.reset()
        run_jobs(_mixed_jobs(small_splits), n_jobs=1)
        serial = perf.snapshot()["counters"]
        perf.reset()
        run_jobs(_mixed_jobs(small_splits), n_jobs=2)
        parallel = perf.snapshot()["counters"]
        assert parallel == serial
        assert parallel["eval.run_jobs/models.fit.bilstm/nn.epoch/nn.batches"] > 0


class TestWorkerBlasThreads:
    def test_workers_share_the_cpus(self, small_splits, monkeypatch):
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        reports = run_jobs(
            [(_BlasProbe(), small_splits), (_BlasProbe(), small_splits)],
            n_jobs=2,
        )
        threads = str(max(1, _usable_cpus() // 2))
        expected = ",".join([threads] * len(BLAS_THREAD_VARS))
        assert [r.model for r in reports] == [expected, expected]
        # The parent's environment is left as it was.
        assert not any(var in os.environ for var in BLAS_THREAD_VARS)

    def test_lower_setting_is_kept(self, small_splits, monkeypatch):
        for var in BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "64")
        reports = run_jobs(
            [(_BlasProbe(), small_splits), (_BlasProbe(), small_splits)],
            n_jobs=2,
        )
        threads = str(max(1, _usable_cpus() // 2))
        assert reports[0].model == f"1,{threads},1"
        assert os.environ["OMP_NUM_THREADS"] == "64"


class TestWorkerFailure:
    def test_fit_error_reraises_and_leaves_no_worker(self, small_splits):
        jobs = [
            (create_model("logreg"), small_splits),
            (_FitFails(), small_splits),
        ]
        with pytest.raises(RuntimeError, match="fit failed inside the job"):
            run_jobs(jobs, n_jobs=2)
        assert multiprocessing.active_children() == []


class TestValidation:
    def test_no_seeds_rejected(self, small_splits):
        with pytest.raises(ExperimentError):
            run_repeated("logreg", small_splits, seeds=())

    def test_bad_n_jobs_rejected(self, small_splits):
        with pytest.raises(ExperimentError):
            run_repeated("logreg", small_splits, seeds=(0,), n_jobs=0)

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SEED_JOBS", raising=False)
        assert _default_jobs() == 1
        monkeypatch.setenv("REPRO_SEED_JOBS", "3")
        assert _default_jobs() == 3

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED_JOBS", "lots")
        with pytest.raises(ExperimentError):
            _default_jobs()
        monkeypatch.setenv("REPRO_SEED_JOBS", "0")
        with pytest.raises(ExperimentError):
            _default_jobs()
