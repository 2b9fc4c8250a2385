"""Train-and-evaluate jobs and the one runner that maps them.

Every model number the experiments report is the same operation: fit an
unfitted baseline on user-disjoint train/validation windows, predict the
test windows and score the predictions. :func:`evaluate` is that
operation and :func:`run_jobs` maps it over a list of ``(model, splits)``
jobs, serially or across worker processes. :func:`run_repeated` is the
paper's "all models performed stably across multiple experimental runs"
protocol as such a job list: one job per seed, summarised as mean ± std.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import perf
from repro.core.errors import ExperimentError
from repro.core.workers import spawn_executor
from repro.eval.metrics import EvalReport
from repro.eval.splits import WindowSplits
from repro.models.base import RiskModel, window_labels
from repro.models.bilstm import TimeAwareBiLSTM
from repro.models.deberta import DebertaRiskModel
from repro.models.higru import HiGRU
from repro.models.registry import create_model
from repro.models.roberta import RobertaRiskModel
from repro.models.xgboost_baseline import XGBoostBaseline

#: Worker count of :func:`run_jobs` when ``n_jobs`` is not passed; unset
#: or 1 keeps the serial path.
SEED_JOBS_ENV = "REPRO_SEED_JOBS"

#: Model classes from the longest fit to the shortest (DeBERTa subclasses
#: RoBERTa, so it comes first); the parallel path submits jobs in this
#: order and any other model last, so the longest job never starts last.
_COST_ORDER = (
    DebertaRiskModel, RobertaRiskModel, HiGRU, TimeAwareBiLSTM, XGBoostBaseline,
)


def _default_jobs() -> int:
    raw = os.environ.get(SEED_JOBS_ENV, "").strip()
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ExperimentError(
            f"{SEED_JOBS_ENV} must be an integer, got {raw!r}"
        ) from None
    if jobs < 1:
        raise ExperimentError(f"{SEED_JOBS_ENV} must be >= 1, got {jobs}")
    return jobs


@dataclass(frozen=True)
class MetricSummary:
    """Mean ± std of one metric over repeated runs."""

    name: str
    mean: float
    std: float
    values: tuple[float, ...]

    def __str__(self) -> str:
        return f"{self.name}: {self.mean:.3f} ± {self.std:.3f}"


@dataclass
class MultiRunResult:
    """All reports of a repeated experiment plus aggregates."""

    model: str
    reports: list[EvalReport] = field(default_factory=list)

    def summary(self, metric: str = "accuracy") -> MetricSummary:
        values = tuple(getattr(r, metric) for r in self.reports)
        if not values:
            raise ExperimentError("no runs recorded")
        return MetricSummary(
            name=metric,
            mean=float(np.mean(values)),
            std=float(np.std(values)),
            values=values,
        )

    @property
    def stable(self) -> bool:
        """Std of accuracy below 10 percentage points across runs."""
        return self.summary("accuracy").std < 0.10


def evaluate(model: RiskModel, splits: WindowSplits) -> EvalReport:
    """Fit the unfitted ``model`` on ``splits`` and score its test labels.

    The caller sets the model's seed, keyword arguments and ``name`` (the
    report's row name). All randomness flows from those, so the report is
    the same whether the job runs in-process or in a worker.
    """
    model.fit(splits.train, splits.validation)
    return EvalReport.compute(
        model.name, window_labels(splits.test), model.predict(splits.test)
    )


def _evaluate_in_worker(
    model: RiskModel, splits: WindowSplits
) -> tuple[EvalReport, dict[str, tuple[int, float]], dict[str, int]]:
    """:func:`evaluate` in a pool worker, plus the ``(calls, seconds)``
    of every span and the value of every counter the job recorded in the
    worker's registry."""
    perf.reset()
    report = evaluate(model, splits)
    snapshot = perf.snapshot()
    spans = {
        path: (entry["calls"], entry["total_s"])
        for path, entry in snapshot["spans"].items()
    }
    return report, spans, snapshot["counters"]


def _longest_first(jobs: Sequence[tuple[RiskModel, WindowSplits]]) -> list[int]:
    """Job indices by :data:`_COST_ORDER`, other models last; the sort is
    stable, so jobs of equal rank keep their order."""

    def rank(i: int) -> int:
        ranks = [r for r, cls in enumerate(_COST_ORDER) if isinstance(jobs[i][0], cls)]
        return ranks[0] if ranks else len(_COST_ORDER)

    return sorted(range(len(jobs)), key=rank)


def run_jobs(
    jobs: Sequence[tuple[RiskModel, WindowSplits]],
    n_jobs: int | None = None,
) -> list[EvalReport]:
    """:func:`evaluate` every ``(model, splits)`` job, in job order.

    ``n_jobs``: number of worker processes. None reads ``REPRO_SEED_JOBS``
    (default 1 = serial). Each job ships to a :func:`spawn_executor`
    worker by pickle, longest first (:func:`_longest_first`), and
    carries its own seed, so the parallel path returns reports bitwise
    identical to the serial one. Workers fit copies, so read results
    from the reports, not from the caller's models. A job that raises in
    a worker re-raises here, after the pool has shut down. Each worker
    job's span totals (calls and seconds, not histograms) and counters
    are added under ``eval.run_jobs``, where the serial path records
    them.
    """
    workers = _default_jobs() if n_jobs is None else int(n_jobs)
    if workers < 1:
        raise ExperimentError(f"n_jobs must be >= 1, got {workers}")
    with perf.span("eval.run_jobs"):
        if workers == 1 or len(jobs) <= 1:
            reports = [evaluate(model, splits) for model, splits in jobs]
        else:
            workers = min(workers, len(jobs))
            order = _longest_first(jobs)
            with spawn_executor(workers) as pool:
                done = pool.map(_evaluate_in_worker, *zip(*(jobs[i] for i in order)))
                by_job = dict(zip(order, done))
            results = [by_job[i] for i in range(len(jobs))]
            registry = perf.get_registry()
            for _, spans, counters in results:
                for path, (calls, total_s) in spans.items():
                    registry.add_span(path, calls, total_s)
                for path, n in counters.items():
                    registry.count(path, n)
            reports = [report for report, _, _ in results]
        perf.count("eval.jobs", len(jobs))
    return reports


def run_repeated(
    model_name: str,
    splits: WindowSplits,
    seeds: tuple[int, ...] = (0, 1, 2),
    n_jobs: int | None = None,
    **model_kwargs,
) -> MultiRunResult:
    """Train/evaluate ``model_name`` once per seed on fixed splits.

    The splits stay fixed (the paper's protocol re-runs training, not
    resampling); only initialisation/shuffling seeds vary. ``n_jobs``
    forwards to :func:`run_jobs`; reports come back in seed order.
    """
    if not seeds:
        raise ExperimentError("at least one seed required")
    jobs = [
        (create_model(model_name, seed=seed, **model_kwargs), splits)
        for seed in seeds
    ]
    return MultiRunResult(model=model_name, reports=run_jobs(jobs, n_jobs))
