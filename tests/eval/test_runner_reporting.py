"""Tests for the multi-run runner and report exporters."""

import numpy as np
import pytest

from repro.boosting import GBMParams
from repro.core.errors import ExperimentError
from repro.eval.metrics import EvalReport
from repro.eval.reporting import to_markdown
from repro.eval.runner import MultiRunResult, evaluate, run_repeated
from repro.models import create_model


@pytest.fixture(scope="module")
def reports():
    y_true = [0, 1, 2, 3, 1, 1, 0, 2]
    y_pred = [0, 1, 2, 3, 1, 0, 0, 2]
    return [
        EvalReport.compute("ModelA", y_true, y_pred),
        EvalReport.compute("ModelB", y_true, y_true),
    ]


class TestReporting:
    def test_markdown_shape(self, reports):
        md = to_markdown(reports)
        lines = md.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("| Model")
        assert "ModelA" in md and "ModelB" in md


class TestRunner:
    def test_evaluate_model(self, small_splits):
        model = create_model(
            "xgboost",
            params=GBMParams(n_estimators=6, max_depth=3),
            max_tfidf_features=60,
        )
        report = evaluate(model, small_splits)
        assert report.model == "XGBoost"
        assert 0.0 <= report.accuracy <= 1.0
        assert sum(report.support.values()) == len(small_splits.test)

    def test_run_repeated_aggregates(self, small_splits):
        result = run_repeated(
            "bilstm",
            small_splits,
            seeds=(0, 1),
            max_vocab=200,
        )
        assert len(result.reports) == 2
        summary = result.summary("accuracy")
        assert summary.mean == pytest.approx(
            np.mean(summary.values)
        )
        assert isinstance(result.stable, bool)
        assert "accuracy" in str(summary)

    def test_no_seeds_rejected(self, small_splits):
        with pytest.raises(ExperimentError):
            run_repeated("xgboost", small_splits, seeds=())

    def test_empty_result_summary_rejected(self):
        with pytest.raises(ExperimentError):
            MultiRunResult(model="x").summary()
