"""Tests for evaluation metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schema import RiskLevel
from repro.eval.metrics import (
    EvalReport,
    accuracy,
    confusion_matrix,
    macro_f1,
    per_class_f1,
)


class TestConfusion:
    def test_counts(self):
        m = confusion_matrix([0, 0, 1, 2], [0, 1, 1, 2])
        assert m[0, 0] == 1 and m[0, 1] == 1 and m[1, 1] == 1 and m[2, 2] == 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0])

    def test_total_preserved(self):
        y = np.random.default_rng(0).integers(0, 4, 100)
        p = np.random.default_rng(1).integers(0, 4, 100)
        assert confusion_matrix(y, p).sum() == 100


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_empty(self):
        assert accuracy([], []) == 0.0

    def test_partial(self):
        assert accuracy([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75


class TestF1:
    def test_manual_value(self):
        # class 0: tp=2, fp=1, fn=1 -> f1 = 4/(4+1+1) = 2/3
        y_true = [0, 0, 0, 1, 1, 2]
        y_pred = [0, 0, 1, 0, 1, 2]
        f1 = per_class_f1(y_true, y_pred)
        assert f1[0] == pytest.approx(2 / 3)
        assert f1[2] == pytest.approx(1.0)

    def test_absent_class_zero(self):
        f1 = per_class_f1([0, 0], [0, 0])
        assert f1[3] == 0.0

    def test_macro_is_mean(self):
        y_true = [0, 1, 2, 3]
        y_pred = [0, 1, 2, 0]
        assert macro_f1(y_true, y_pred) == pytest.approx(
            per_class_f1(y_true, y_pred).mean()
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=60),
    )
    def test_perfect_prediction_gives_macro_one_on_present_classes(self, ys):
        f1 = per_class_f1(ys, ys)
        present = np.unique(ys)
        assert np.allclose(f1[present], 1.0)


class TestEvalReport:
    def test_compute_and_row(self):
        y_true = [0, 1, 2, 3, 1, 1]
        y_pred = [0, 1, 2, 3, 1, 0]
        report = EvalReport.compute("Toy", y_true, y_pred)
        assert report.accuracy == pytest.approx(5 / 6)
        row = report.as_row()
        assert row["Model"] == "Toy"
        assert row["Acc_pct"] == pytest.approx(100 * 5 / 6)
        assert set(report.support) == set(RiskLevel)
        assert report.support[RiskLevel.IDEATION] == 3

    def test_confusion_embedded(self):
        report = EvalReport.compute("Toy", [0, 1], [1, 1])
        assert report.confusion[0, 1] == 1
