"""Tests for the gradient-boosting ensemble."""

import numpy as np
import pytest

from repro.boosting import (
    GBMParams,
    GradientBoostingClassifier,
    SoftmaxObjective,
    softmax,
)
from repro.core.errors import NotFittedError


@pytest.fixture(scope="module")
def toy_data():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(500, 10))
    y = (x[:, 0] > 0).astype(int) + (x[:, 1] > 0.5).astype(int)
    return x, y


class TestObjectives:
    def test_softmax_rows(self):
        probs = softmax(np.array([[0.0, 0.0], [5.0, -5.0]]))
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert probs[1, 0] > 0.99

    def test_softmax_grad_hess_shapes(self):
        obj = SoftmaxObjective(3)
        scores = np.zeros((5, 3))
        targets = np.array([0, 1, 2, 0, 1])
        grad, hess = obj.grad_hess(scores, targets)
        assert grad.shape == hess.shape == (5, 3)
        assert (hess > 0).all()

    def test_softmax_grad_is_p_minus_y(self):
        obj = SoftmaxObjective(2)
        scores = np.zeros((1, 2))
        grad, _ = obj.grad_hess(scores, np.array([1]))
        assert np.allclose(grad, [[0.5, -0.5]])

    def test_softmax_loss_decreases_with_confidence(self):
        obj = SoftmaxObjective(2)
        unsure = obj.loss(np.zeros((1, 2)), np.array([0]))
        confident = obj.loss(np.array([[5.0, -5.0]]), np.array([0]))
        assert confident < unsure

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            SoftmaxObjective(1)


class TestClassifier:
    def test_learns_separable_task(self, toy_data):
        x, y = toy_data
        model = GradientBoostingClassifier(
            GBMParams(n_estimators=25, max_depth=3)
        ).fit(x, y)
        assert (model.predict(x) == y).mean() > 0.9

    def test_predict_proba_valid(self, toy_data):
        x, y = toy_data
        model = GradientBoostingClassifier(
            GBMParams(n_estimators=10)
        ).fit(x, y)
        probs = model.predict_proba(x)
        assert probs.shape == (len(x), 3)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_early_stopping(self, toy_data):
        x, y = toy_data
        model = GradientBoostingClassifier(
            GBMParams(n_estimators=200, early_stopping_rounds=3,
                      learning_rate=0.5)
        ).fit(x[:300], y[:300], eval_set=(x[300:], y[300:]))
        assert model.best_iteration_ < 200
        assert len(model.eval_history_) < 200

    def test_feature_importances_identify_signal(self, toy_data):
        x, y = toy_data
        model = GradientBoostingClassifier(
            GBMParams(n_estimators=15)
        ).fit(x, y)
        top2 = set(np.argsort(model.feature_importances_)[-2:])
        assert top2 == {0, 1}

    def test_importances_normalised(self, toy_data):
        x, y = toy_data
        model = GradientBoostingClassifier(GBMParams(n_estimators=5)).fit(x, y)
        assert model.feature_importances_.sum() == pytest.approx(1.0)

    def test_not_fitted_errors(self):
        model = GradientBoostingClassifier()
        with pytest.raises(NotFittedError):
            model.predict(np.zeros((1, 2)))
        with pytest.raises(NotFittedError):
            _ = model.feature_importances_

    def test_input_validation(self):
        model = GradientBoostingClassifier()
        with pytest.raises(ValueError):
            model.fit(np.zeros(5), np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            model.fit(np.zeros((5, 2)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            GradientBoostingClassifier(GBMParams(), n_estimators=5)

    def test_sample_weight_shifts_decision(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(300, 2))
        y = (x[:, 0] > 0.8).astype(int)  # imbalanced: ~20% positives
        weights = np.where(y == 1, 10.0, 1.0)
        plain = GradientBoostingClassifier(GBMParams(n_estimators=10)).fit(x, y)
        weighted = GradientBoostingClassifier(GBMParams(n_estimators=10)).fit(
            x, y, sample_weight=weights
        )
        recall_plain = (plain.predict(x)[y == 1] == 1).mean()
        recall_weighted = (weighted.predict(x)[y == 1] == 1).mean()
        assert recall_weighted >= recall_plain

    def test_subsampling_still_learns(self, toy_data):
        x, y = toy_data
        model = GradientBoostingClassifier(
            GBMParams(n_estimators=30, subsample=0.5, colsample=0.5)
        ).fit(x, y)
        assert (model.predict(x) == y).mean() > 0.8

    def test_deterministic_given_seed(self, toy_data):
        x, y = toy_data
        a = GradientBoostingClassifier(GBMParams(n_estimators=5, seed=1)).fit(x, y)
        b = GradientBoostingClassifier(GBMParams(n_estimators=5, seed=1)).fit(x, y)
        assert np.allclose(a.predict_proba(x), b.predict_proba(x))
