"""Tests for optimizers, schedules, and losses."""

import numpy as np
import pytest

from repro.core.errors import ShapeError
from repro.nn import (
    Adam,
    IGNORE_INDEX,
    Tensor,
    WarmupLinearDecay,
    clip_grad_norm,
    cross_entropy,
)
from repro.nn.module import Parameter


def quadratic_params():
    return [Parameter(np.array([5.0, -3.0]))]


class TestAdam:
    def test_descends_quadratic(self):
        params = quadratic_params()
        opt = Adam(params, lr=0.2)
        for _ in range(200):
            opt.zero_grad()
            (params[0] * params[0]).sum().backward()
            opt.step()
        assert np.abs(params[0].data).max() < 1e-2

    def test_skips_gradless_params(self):
        p = Parameter(np.ones(2))
        Adam([p], lr=0.1).step()  # no grad -> no movement
        assert np.allclose(p.data, 1.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam(quadratic_params(), lr=0.0)


class TestClip:
    def test_scales_to_max_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_small_grads_untouched(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 0.01)
        clip_grad_norm([p], max_norm=1.0)
        assert np.allclose(p.grad, 0.01)


class TestSchedule:
    def test_warmup_then_decay(self):
        params = quadratic_params()
        opt = Adam(params, lr=1.0)
        sched = WarmupLinearDecay(opt, warmup_steps=10, total_steps=100)
        lrs = [sched.step() for _ in range(100)]
        assert lrs[4] < lrs[9]            # warming up
        assert max(lrs) == pytest.approx(1.0, abs=0.11)
        assert lrs[-1] == pytest.approx(0.0, abs=0.02)

    def test_invalid_total_steps(self):
        with pytest.raises(ValueError):
            WarmupLinearDecay(Adam(quadratic_params(), lr=1.0), 1, 0)


class TestCrossEntropy:
    def test_matches_manual_value(self):
        logits = Tensor(np.log(np.array([[0.7, 0.2, 0.1]])), requires_grad=True)
        loss = cross_entropy(logits, np.array([0]))
        assert loss.item() == pytest.approx(-np.log(0.7), abs=1e-6)

    @pytest.mark.usefixtures("float64_twin")
    def test_ignore_index_excluded(self):
        logits = Tensor(np.zeros((3, 4)), requires_grad=True)
        targets = np.array([1, IGNORE_INDEX, 2])
        loss = cross_entropy(logits, targets)
        assert loss.item() == pytest.approx(np.log(4.0), abs=1e-9)

    def test_all_ignored_rejected(self):
        logits = Tensor(np.zeros((2, 4)), requires_grad=True)
        with pytest.raises(ShapeError):
            cross_entropy(logits, np.array([IGNORE_INDEX, IGNORE_INDEX]))

    def test_class_weights(self):
        logits = Tensor(np.zeros((2, 2)), requires_grad=True)
        weights = np.array([1.0, 3.0])
        loss = cross_entropy(logits, np.array([0, 1]), class_weights=weights)
        # weighted mean of identical per-sample losses = same value
        assert loss.item() == pytest.approx(np.log(2.0))
        loss.backward()
        # class-1 sample carries 3x the gradient mass of class-0 sample
        g = logits.grad
        assert abs(g[1]).sum() > abs(g[0]).sum() * 2

    def test_label_smoothing_increases_loss_on_confident_correct(self):
        logits = Tensor(np.array([[10.0, -10.0]]), requires_grad=True)
        plain = cross_entropy(logits, np.array([0]))
        smooth = cross_entropy(logits, np.array([0]), label_smoothing=0.2)
        assert smooth.item() > plain.item()

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros(4), requires_grad=True), np.array([0]))
        with pytest.raises(ShapeError):
            cross_entropy(
                Tensor(np.zeros((2, 4)), requires_grad=True), np.array([0])
            )

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(np.array([[1.0, 2.0, 0.5]]), requires_grad=True)
        cross_entropy(logits, np.array([1])).backward()
        probs = np.exp(logits.data) / np.exp(logits.data).sum()
        expected = probs.copy()
        expected[0, 1] -= 1.0
        assert np.allclose(logits.grad, expected, atol=1e-9)
