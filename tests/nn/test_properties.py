"""Property-based tests of core nn invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import LayerNorm, Tensor
from repro.nn.attention import relative_position_index

floats = st.floats(-5, 5, allow_nan=False)


def arrays(shape):
    return hnp.arrays(np.float64, shape, elements=floats)


class TestSoftmaxProperties:
    @settings(max_examples=40, deadline=None)
    @given(arrays((3, 6)))
    def test_rows_are_distributions(self, data):
        probs = Tensor(data).softmax(axis=-1).data
        assert np.allclose(probs.sum(axis=-1), 1.0)
        assert (probs >= 0).all()

    @pytest.mark.usefixtures("float64_twin")  # float64-tight tolerance
    @settings(max_examples=40, deadline=None)
    @given(arrays((2, 5)), st.floats(-3, 3))
    def test_shift_invariance(self, data, shift):
        a = Tensor(data).softmax(axis=-1).data
        b = Tensor(data + shift).softmax(axis=-1).data
        assert np.allclose(a, b, atol=1e-9)

    @pytest.mark.usefixtures("float64_twin")  # float64-tight tolerance
    @settings(max_examples=40, deadline=None)
    @given(arrays((4, 4)))
    def test_log_softmax_consistent_with_softmax(self, data):
        log_p = Tensor(data).log_softmax(axis=-1).data
        p = Tensor(data).softmax(axis=-1).data
        assert np.allclose(np.exp(log_p), p, atol=1e-9)


class TestLayerNormProperties:
    @pytest.mark.usefixtures("float64_twin")  # float64-tight tolerance
    @settings(max_examples=40, deadline=None)
    @given(arrays((5, 8)))
    def test_output_standardised(self, data):
        # avoid degenerate all-constant rows
        data = data + np.arange(8) * 0.1
        out = LayerNorm(8)(Tensor(data)).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(arrays((3, 8)), st.floats(0.1, 5))
    def test_scale_invariance(self, data, scale):
        data = data + np.arange(8) * 0.5  # ensure spread
        # eps breaks exact invariance once scale**2 * var nears eps, so
        # keep rows clear of the degenerate near-constant regime.
        assume(data.var(axis=-1).min() >= 0.5)
        norm = LayerNorm(8)
        a = norm(Tensor(data)).data
        b = norm(Tensor(data * scale)).data
        assert np.allclose(a, b, atol=1e-2)


class TestAutogradProperties:
    @settings(max_examples=40, deadline=None)
    @given(arrays((3, 4)), arrays((3, 4)))
    def test_sum_rule(self, a, b):
        """d/dx sum(x + y) == ones."""
        x = Tensor(a, requires_grad=True)
        y = Tensor(b, requires_grad=True)
        (x + y).sum().backward()
        assert np.allclose(x.grad, 1.0)
        assert np.allclose(y.grad, 1.0)

    @pytest.mark.usefixtures("float64_twin")  # float64-tight tolerance
    @settings(max_examples=40, deadline=None)
    @given(arrays((2, 3)))
    def test_product_rule_with_self(self, a):
        """d/dx sum(x*x) == 2x."""
        x = Tensor(a, requires_grad=True)
        (x * x).sum().backward()
        assert np.allclose(x.grad, 2 * a, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(arrays((4,)))
    def test_linearity_of_backward(self, a):
        x = Tensor(a, requires_grad=True)
        (x.sum() * 3.0).backward()
        assert np.allclose(x.grad, 3.0)


class TestRelativePositionProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 10))
    def test_bucket_bounds(self, length, max_dist):
        idx = relative_position_index(length, max_dist)
        assert idx.min() >= 0
        assert idx.max() <= 2 * max_dist
        assert (np.diag(idx) == max_dist).all()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 20), st.integers(1, 8))
    def test_antisymmetry_within_clip(self, length, max_dist):
        idx = relative_position_index(length, max_dist)
        centred = idx - max_dist
        clipped = np.clip(
            np.arange(length)[None, :] - np.arange(length)[:, None],
            -max_dist, max_dist,
        )
        assert (centred == clipped).all()
