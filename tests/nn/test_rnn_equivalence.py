"""Fused input-projection recurrence vs the per-step reference scan."""

import numpy as np
import pytest

from repro.nn import GRU, LSTM, Tensor

ATOL = 1e-8

# Equivalence to the per-step and op-by-op references is pinned on the
# float64 twin, where the tolerance and the bitwise checks are meaningful.
pytestmark = pytest.mark.usefixtures("float64_twin")


def _pair(rnn_cls, seed=0, input_dim=5, hidden=4, bidirectional=False):
    """Two identically-initialised models (separate graphs for grad checks)."""
    a = rnn_cls(input_dim, hidden, np.random.default_rng(seed), bidirectional)
    b = rnn_cls(input_dim, hidden, np.random.default_rng(seed), bidirectional)
    return a, b


def _grads(module):
    return [p.grad for p in module.parameters()]


@pytest.mark.parametrize("rnn_cls", [GRU, LSTM])
class TestFusedScanEquivalence:
    def test_outputs_match(self, rnn_cls):
        rnn, _ = _pair(rnn_cls)
        x = np.random.default_rng(1).normal(size=(3, 6, 5))
        out_fast, h_fast = rnn._scan(rnn.fwd, Tensor(x), None, reverse=False)
        out_slow, h_slow = rnn._scan_reference(
            rnn.fwd, Tensor(x), None, reverse=False
        )
        np.testing.assert_allclose(out_fast.data, out_slow.data, atol=ATOL)
        np.testing.assert_allclose(h_fast.data, h_slow.data, atol=ATOL)

    def test_masked_reverse_match(self, rnn_cls):
        rnn, _ = _pair(rnn_cls, seed=3)
        x = np.random.default_rng(2).normal(size=(2, 5, 5))
        mask = np.ones((2, 5))
        mask[0, 3:] = 0.0
        mask[1, 4:] = 0.0
        out_fast, _ = rnn._scan(rnn.fwd, Tensor(x), mask, reverse=True)
        out_slow, _ = rnn._scan_reference(rnn.fwd, Tensor(x), mask, reverse=True)
        np.testing.assert_allclose(out_fast.data, out_slow.data, atol=ATOL)

    def test_gradients_match(self, rnn_cls):
        fast, slow = _pair(rnn_cls, seed=5)
        x = np.random.default_rng(4).normal(size=(2, 6, 5))
        out, _ = fast._scan(fast.fwd, Tensor(x), None, reverse=False)
        (out * out).sum().backward()
        out_ref, _ = slow._scan_reference(slow.fwd, Tensor(x), None, reverse=False)
        (out_ref * out_ref).sum().backward()
        for g_fast, g_slow in zip(_grads(fast), _grads(slow)):
            np.testing.assert_allclose(g_fast, g_slow, atol=ATOL)

    def test_input_gradients_match(self, rnn_cls):
        fast, slow = _pair(rnn_cls, seed=7)
        data = np.random.default_rng(6).normal(size=(2, 4, 5))
        x_fast = Tensor(data.copy(), requires_grad=True)
        x_slow = Tensor(data.copy(), requires_grad=True)
        _, h = fast._scan(fast.fwd, x_fast, None, reverse=False)
        h.sum().backward()
        _, h_ref = slow._scan_reference(slow.fwd, x_slow, None, reverse=False)
        h_ref.sum().backward()
        np.testing.assert_allclose(x_fast.grad, x_slow.grad, atol=ATOL)

    def test_bidirectional_forward_matches(self, rnn_cls):
        fast, _ = _pair(rnn_cls, seed=9, bidirectional=True)
        x = np.random.default_rng(8).normal(size=(2, 5, 5))
        out, final = fast(Tensor(x))
        out_f, _ = fast._scan_reference(fast.fwd, Tensor(x), None, reverse=False)
        out_b, _ = fast._scan_reference(fast.bwd, Tensor(x), None, reverse=True)
        np.testing.assert_allclose(
            out.data, np.concatenate([out_f.data, out_b.data], axis=2), atol=ATOL
        )


def op_by_op_gru_step(cell, x_proj_t, h):
    """The GRU step as separate autograd ops, which the one-node
    ``GRUCell.forward_fused`` replaced."""
    H = cell.hidden_dim
    rz = (x_proj_t[:, : 2 * H] + h @ cell.w_h_rz + cell.b_rz).sigmoid()
    r = rz[:, :H]
    z = rz[:, H:]
    n = (x_proj_t[:, 2 * H :] + (r * h) @ cell.w_h_n + cell.b_n).tanh()
    return (1.0 - z) * n + z * h


class TestFusedGRUStep:
    @pytest.mark.parametrize("masked", [False, True])
    def test_bitwise_equal_to_op_by_op_step(self, masked, monkeypatch):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(3, 6, 5))
        out_grad = rng.normal(size=(3, 6, 8))
        mask = np.ones((3, 6))
        mask[0, 4:] = 0.0
        mask[2, 2:] = 0.0
        results = []
        for step in (None, op_by_op_gru_step):
            if step is not None:
                monkeypatch.setattr(
                    "repro.nn.rnn.GRUCell.forward_fused",
                    lambda cell, x_proj_t, h: step(cell, x_proj_t, h),
                )
            gru = GRU(5, 4, np.random.default_rng(12), bidirectional=True)
            x = Tensor(data.copy(), requires_grad=True)
            out, final = gru(x, mask=mask if masked else None)
            # The final state is also consumed outside the scan.
            ((out * Tensor(out_grad)).sum() + (final * final).sum()).backward()
            results.append([out.data, final.data, x.grad, *_grads(gru)])
        for fused, op_by_op in zip(*results):
            assert np.array_equal(fused, op_by_op)

    def test_numerical_gradients(self):
        rng = np.random.default_rng(13)
        gru = GRU(3, 2, np.random.default_rng(14), bidirectional=True)
        x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        weights = Tensor(rng.normal(size=(2, 4, 4)))
        mask = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0]])

        def loss():
            out, final = gru(x, mask=mask)
            return (out * weights).sum() + (final * final).sum()

        loss().backward()
        cell = gru.fwd
        for tensor in (x, cell.w_h_rz, cell.b_rz, cell.w_h_n, cell.b_n):
            numeric = np.zeros_like(tensor.data)
            for idx in np.ndindex(tensor.shape):
                old = tensor.data[idx]
                tensor.data[idx] = old + 1e-6
                plus = loss().item()
                tensor.data[idx] = old - 1e-6
                minus = loss().item()
                tensor.data[idx] = old
                numeric[idx] = (plus - minus) / 2e-6
            assert np.abs(numeric - tensor.grad).max() < 1e-7
