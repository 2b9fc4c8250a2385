"""Recurrent layers: LSTM and GRU cells, unidirectional and bidirectional.

Inputs are ``(batch, time, features)`` tensors plus an optional
``(batch, time)`` float mask (1 = real step, 0 = padding). Masked steps
carry the previous hidden state through unchanged, so right-padded batches
produce identical results to per-sequence processing.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import orthogonal, xavier_uniform
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class LSTMCell(Module):
    """Standard LSTM cell with fused gate projection."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_x = Parameter(xavier_uniform(rng, input_dim, 4 * hidden_dim))
        self.w_h = Parameter(orthogonal(rng, (hidden_dim, 4 * hidden_dim)))
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim : 2 * hidden_dim] = 1.0  # forget-gate bias trick
        self.bias = Parameter(bias)

    def project_inputs(self, x: Tensor) -> Tensor:
        """All-timestep input gate projections: (B, T, D) → (B, T, 4H).

        One batched matmul replaces T per-step ``x_t @ w_x`` products in
        the recurrence loop.
        """
        return x @ self.w_x

    def _gates(self, z: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        H = self.hidden_dim
        i = z[:, 0 * H : 1 * H].sigmoid()
        f = z[:, 1 * H : 2 * H].sigmoid()
        g = z[:, 2 * H : 3 * H].tanh()
        o = z[:, 3 * H : 4 * H].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new

    def forward(
        self, x: Tensor, h: Tensor, c: Tensor
    ) -> tuple[Tensor, Tensor]:
        z = x @ self.w_x + h @ self.w_h + self.bias
        return self._gates(z, c)

    def forward_fused(
        self, x_proj_t: Tensor, h: Tensor, c: Tensor
    ) -> tuple[Tensor, Tensor]:
        """Step with a precomputed input projection (one (B, 4H) slice)."""
        z = x_proj_t + h @ self.w_h + self.bias
        return self._gates(z, c)


class GRUCell(Module):
    """Standard GRU cell (reset/update gates + candidate state)."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_x_rz = Parameter(xavier_uniform(rng, input_dim, 2 * hidden_dim))
        self.w_h_rz = Parameter(orthogonal(rng, (hidden_dim, 2 * hidden_dim)))
        self.b_rz = Parameter(np.zeros(2 * hidden_dim))
        self.w_x_n = Parameter(xavier_uniform(rng, input_dim, hidden_dim))
        self.w_h_n = Parameter(orthogonal(rng, (hidden_dim, hidden_dim)))
        self.b_n = Parameter(np.zeros(hidden_dim))

    def project_inputs(self, x: Tensor) -> Tensor:
        """All-timestep input projections: (B, T, D) → (B, T, 3H) with the
        reset/update columns first and the candidate columns last."""
        return Tensor.concat([x @ self.w_x_rz, x @ self.w_x_n], axis=2)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        H = self.hidden_dim
        rz = (x @ self.w_x_rz + h @ self.w_h_rz + self.b_rz).sigmoid()
        r = rz[:, :H]
        z = rz[:, H:]
        n = (x @ self.w_x_n + (r * h) @ self.w_h_n + self.b_n).tanh()
        return (1.0 - z) * n + z * h

    def forward_fused(self, x_proj_t: Tensor, h: Tensor) -> Tensor:
        """Step with a precomputed input projection (one (B, 3H) slice).

        One autograd node with an analytic backward, bitwise equal to the
        same step built op by op (slices, matmuls, adds, sigmoid, tanh and
        the gate blend): the same array operations, and each input's
        gradient contributions in the order that graph added them.
        """
        H = self.hidden_dim
        w_rz, b_rz, w_n, b_n = self.w_h_rz, self.b_rz, self.w_h_n, self.b_n
        proj, prev = x_proj_t.data, h.data
        rz = 1.0 / (1.0 + np.exp(-(proj[:, : 2 * H] + prev @ w_rz.data + b_rz.data)))
        r, z = rz[:, :H], rz[:, H:]
        rh = r * prev
        n = np.tanh(proj[:, 2 * H :] + rh @ w_n.data + b_n.data)
        keep = 1.0 + (-z)
        out = keep * n + z * prev

        def backward(grad: np.ndarray) -> None:
            g_n = grad * keep
            g_keep = grad * n
            g_cand = g_n * (1.0 - n**2)  # through tanh
            if b_n.requires_grad:
                b_n._accumulate(g_cand.sum(axis=0))
            if x_proj_t.requires_grad:
                x_proj_t._owned_grad()[:, 2 * H :] += g_cand
            if w_n.requires_grad:
                w_n._accumulate(rh.T @ g_cand)
            g_rh = g_cand @ w_n.data.T
            g_rz = np.zeros_like(rz)
            g_rz[:, :H] += g_rh * prev
            if h.requires_grad:
                h._accumulate(g_rh * r)
                h._accumulate(grad * z)
            g_rz[:, H:] += np.add(-g_keep, grad * prev)
            g_gates = g_rz * rz * (1.0 - rz)  # through the sigmoid
            if b_rz.requires_grad:
                b_rz._accumulate(g_gates.sum(axis=0))
            if x_proj_t.requires_grad:
                x_proj_t._owned_grad()[:, : 2 * H] += g_gates
            if h.requires_grad:
                h._accumulate(g_gates @ w_rz.data.T)
            if w_rz.requires_grad:
                w_rz._accumulate(prev.T @ g_gates)

        return Tensor._make(out, (x_proj_t, h, w_rz, b_rz, w_n, b_n), backward)


def _mask_step(mask_col: np.ndarray, new: Tensor, old: Tensor) -> Tensor:
    """Blend new/old state by a (batch,) 0/1 mask column."""
    m = Tensor(mask_col.reshape(-1, 1))
    return m * new + (1.0 - m) * old


class _Recurrent(Module):
    """Shared scan logic for LSTM/GRU over (B, T, D)."""

    cell_kind = "gru"

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        bidirectional: bool = False,
    ) -> None:
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.bidirectional = bidirectional
        self.fwd = self._make_cell(input_dim, hidden_dim, rng)
        if bidirectional:
            self.bwd = self._make_cell(input_dim, hidden_dim, rng)

    def _make_cell(self, input_dim, hidden_dim, rng):
        raise NotImplementedError

    def _scan(
        self,
        cell,
        x: Tensor,
        mask: np.ndarray | None,
        reverse: bool,
        fused: bool = True,
    ):
        batch, steps, _ = x.shape
        h = Tensor(np.zeros((batch, self.hidden_dim)))
        c = Tensor(np.zeros((batch, self.hidden_dim)))
        # Input-side gate projections for all timesteps in one matmul;
        # the recurrence below then only does the (B, H) @ w_h products.
        x_proj = cell.project_inputs(x).unbind(axis=1) if fused else None
        outputs: list[Tensor] = [None] * steps
        order = range(steps - 1, -1, -1) if reverse else range(steps)
        for t in order:
            if fused:
                x_proj_t = x_proj[t]
                if self.cell_kind == "lstm":
                    h_new, c_new = cell.forward_fused(x_proj_t, h, c)
                else:
                    h_new = cell.forward_fused(x_proj_t, h)
                    c_new = c
            else:
                x_t = x[:, t, :]
                if self.cell_kind == "lstm":
                    h_new, c_new = cell(x_t, h, c)
                else:
                    h_new = cell(x_t, h)
                    c_new = c
            if mask is not None:
                h = _mask_step(mask[:, t], h_new, h)
                if self.cell_kind == "lstm":
                    c = _mask_step(mask[:, t], c_new, c)
            else:
                h, c = h_new, c_new
            outputs[t] = h
        return Tensor.stack(outputs, axis=1), h

    def _scan_reference(self, cell, x, mask, reverse):
        """Per-step projection predecessor, kept for equivalence tests."""
        return self._scan(cell, x, mask, reverse, fused=False)

    def forward(
        self, x: Tensor, mask: np.ndarray | None = None
    ) -> tuple[Tensor, Tensor]:
        """Returns (outputs, final_state).

        outputs: (B, T, H) or (B, T, 2H) if bidirectional;
        final_state: (B, H) or (B, 2H).
        """
        out_f, h_f = self._scan(self.fwd, x, mask, reverse=False)
        if not self.bidirectional:
            return out_f, h_f
        out_b, h_b = self._scan(self.bwd, x, mask, reverse=True)
        return (
            Tensor.concat([out_f, out_b], axis=2),
            Tensor.concat([h_f, h_b], axis=1),
        )


class GRU(_Recurrent):
    """(Bi)directional GRU over padded batches."""

    cell_kind = "gru"

    def _make_cell(self, input_dim, hidden_dim, rng):
        return GRUCell(input_dim, hidden_dim, rng)


class LSTM(_Recurrent):
    """(Bi)directional LSTM over padded batches."""

    cell_kind = "lstm"

    def _make_cell(self, input_dim, hidden_dim, rng):
        return LSTMCell(input_dim, hidden_dim, rng)
