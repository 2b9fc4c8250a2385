"""Attention mechanisms: standard multi-head and DeBERTa-style
disentangled attention with relative position encodings."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.core.errors import ShapeError
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


def split_heads(x: Tensor, num_heads: int) -> Tensor:
    """(B, T, D) → (B, h, T, D/h)."""
    batch, steps, dim = x.shape
    if dim % num_heads:
        raise ShapeError(f"model dim {dim} not divisible by {num_heads} heads")
    return x.reshape(batch, steps, num_heads, dim // num_heads).transpose(0, 2, 1, 3)


def merge_heads(x: Tensor) -> Tensor:
    """(B, h, T, dh) → (B, T, D)."""
    batch, heads, steps, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(batch, steps, heads * dh)


def attention_mask_bias(mask: np.ndarray | None) -> np.ndarray | None:
    """(B, T) keep-mask → (B, 1, 1, T) boolean *pad* mask for a masked
    :meth:`Tensor.softmax` (``None``, no mask, passes through)."""
    if mask is None:
        return None
    return (np.asarray(mask) == 0)[:, None, None, :]


class MultiHeadAttention(Module):
    """Scaled dot-product attention with ``num_heads`` heads.

    Supports self-attention (`query is key is value`) and cross-attention
    (the temporal-fusion layers of the RoBERTa/BiLSTM baselines attend
    from text representations to temporal features).
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        rng: np.random.Generator,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        if dim % num_heads:
            raise ShapeError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.w_q = Linear(dim, dim, rng)
        self.w_k = Linear(dim, dim, rng)
        self.w_v = Linear(dim, dim, rng)
        self.w_o = Linear(dim, dim, rng)
        self.dropout = Dropout(dropout, rng)
        self._scale = 1.0 / math.sqrt(dim // num_heads)

    def forward(
        self,
        query: Tensor,
        key: Tensor | None = None,
        value: Tensor | None = None,
        mask: np.ndarray | None = None,
    ) -> Tensor:
        key = query if key is None else key
        value = key if value is None else value
        q = split_heads(self.w_q(query), self.num_heads)
        k = split_heads(self.w_k(key), self.num_heads)
        v = split_heads(self.w_v(value), self.num_heads)
        scores = (q @ k.swapaxes(-1, -2)) * self._scale
        weights = self.dropout(scores.softmax(axis=-1, mask=attention_mask_bias(mask)))
        context = weights @ v
        return self.w_o(merge_heads(context))


class TemporalDecayAttention(Module):
    """Multi-head attention whose scores decay with temporal distance.

    Used by the RoBERTa baseline: "the calculation of attention weights
    takes into account the decay effect of temporal distance". A learnable
    per-head rate λ subtracts ``λ · |Δt|`` (log-hours) from the logits.
    """

    def __init__(
        self, dim: int, num_heads: int, rng: np.random.Generator, dropout: float = 0.0
    ) -> None:
        super().__init__()
        self.inner = MultiHeadAttention(dim, num_heads, rng, dropout)
        self.decay = Parameter(np.full(num_heads, 0.1))
        self.num_heads = num_heads

    def forward(
        self,
        x: Tensor,
        timestamps_hours: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> Tensor:
        """``timestamps_hours``: (B, T) event times in hours."""
        inner = self.inner
        q = split_heads(inner.w_q(x), self.num_heads)
        k = split_heads(inner.w_k(x), self.num_heads)
        v = split_heads(inner.w_v(x), self.num_heads)
        scores = (q @ k.swapaxes(-1, -2)) * inner._scale
        delta = np.abs(
            timestamps_hours[:, :, None] - timestamps_hours[:, None, :]
        )  # (B, T, T)
        log_delta = Tensor(np.log1p(delta)[:, None, :, :])  # (B, 1, T, T)
        rates = self.decay.reshape(1, self.num_heads, 1, 1)
        scores = scores - rates * log_delta
        weights = inner.dropout(scores.softmax(axis=-1, mask=attention_mask_bias(mask)))
        return inner.w_o(merge_heads(weights @ v))


def relative_position_index(length: int, max_distance: int) -> np.ndarray:
    """(T, T) matrix of clipped relative-position bucket ids.

    ``index[i, j] = clip(j - i, ±max_distance) + max_distance`` ∈
    [0, 2·max_distance].
    """
    pos = np.arange(length)
    rel = pos[None, :] - pos[:, None]
    return np.clip(rel, -max_distance, max_distance) + max_distance


@lru_cache(maxsize=256)
def _relative_keys(length: int, max_distance: int, transpose: bool) -> np.ndarray:
    """Flat offsets ``i·buckets + idx[i, j]`` into one (T, buckets) score
    block, in C order of the (T, T) gather output — of its transpose,
    ``[j, i]``, when ``transpose``.

    Serving and training repeat the same sequence lengths, so the keys are
    memoised; they are read-only because every call shares them.
    """
    idx = relative_position_index(length, max_distance)
    local = np.arange(length)[:, None] * (2 * max_distance + 1) + idx
    keys = (local.T if transpose else local).ravel()
    keys.setflags(write=False)
    return keys


def relative_scatter(
    grad: np.ndarray, max_distance: int, transpose: bool = False
) -> np.ndarray:
    """Adjoint of :func:`relative_gather`: (…, T, T) → (…, T, buckets),
    ``out[…, i, idx[i, j]] += grad[…, i, j]`` (``grad[…, j, i]`` when
    ``transpose``).

    One ``np.bincount`` over cached keys. Each bucket receives its
    contributions in the same order, from the same zero, as in the
    ``np.add.at`` loop of :func:`relative_scatter_reference`, so the two
    are bitwise equal.
    """
    *lead_shape, length, _ = grad.shape
    block = length * (2 * max_distance + 1)
    lead = int(np.prod(lead_shape, dtype=np.int64))
    local = _relative_keys(length, max_distance, transpose)
    keys = (np.arange(lead)[:, None] * block + local).reshape(-1)
    full = np.bincount(keys, weights=grad.reshape(-1), minlength=lead * block)
    # bincount always sums in float64; hand back the gradient's dtype.
    return full.astype(grad.dtype, copy=False).reshape(*lead_shape, length, -1)


def relative_scatter_reference(
    grad: np.ndarray, max_distance: int, transpose: bool = False
) -> np.ndarray:
    """Reference twin of :func:`relative_scatter`: the generic fancy-index
    scatter, one ``np.add.at`` over ``(…, rows, idx)``."""
    *lead_shape, length, _ = grad.shape
    rows = np.arange(length)[:, None]
    idx = relative_position_index(length, max_distance)
    full = np.zeros((*lead_shape, length, 2 * max_distance + 1), dtype=grad.dtype)
    np.add.at(full, (..., rows, idx), grad.swapaxes(-1, -2) if transpose else grad)
    return full


def relative_gather(
    scores: Tensor, max_distance: int, transpose: bool = False
) -> Tensor:
    """Relative-position gather of disentangled attention, one autograd
    node: (…, T, buckets) → (…, T, T).

    ``out[…, i, j] = scores[…, i, idx[i, j]]`` for ``idx`` the clipped
    bucket matrix of :func:`relative_position_index`; with ``transpose``,
    ``out[…, i, j] = scores[…, j, idx[j, i]]`` (the gather followed by a
    swap of the last two axes). The backward is :func:`relative_scatter`.
    """
    *lead_shape, length, buckets = scores.shape
    local = _relative_keys(length, max_distance, transpose)
    flat = scores.data.reshape(-1, length * buckets)
    out_data = flat.take(local, axis=1).reshape(*lead_shape, length, length)

    def backward(grad: np.ndarray) -> None:
        if scores.requires_grad:
            scores._accumulate(relative_scatter(grad, max_distance, transpose))

    return Tensor._make(out_data, (scores,), backward)


class DisentangledSelfAttention(Module):
    """DeBERTa-style disentangled attention.

    The attention logit decomposes into content-to-content,
    content-to-position and position-to-content terms, with *relative*
    position embeddings shared across the layer:

    ``A[i,j] = Qc_i·Kc_j + Qc_i·Kr_{δ(i,j)} + Kc_j·Qr_{δ(j,i)}``

    scaled by ``1/sqrt(3·d_h)`` as in the paper (He et al., 2021).
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        max_relative_distance: int,
        rng: np.random.Generator,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        if dim % num_heads:
            raise ShapeError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.max_relative_distance = max_relative_distance
        self.head_dim = dim // num_heads
        self.w_q = Linear(dim, dim, rng)
        self.w_k = Linear(dim, dim, rng)
        self.w_v = Linear(dim, dim, rng)
        self.w_o = Linear(dim, dim, rng)
        num_buckets = 2 * max_relative_distance + 1
        self.rel_embed = Parameter(
            rng.normal(0.0, 0.02, size=(num_buckets, dim))
        )
        self.w_qr = Linear(dim, dim, rng, bias=False)
        self.w_kr = Linear(dim, dim, rng, bias=False)
        self.dropout = Dropout(dropout, rng)
        self._scale = 1.0 / math.sqrt(3.0 * self.head_dim)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        qc = split_heads(self.w_q(x), self.num_heads)  # (B,h,T,dh)
        kc = split_heads(self.w_k(x), self.num_heads)
        v = split_heads(self.w_v(x), self.num_heads)

        rel = Tensor.ensure(self.rel_embed)
        kr = self.w_kr(rel)  # (buckets, D)
        qr = self.w_qr(rel)
        buckets = kr.shape[0]
        kr = kr.reshape(buckets, self.num_heads, self.head_dim).transpose(1, 0, 2)
        qr = qr.reshape(buckets, self.num_heads, self.head_dim).transpose(1, 0, 2)

        distance = self.max_relative_distance

        c2c = qc @ kc.swapaxes(-1, -2)  # (B,h,T,T)
        # content→position: Qc_i · Kr_{δ(i,j)}
        c2p_all = qc @ kr.swapaxes(-1, -2)  # (B,h,T,buckets)
        c2p = relative_gather(c2p_all, distance)  # (B,h,T,T)
        # position→content: Kc_j · Qr_{δ(j,i)} with δ(j,i) = clip(i−j)+R,
        # i.e. bucket idx[j, i]: the transposed gather, indexed [b,h,i,j].
        p2c_all = kc @ qr.swapaxes(-1, -2)  # (B,h,T,buckets)
        p2c = relative_gather(p2c_all, distance, transpose=True)

        scores = (c2c + c2p + p2c) * self._scale
        weights = self.dropout(scores.softmax(axis=-1, mask=attention_mask_bias(mask)))
        return self.w_o(merge_heads(weights @ v))
