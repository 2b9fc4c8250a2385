"""Attention mechanisms: standard multi-head and DeBERTa-style
disentangled attention with relative position encodings."""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.core.errors import ShapeError
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module, Parameter
from repro.nn.tensor import MASKED_SCORE, Tensor, _unbroadcast


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
    """(B, T) keep-mask → (B, 1, 1, T) boolean *pad* mask for
    :func:`attention_weights`; ``None`` when no key is padded (or there is
    no mask), so the softmax skips the masking pass."""
    if mask is None:
        return None
    pad = np.asarray(mask) == 0
    return pad[:, None, None, :] if pad.any() else None


#: A relative-position term of :func:`attention_weights`:
#: ``(scores (…, T, buckets), max_distance, transpose)``, whose score at
#: ``[…, i, j]`` is :func:`relative_gather` of ``scores``.
RelativeTerm = tuple[Tensor, int, bool]


def _gathered(term: RelativeTerm) -> np.ndarray:
    """A relative term's (…, T, T) scores in a fresh array.
    ``_relative_keys`` are in range by construction, so ``mode="wrap"``
    never wraps; it skips the bounds check, and ``np.take`` writes ``out``
    without an intermediate buffer."""
    scores, max_distance, transpose = term
    *lead_shape, length, buckets = scores.shape
    out = np.empty((*lead_shape, length, length), scores.data.dtype)
    np.take(
        scores.data.reshape(-1, length * buckets),
        _relative_keys(length, max_distance, transpose),
        axis=1,
        out=out.reshape(-1, length * length),
        mode="wrap",
    )
    return out


def attention_weights(
    terms: Sequence[Tensor | RelativeTerm],
    scale: float,
    pad: np.ndarray | None = None,
    shift: Tensor | None = None,
) -> Tensor:
    """Attention weights ``softmax((Σ terms) · scale − shift)`` over the
    last axis, pad keys scored :data:`MASKED_SCORE`, as one autograd node.

    A term is a score tensor or a :data:`RelativeTerm`, which the node
    gathers itself: DeBERTa's c2p and p2c never exist as tensors. Every
    step runs in place on one buffer the node allocates: the score sum,
    the scale, the shift, the mask fill, the row shift, ``exp`` and the
    normalisation. The sum keeps the order ``((t0 + t1) + t2) + …``; when
    ``t1`` is relative and ``t0`` is not, ``t1`` is gathered into the
    buffer and ``t0`` added to it, and a two-operand addition is
    commutative. A relative term after that is gathered into one
    short-lived array and added. The row maximum is ``np.fmax.reduce``,
    which is cheaper than ``max`` and changes no output: a row holding a
    NaN comes out all NaN either way, and the two can only disagree on
    the sign of a zero, which ``exp`` ignores. A ``pad`` of ``None``
    skips masking, which equals masking nothing. The backward runs the
    array operations of the op-by-op graph in the same order, so values
    and gradients are bitwise equal to
    :func:`attention_weights_reference`.
    """
    first, *rest = terms
    if isinstance(first, Tensor) and rest and not isinstance(rest[0], Tensor):
        first, rest[0] = rest[0], first  # t0 + t1 == t1 + t0
    if isinstance(first, Tensor) and not rest:
        weights = first.data * scale
    else:
        if isinstance(first, Tensor):
            weights = first.data + rest.pop(0).data
        else:
            weights = _gathered(first)
        for term in rest:
            weights += term.data if isinstance(term, Tensor) else _gathered(term)
        weights *= scale
    if shift is not None:
        weights -= shift.data
    if pad is not None:
        np.copyto(weights, MASKED_SCORE, where=pad)
    weights -= np.fmax.reduce(weights, axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)

    sources = tuple(t if isinstance(t, Tensor) else t[0] for t in terms)

    def backward(grad: np.ndarray) -> None:
        g = grad * weights
        inner = g.sum(axis=-1, keepdims=True)
        np.subtract(grad, inner, out=g)
        g *= weights
        if pad is not None:
            np.copyto(g, 0.0, where=pad)
        if shift is not None and shift.requires_grad:
            shift._accumulate(-_unbroadcast(g, shift.shape))
        if any(source.requires_grad for source in sources):
            g_scores = g * scale
            for term, source in zip(terms, sources):
                if not source.requires_grad:
                    continue
                if isinstance(term, Tensor):
                    source._accumulate(_unbroadcast(g_scores, source.shape))
                else:
                    source._accumulate(relative_scatter(g_scores, *term[1:]))

    parents = sources if shift is None else (*sources, shift)
    return Tensor._make(weights, parents, backward)


def attention_weights_reference(
    terms: Sequence[Tensor | RelativeTerm],
    scale: float,
    pad: np.ndarray | None = None,
    shift: Tensor | None = None,
) -> Tensor:
    """Reference twin of :func:`attention_weights`: the op-by-op graph,
    one :func:`relative_gather` node per relative term, one node per sum,
    scale and shift, then :meth:`Tensor.softmax`."""
    terms = [t if isinstance(t, Tensor) else relative_gather(*t) for t in terms]
    scores = terms[0]
    for term in terms[1:]:
        scores = scores + term
    scores = scores * scale
    if shift is not None:
        scores = scores - shift
    return scores.softmax(axis=-1, mask=pad)


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
        weights = attention_weights(
            [q @ k.swapaxes(-1, -2)], self._scale, attention_mask_bias(mask)
        )
        context = self.dropout(weights) @ v
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
        delta = np.abs(
            timestamps_hours[:, :, None] - timestamps_hours[:, None, :]
        )  # (B, T, T)
        log_delta = Tensor(np.log1p(delta)[:, None, :, :])  # (B, 1, T, T)
        rates = self.decay.reshape(1, self.num_heads, 1, 1)
        weights = attention_weights(
            [q @ k.swapaxes(-1, -2)], inner._scale, attention_mask_bias(mask),
            shift=rates * log_delta,
        )
        return inner.w_o(merge_heads(inner.dropout(weights) @ v))


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
    scatter, one ``np.add.at`` over ``(…, rows, idx)``, summed in float64
    and cast back to the gradient's dtype as the fast path does."""
    *lead_shape, length, _ = grad.shape
    rows = np.arange(length)[:, None]
    idx = relative_position_index(length, max_distance)
    full = np.zeros((*lead_shape, length, 2 * max_distance + 1))
    np.add.at(full, (..., rows, idx), grad.swapaxes(-1, -2) if transpose else grad)
    return full.astype(grad.dtype, copy=False)


def relative_gather(
    scores: Tensor, max_distance: int, transpose: bool = False
) -> Tensor:
    """Relative-position gather of disentangled attention, one autograd
    node: (…, T, buckets) → (…, T, T).

    ``out[…, i, j] = scores[…, i, idx[i, j]]`` for ``idx`` the clipped
    bucket matrix of :func:`relative_position_index`; with ``transpose``,
    ``out[…, i, j] = scores[…, j, idx[j, i]]`` (the gather followed by a
    swap of the last two axes). The backward is :func:`relative_scatter`.
    It is the building block of :func:`attention_weights_reference`;
    :func:`attention_weights` gathers its relative terms itself.
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
        # position→content: Kc_j · Qr_{δ(j,i)} with δ(j,i) = clip(i−j)+R,
        # i.e. bucket idx[j, i]: the transposed gather, indexed [b,h,i,j].
        p2c_all = kc @ qr.swapaxes(-1, -2)  # (B,h,T,buckets)

        weights = attention_weights(
            [c2c, (c2p_all, distance, False), (p2c_all, distance, True)],
            self._scale,
            attention_mask_bias(mask),
        )
        return self.w_o(merge_heads(self.dropout(weights) @ v))
