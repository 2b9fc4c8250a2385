"""The fused attention-weights node against its op-by-op twin.

``attention_weights`` builds the score sum, scale, shift, mask and
softmax in one buffer, gathering DeBERTa's relative-position terms into
it; ``attention_weights_reference`` is the graph of separate nodes it
replaced, with one ``relative_gather`` node per relative term. Values
and every gradient must be bitwise equal, in float32 and in the float64
twin, including NaN and infinite rows.
"""

import numpy as np
import pytest

from repro.nn import (
    DisentangledSelfAttention,
    MultiHeadAttention,
    TemporalDecayAttention,
    Tensor,
)
from repro.nn import attention
from repro.nn.attention import (
    _relative_keys,
    attention_mask_bias,
    attention_weights,
    attention_weights_reference,
)

SHAPE = (3, 2, 5, 6)  # (B, h, T_query, T_key)


@pytest.fixture(params=["float32", "float64"])
def dtype_mode(request):
    if request.param == "float64":
        request.getfixturevalue("float64_twin")
    return request.param


def _pad(kind: str, rng) -> np.ndarray | None:
    if kind == "none":
        return None
    keep = np.ones((SHAPE[0], SHAPE[-1]))
    if kind == "partial":
        keep[0, -2:] = 0.0
        keep[2, 1] = 0.0
    else:  # one batch row has every key padded
        keep[1, :] = 0.0
        keep[0, 0] = 0.0
    return attention_mask_bias(keep)


def _inputs(rng, n_terms: int, with_shift: bool, special: bool):
    arrays = [rng.normal(size=SHAPE) * 3 for _ in range(n_terms)]
    if special:
        arrays[0][0, 0, 1, 2] = np.nan
        arrays[-1][1, 1, 3, 0] = np.inf
        arrays[0][2, 0, 4, 5] = -np.inf
        arrays[-1][2, 1, 0, :] = -np.inf  # a row of -inf
        arrays[0][0, 1, 2, :] = np.inf
    shift = rng.normal(size=(SHAPE[0], 1, SHAPE[2], SHAPE[3])) if with_shift else None
    return arrays, shift


def _run(fn, arrays, shift, pad, upstream, relative=None):
    """``relative[i]`` = ``(max_distance, transpose)`` makes term ``i`` a
    relative term over ``arrays[i]``."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    relative = relative or [None] * len(arrays)
    terms = [t if r is None else (t, *r) for t, r in zip(leaves, relative)]
    shift_t = None if shift is None else Tensor(shift, requires_grad=True)
    with np.errstate(invalid="ignore"):  # inf − inf in the special rows
        out = fn(terms, 0.37, pad, shift_t)
        out.backward(upstream.astype(out.data.dtype))
    grads = [t.grad for t in leaves]
    if shift_t is not None:
        grads.append(shift_t.grad)
    return out.data, grads


def _assert_same(fused, fused_grads, ref, ref_grads, dtype_mode):
    assert fused.dtype == np.dtype(dtype_mode)
    assert np.array_equal(fused, ref, equal_nan=True)
    assert len(fused_grads) == len(ref_grads)
    for got, want in zip(fused_grads, ref_grads):
        assert got is not None
        assert got.dtype == want.dtype
        assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("n_terms", [1, 3])
@pytest.mark.parametrize("with_shift", [False, True])
@pytest.mark.parametrize("mask", ["none", "partial", "full"])
@pytest.mark.parametrize("special", [False, True])
def test_bitwise_equal_to_reference(dtype_mode, n_terms, with_shift, mask, special):
    rng = np.random.default_rng(11)
    arrays, shift = _inputs(rng, n_terms, with_shift, special)
    pad = _pad(mask, rng)
    upstream = rng.normal(size=SHAPE)
    # The modules used to pass an all-False pad for an unpadded batch;
    # the fused node's None must equal it.
    reference_pad = np.zeros((SHAPE[0], 1, 1, SHAPE[-1]), bool) if pad is None else pad
    fused, fused_grads = _run(attention_weights, arrays, shift, pad, upstream)
    ref, ref_grads = _run(
        attention_weights_reference, arrays, shift, reference_pad, upstream
    )
    _assert_same(fused, fused_grads, ref, ref_grads, dtype_mode)
    if special:
        assert np.isnan(fused[0, 0, 1]).all()  # a NaN poisons its row
    if mask == "full":
        assert np.allclose(fused[1], 1.0 / SHAPE[-1])


#: Term layouts, ``"d"`` dense and ``"r"``/``"rT"`` relative (transposed):
#: DeBERTa's ``[c2c, c2p, p2c]``, a relative term first, one alone.
LAYOUTS = {
    "deberta": ["d", "r", "rT"],
    "relative_first": ["rT", "d", "r"],
    "relative_only": ["r"],
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize(
    "length, distance",
    [(1, 2), (3, 4), (4, 4), (12, 2)],  # T = 1; T ≤ d; T > 2·d + 1
)
@pytest.mark.parametrize("mask", ["none", "partial", "full"])
@pytest.mark.parametrize("special", [False, True])
@pytest.mark.parametrize("with_shift", [False, True])
def test_relative_terms_bitwise_equal_to_reference(
    dtype_mode, layout, length, distance, mask, special, with_shift
):
    rng = np.random.default_rng(length * 10 + distance)
    batch, heads, buckets = 3, 2, 2 * distance + 1
    kinds = LAYOUTS[layout]
    arrays = [
        rng.normal(size=(batch, heads, length, length if k == "d" else buckets)) * 3
        for k in kinds
    ]
    if special:
        arrays[0][0, 0, 0, 0] = np.nan
        arrays[-1][1, 1, -1, -1] = np.inf
        arrays[0][2, 0, -1, :] = -np.inf  # a row of -inf (a column for "rT")
        arrays[-1][0, 1, 0, :] = np.inf
    relative = [None if k == "d" else (distance, k == "rT") for k in kinds]
    shift = rng.normal(size=(batch, 1, length, length)) if with_shift else None
    keep = np.ones((batch, length))
    if mask == "partial":
        keep[0, -1] = 0.0
    elif mask == "full":
        keep[1, :] = 0.0
    pad = attention_mask_bias(keep)
    reference_pad = np.zeros((batch, 1, 1, length), bool) if pad is None else pad
    upstream = rng.normal(size=(batch, heads, length, length))
    fused, fused_grads = _run(
        attention_weights, arrays, shift, pad, upstream, relative
    )
    ref, ref_grads = _run(
        attention_weights_reference, arrays, shift, reference_pad, upstream, relative
    )
    _assert_same(fused, fused_grads, ref, ref_grads, dtype_mode)
    for grad, array in zip(fused_grads, arrays):
        assert grad.shape == array.shape


@pytest.mark.parametrize("transpose", [False, True])
def test_relative_keys_stay_in_range(transpose):
    """``attention_weights`` gathers with ``mode="wrap"``: the keys must
    never need wrapping, and each output row reads only its own query's
    block of ``buckets`` scores (its key's block when transposed)."""
    for length in (1, 2, 3, 5, 8, 17, 33, 64, 96, 130):
        for distance in (1, 2, 3, 4, 8, 16, 31, 64, 100):
            buckets = 2 * distance + 1
            keys = _relative_keys(length, distance, transpose)
            assert keys.shape == (length * length,)
            assert keys.min() >= 0
            assert keys.max() < length * buckets
            assert not keys.flags.writeable
            blocks = keys.reshape(length, length) // buckets
            own = np.arange(length)[None, :] if transpose else np.arange(length)[:, None]
            assert (blocks == own).all()


def test_unpadded_mask_elides_to_none():
    assert attention_mask_bias(None) is None
    assert attention_mask_bias(np.ones((2, 4))) is None
    pad = attention_mask_bias(np.array([[1, 1, 0], [1, 1, 1]]))
    assert pad.shape == (2, 1, 1, 3)
    assert pad[0, 0, 0].tolist() == [False, False, True]


def _module_case(kind: str, rng):
    x = rng.normal(size=(3, 5, 8))
    mask = np.ones((3, 5))
    mask[0, -2:] = 0.0
    if kind == "mha":
        module = MultiHeadAttention(8, 2, np.random.default_rng(5), dropout=0.2)
        return module, lambda t: module(t, mask=mask)
    if kind == "decay":
        module = TemporalDecayAttention(8, 2, np.random.default_rng(5), dropout=0.2)
        hours = np.cumsum(rng.random((3, 5)) * 10, axis=1)
        return module, lambda t: module(t, hours, mask=mask)
    # d = 2 clips |i − j| = 3, 4; d = 1 makes T = 5 > 2·d + 1.
    distance = 2 if kind == "deberta" else 1
    module = DisentangledSelfAttention(
        8, 2, distance, np.random.default_rng(5), dropout=0.2
    )
    return module, lambda t: module(t, mask=mask)


def _module_grads(kind: str):
    rng = np.random.default_rng(3)
    module, forward = _module_case(kind, rng)
    x = Tensor(rng.normal(size=(3, 5, 8)), requires_grad=True)
    out = forward(x)
    out.backward(rng.normal(size=out.shape))
    return out.data, [x.grad] + [p.grad for p in module.parameters()]


@pytest.mark.parametrize("kind", ["mha", "decay", "deberta", "deberta_short_range"])
def test_modules_match_the_op_by_op_graph(dtype_mode, monkeypatch, kind):
    """The whole layer, dropout included: same outputs, same RNG stream,
    same accumulation order into every parameter's gradient. For DeBERTa
    the twin builds c2p and p2c with two ``relative_gather`` nodes; a sum
    in any order other than ``((c2c + c2p) + p2c) · scale`` fails here."""
    fused_out, fused_grads = _module_grads(kind)
    monkeypatch.setattr(attention, "attention_weights", attention_weights_reference)
    ref_out, ref_grads = _module_grads(kind)
    assert np.array_equal(fused_out, ref_out)
    for got, want in zip(fused_grads, ref_grads):
        assert np.array_equal(got, want)
