"""Tests for attention mechanisms and transformer encoders."""

import numpy as np
import pytest

from repro.core.errors import ShapeError
from repro.nn import (
    DisentangledSelfAttention,
    DisentangledTransformerEncoder,
    MultiHeadAttention,
    TemporalDecayAttention,
    Tensor,
    TransformerEncoder,
    mean_pool,
    relative_position_index,
)
from repro.nn.attention import merge_heads, split_heads


class TestHeadSplitting:
    def test_roundtrip(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 8)))
        assert np.allclose(merge_heads(split_heads(x, 4)).data, x.data)

    def test_split_shape(self):
        x = Tensor(np.zeros((2, 5, 8)))
        assert split_heads(x, 2).shape == (2, 2, 5, 4)

    def test_indivisible_rejected(self):
        with pytest.raises(ShapeError):
            split_heads(Tensor(np.zeros((1, 2, 7))), 2)


class TestMultiHeadAttention:
    def test_output_shape(self, rng):
        mha = MultiHeadAttention(8, 2, rng, dropout=0.0)
        x = Tensor(np.random.default_rng(1).normal(size=(3, 6, 8)))
        assert mha(x).shape == (3, 6, 8)

    def test_mask_blocks_padding(self, rng):
        mha = MultiHeadAttention(8, 2, rng, dropout=0.0)
        base = np.random.default_rng(2).normal(size=(1, 4, 8))
        x1 = base.copy()
        x2 = base.copy()
        x2[0, 3] = 99.0  # padded position content should not matter
        mask = np.array([[1, 1, 1, 0]], dtype=float)
        out1 = mha(Tensor(x1), mask=mask).data[:, :3]
        out2 = mha(Tensor(x2), mask=mask).data[:, :3]
        assert np.allclose(out1, out2)

    def test_cross_attention_shapes(self, rng):
        mha = MultiHeadAttention(8, 2, rng, dropout=0.0)
        q = Tensor(np.zeros((2, 3, 8)))
        kv = Tensor(np.zeros((2, 7, 8)))
        assert mha(q, kv).shape == (2, 3, 8)

    def test_gradients_reach_all_projections(self, rng):
        mha = MultiHeadAttention(8, 2, rng, dropout=0.0)
        x = Tensor(np.random.default_rng(3).normal(size=(2, 4, 8)))
        out = mha(x)
        (out * out).mean().backward()
        for name, param in mha.named_parameters():
            assert param.grad is not None, name


class TestTemporalDecayAttention:
    def test_decay_suppresses_distant_past(self, rng):
        attn = TemporalDecayAttention(8, 2, rng, dropout=0.0)
        attn.decay.data[:] = 5.0  # strong decay
        x = np.random.default_rng(4).normal(size=(1, 3, 8))
        near = np.array([[0.0, 1.0, 2.0]])
        far = np.array([[0.0, 1.0, 5000.0]])
        out_near = attn(Tensor(x), near).data
        out_far = attn(Tensor(x), far).data
        # with different time geometry, outputs must differ
        assert not np.allclose(out_near, out_far)

    def test_learnable_decay_parameter(self, rng):
        attn = TemporalDecayAttention(8, 2, rng, dropout=0.0)
        x = Tensor(np.random.default_rng(5).normal(size=(1, 4, 8)))
        hours = np.arange(4, dtype=float)[None, :]
        out = attn(x, hours)
        (out * out).mean().backward()
        assert attn.decay.grad is not None


class TestRelativePositions:
    def test_index_symmetric_structure(self):
        idx = relative_position_index(5, 2)
        assert idx.shape == (5, 5)
        assert idx[0, 0] == 2       # distance 0 -> centre bucket
        assert idx[0, 4] == 4       # clipped at +2
        assert idx[4, 0] == 0       # clipped at -2

    def test_clipping(self):
        idx = relative_position_index(10, 3)
        assert idx.max() == 6
        assert idx.min() == 0


class TestDisentangledAttention:
    def test_output_shape(self, rng):
        attn = DisentangledSelfAttention(8, 2, 4, rng, dropout=0.0)
        x = Tensor(np.random.default_rng(6).normal(size=(2, 5, 8)))
        assert attn(x).shape == (2, 5, 8)

    def test_position_sensitivity(self, rng):
        """Same bag of inputs in different order → different outputs
        (disentangled attention sees relative positions)."""
        attn = DisentangledSelfAttention(8, 2, 4, rng, dropout=0.0)
        base = np.random.default_rng(7).normal(size=(1, 4, 8))
        reversed_ = base[:, ::-1, :].copy()
        out_a = attn(Tensor(base)).data.sum(axis=1)
        out_b = attn(Tensor(reversed_)).data.sum(axis=1)
        assert not np.allclose(out_a, out_b)

    def test_rel_embedding_gradient(self, rng):
        attn = DisentangledSelfAttention(8, 2, 4, rng, dropout=0.0)
        x = Tensor(np.random.default_rng(8).normal(size=(1, 5, 8)))
        out = attn(x)
        (out * out).mean().backward()
        assert attn.rel_embed.grad is not None
        assert np.abs(attn.rel_embed.grad).sum() > 0


class TestEncoders:
    def test_roberta_style_shapes(self, rng):
        enc = TransformerEncoder(50, 16, 2, 4, 32, rng, dropout=0.0)
        ids = np.random.default_rng(9).integers(5, 50, size=(3, 10))
        assert enc(ids).shape == (3, 10, 16)

    def test_deberta_style_shapes(self, rng):
        enc = DisentangledTransformerEncoder(50, 16, 2, 4, 32, rng, dropout=0.0)
        ids = np.random.default_rng(10).integers(5, 50, size=(3, 10))
        assert enc(ids).shape == (3, 10, 16)

    def test_default_mask_from_pad(self, rng):
        enc = TransformerEncoder(50, 16, 1, 4, 32, rng, dropout=0.0, pad_id=0)
        ids = np.array([[5, 6, 0, 0]])
        ids2 = np.array([[5, 6, 0, 0]])
        out = enc(ids).data
        # changing a pad token id is impossible (pad=0) but changing
        # nothing must be deterministic in eval mode
        enc.eval()
        assert np.allclose(enc(ids).data, enc(ids2).data)

    def test_absolute_positions_make_encoder_order_aware(self, rng):
        enc = TransformerEncoder(50, 16, 1, 4, 32, rng, dropout=0.0)
        enc.eval()
        a = np.array([[7, 8, 9]])
        b = np.array([[9, 8, 7]])
        assert not np.allclose(
            enc(a).data.mean(axis=1), enc(b).data.mean(axis=1)
        )

    def test_mean_pool_ignores_padding(self):
        states = Tensor(np.arange(12, dtype=float).reshape(1, 3, 4))
        mask = np.array([[1.0, 1.0, 0.0]])
        pooled = mean_pool(states, mask).data
        assert np.allclose(pooled, states.data[:, :2].mean(axis=1))

    def test_mean_pool_all_padding_safe(self):
        states = Tensor(np.ones((1, 3, 4)))
        mask = np.zeros((1, 3))
        assert np.isfinite(mean_pool(states, mask).data).all()
