"""Tests for Module registration and the basic layers."""

import numpy as np
import pytest

from repro.nn import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Sequential,
    Tanh,
    Tensor,
)
from repro.nn.module import Module, ModuleList, Parameter


class TestModule:
    def test_parameter_registration(self, rng):
        layer = Linear(3, 4, rng)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}

    def test_nested_registration(self, rng):
        model = Sequential(Linear(3, 4, rng), Tanh(), Linear(4, 2, rng))
        names = list(dict(model.named_parameters()))
        assert "0.weight" in names and "2.bias" in names

    def test_parameters_deduplicated(self, rng):
        class Shared(Module):
            def __init__(self):
                super().__init__()
                self.a = Linear(2, 2, rng)
                self.b = self.a  # shared module

        assert len(list(Shared().parameters())) == 2

    def test_num_parameters(self, rng):
        layer = Linear(3, 4, rng)
        assert layer.num_parameters() == 3 * 4 + 4

    def test_state_dict_roundtrip(self, rng):
        a = Linear(3, 4, rng)
        b = Linear(3, 4, np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.weight.data, b.weight.data)

    def test_state_dict_mismatch_raises(self, rng):
        a = Linear(3, 4, rng)
        state = a.state_dict()
        del state["bias"]
        with pytest.raises(KeyError):
            Linear(3, 4, rng).load_state_dict(state)

    def test_state_dict_shape_checked(self, rng):
        a = Linear(3, 4, rng)
        state = a.state_dict()
        state["weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            Linear(3, 4, rng).load_state_dict(state)

    def test_train_eval_propagates(self, rng):
        model = Sequential(Dropout(0.5, rng), Linear(2, 2, rng))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self, rng):
        layer = Linear(2, 2, rng)
        layer(Tensor(np.ones((1, 2)))).sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_module_list(self, rng):
        items = ModuleList(Linear(2, 2, rng) for _ in range(3))
        assert len(items) == 3
        assert items[1] is list(items)[1]
        assert len(list(items.named_parameters())) == 6


class TestLinear:
    def test_affine(self, rng):
        layer = Linear(3, 2, rng)
        x = np.ones((4, 3))
        out = layer(Tensor(x))
        expected = x @ layer.weight.data + layer.bias.data
        assert np.allclose(out.data, expected)

    def test_no_bias(self, rng):
        layer = Linear(3, 2, rng, bias=False)
        assert layer.bias is None
        assert layer(Tensor(np.zeros((1, 3)))).data.sum() == 0.0


class TestEmbedding:
    def test_lookup(self, rng):
        emb = Embedding(10, 4, rng)
        out = emb(np.array([[1, 2], [3, 3]]))
        assert out.shape == (2, 2, 4)
        assert np.allclose(out.data[1, 0], out.data[1, 1])

    def test_padding_row_zero(self, rng):
        emb = Embedding(10, 4, rng, padding_idx=0)
        assert np.allclose(emb.weight.data[0], 0.0)

    def test_gradient_flows_to_used_rows_only(self, rng):
        emb = Embedding(10, 4, rng)
        emb(np.array([2, 2, 5])).sum().backward()
        assert np.allclose(emb.weight.grad[2], 2.0)
        assert np.allclose(emb.weight.grad[5], 1.0)
        assert np.allclose(emb.weight.grad[7], 0.0)


class TestLayerNorm:
    def test_normalises_last_axis(self):
        norm = LayerNorm(8)
        x = Tensor(np.random.default_rng(0).normal(3.0, 5.0, size=(4, 8)))
        out = norm(x).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_gamma_beta_trainable(self):
        norm = LayerNorm(4)
        assert isinstance(norm.gamma, Parameter)
        assert isinstance(norm.beta, Parameter)


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        drop = Dropout(0.5, rng)
        drop.eval()
        x = Tensor(np.ones((10, 10)))
        assert np.allclose(drop(x).data, 1.0)

    def test_train_mode_scales(self, rng):
        drop = Dropout(0.5, rng)
        x = Tensor(np.ones((200, 200)))
        out = drop(x).data
        # inverted dropout: surviving entries scaled by 1/keep
        assert set(np.unique(out)).issubset({0.0, 2.0})
        assert abs(out.mean() - 1.0) < 0.05

    def test_one_node_equals_the_masked_product(self):
        # Same draw, same float32 values forward and backward as
        # multiplying by the scaled mask as a constant tensor.
        data = np.random.default_rng(3).normal(size=(4, 6))
        grad = np.random.default_rng(4).normal(size=(4, 6)).astype(np.float32)
        x = Tensor(data, requires_grad=True)
        out = Dropout(0.3, np.random.default_rng(5))(x)
        mask = np.random.default_rng(5).random(data.shape) < 1.0 - 0.3
        y = Tensor(data, requires_grad=True)
        ref = y * Tensor(mask * np.float32(1.0 / (1.0 - 0.3)))
        assert np.array_equal(out.data, ref.data)
        cells = [c.cell_contents for c in out._backward.__closure__]
        arrays = [c for c in cells if isinstance(c, np.ndarray)]
        assert [a.dtype for a in arrays] == [np.bool_]  # only the mask
        out.backward(grad)
        ref.backward(grad)
        assert np.array_equal(x.grad, y.grad)

    def test_zero_p_identity(self, rng):
        drop = Dropout(0.0, rng)
        x = Tensor(np.ones((3, 3)))
        assert np.allclose(drop(x).data, 1.0)

    def test_invalid_p(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.0, rng)
