"""Gradient checks and semantics tests for the autograd Tensor."""

import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.errors import GradientError, ShapeError
from repro.nn.attention import relative_gather, relative_position_index
from repro.nn.optim import clip_grad_norm
from repro.nn.tensor import MASKED_SCORE, Tensor, layer_norm, linear


def numerical_grad(fn, x, eps=1e-6):
    """Central-difference gradient of scalar-valued fn wrt array x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + eps
        f_plus = fn()
        x[idx] = old - eps
        f_minus = fn()
        x[idx] = old
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def check_grad(build, data, tol=1e-7):
    """build(tensor) must return a scalar Tensor."""
    x = Tensor(data.copy(), requires_grad=True)
    out = build(x)
    out.backward()
    num = numerical_grad(lambda: float(build(Tensor(x.data)).data), x.data)
    assert np.abs(num - x.grad).max() < tol, (
        f"analytic={x.grad}, numeric={num}"
    )


RNG = np.random.default_rng(0)


# Every test here is a numerical-gradient check.
@pytest.mark.usefixtures("float64_twin")
class TestElementwiseGrads:
    def test_add_mul(self):
        data = RNG.normal(size=(3, 4))
        check_grad(lambda x: ((x + 2.0) * (x * 0.5) + x).sum(), data)

    def test_sub_div(self):
        data = RNG.normal(size=(3, 4)) + 5.0
        check_grad(lambda x: ((x - 1.0) / (x + 10.0)).sum(), data)

    def test_pow(self):
        data = np.abs(RNG.normal(size=(5,))) + 0.5
        check_grad(lambda x: (x**3).sum(), data)

    def test_exp_log_sqrt(self):
        data = np.abs(RNG.normal(size=(4,))) + 0.5
        check_grad(lambda x: (x.exp().log() + x.sqrt()).sum(), data)

    def test_tanh_sigmoid_relu(self):
        data = RNG.normal(size=(6,))
        check_grad(lambda x: (x.tanh() + x.sigmoid()).sum(), data)
        # relu grad away from the kink
        data = data + np.sign(data) * 0.1
        check_grad(lambda x: x.relu().sum(), data)

    def test_gelu(self):
        data = RNG.normal(size=(6,))
        check_grad(lambda x: x.gelu().sum(), data, tol=1e-6)

    def test_neg(self):
        check_grad(lambda x: (-x).sum(), RNG.normal(size=(3,)))


class TestBroadcastingGrads:
    @pytest.mark.usefixtures("float64_twin")
    def test_row_broadcast(self):
        a = RNG.normal(size=(4, 3))
        b = RNG.normal(size=(3,))
        x = Tensor(a, requires_grad=True)
        y = Tensor(b, requires_grad=True)
        (x * y).sum().backward()
        assert x.grad.shape == a.shape
        assert y.grad.shape == b.shape
        assert np.allclose(y.grad, a.sum(axis=0))

    def test_scalar_broadcast(self):
        x = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
        (x + 3.0).sum().backward()
        assert np.allclose(x.grad, 1.0)

    @pytest.mark.usefixtures("float64_twin")
    def test_keepdim_broadcast(self):
        a = RNG.normal(size=(4, 3))
        check_grad(lambda x: (x - x.mean(axis=1, keepdims=True)).sum(), a)


class TestMatmulGrads:
    def test_2d(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))
        x = Tensor(a, requires_grad=True)
        y = Tensor(b, requires_grad=True)
        (x @ y).sum().backward()
        assert np.allclose(x.grad, np.ones((3, 2)) @ b.T)
        assert np.allclose(y.grad, a.T @ np.ones((3, 2)))

    @pytest.mark.usefixtures("float64_twin")
    def test_batched(self):
        a = RNG.normal(size=(2, 3, 4))
        check_grad(
            lambda x: (x @ Tensor(np.ones((2, 4, 5)))).sum(), a, tol=1e-6
        )

    def test_batched_rhs_grad(self):
        b = RNG.normal(size=(2, 4, 5))
        a = RNG.normal(size=(2, 3, 4))
        y = Tensor(b, requires_grad=True)
        (Tensor(a) @ y).sum().backward()
        expected = np.swapaxes(a, -1, -2) @ np.ones((2, 3, 5))
        assert np.allclose(y.grad, expected)

    def test_broadcast_lhs(self):
        a = RNG.normal(size=(3, 4))        # broadcast against batch
        b = RNG.normal(size=(2, 4, 5))
        x = Tensor(a, requires_grad=True)
        (x @ Tensor(b)).sum().backward()
        assert x.grad.shape == a.shape

    @pytest.mark.usefixtures("float64_twin")
    def test_batched_lhs_2d_rhs_grad(self):
        # (B, T, D) @ (D, K) — the tensordot fast path for the RHS grad
        a = RNG.normal(size=(2, 3, 4))
        b = RNG.normal(size=(4, 5))
        y = Tensor(b, requires_grad=True)
        g = RNG.normal(size=(2, 3, 5))
        (Tensor(a) @ y).backward(g)
        expected = np.tensordot(a, g, axes=((0, 1), (0, 1)))
        assert np.allclose(y.grad, expected)
        check_grad(lambda w: (Tensor(a) @ w).sum(), b, tol=1e-6)


class TestReductionGrads:
    @pytest.mark.usefixtures("float64_twin")
    def test_sum_axis(self):
        check_grad(lambda x: x.sum(axis=0).sum(), RNG.normal(size=(3, 4)))

    def test_mean(self):
        data = RNG.normal(size=(4, 4))
        x = Tensor(data, requires_grad=True)
        x.mean().backward()
        assert np.allclose(x.grad, 1.0 / 16)

    def test_max(self):
        data = np.array([[1.0, 5.0, 2.0], [7.0, 3.0, 0.0]])
        x = Tensor(data, requires_grad=True)
        x.max(axis=1).sum().backward()
        expected = np.array([[0, 1, 0], [1, 0, 0]], dtype=float)
        assert np.allclose(x.grad, expected)

    def test_max_tie_splitting(self):
        data = np.array([[2.0, 2.0]])
        x = Tensor(data, requires_grad=True)
        x.max(axis=1).sum().backward()
        assert np.allclose(x.grad, [[0.5, 0.5]])


class TestShapeOps:
    @pytest.mark.usefixtures("float64_twin")
    def test_reshape_grad(self):
        check_grad(lambda x: (x.reshape(6) * 2).sum(), RNG.normal(size=(2, 3)))

    @pytest.mark.usefixtures("float64_twin")
    def test_transpose_grad(self):
        a = RNG.normal(size=(2, 3, 4))
        check_grad(lambda x: (x.transpose(2, 0, 1) ** 2).sum(), a)

    def test_swapaxes(self):
        a = RNG.normal(size=(2, 3))
        x = Tensor(a, requires_grad=True)
        assert x.swapaxes(0, 1).shape == (3, 2)

    def test_getitem_slice_grad(self):
        a = RNG.normal(size=(4, 5))
        x = Tensor(a, requires_grad=True)
        x[1:3, ::2].sum().backward()
        assert x.grad.sum() == pytest.approx(2 * 3)

    def test_getitem_fancy_grad(self):
        a = RNG.normal(size=(4, 5))
        x = Tensor(a, requires_grad=True)
        x[np.array([0, 0, 2]), np.array([1, 1, 3])].sum().backward()
        assert x.grad[0, 1] == pytest.approx(2.0)  # repeated index accumulates
        assert x.grad[2, 3] == pytest.approx(1.0)

    def test_concat_grad(self):
        a = RNG.normal(size=(2, 3))
        b = RNG.normal(size=(2, 2))
        x = Tensor(a, requires_grad=True)
        y = Tensor(b, requires_grad=True)
        Tensor.concat([x, y], axis=1).sum().backward()
        assert np.allclose(x.grad, 1.0)
        assert np.allclose(y.grad, 1.0)

    def test_stack_grad(self):
        tensors = [Tensor(RNG.normal(size=(3,)), requires_grad=True) for _ in range(4)]
        Tensor.stack(tensors, axis=0).sum().backward()
        for t in tensors:
            assert np.allclose(t.grad, 1.0)

    @pytest.mark.usefixtures("float64_twin")
    def test_unbind_matches_getitem(self):
        a = RNG.normal(size=(3, 4, 5))
        x = Tensor(a, requires_grad=True)
        y = Tensor(a.copy(), requires_grad=True)
        pieces = x.unbind(axis=1)
        assert len(pieces) == 4
        for t, piece in enumerate(pieces):
            assert np.array_equal(piece.data, a[:, t, :])
        Tensor.stack(pieces, axis=1).sum().backward()
        Tensor.stack([y[:, t, :] for t in range(4)], axis=1).sum().backward()
        assert np.allclose(x.grad, y.grad)

    def test_unbind_piece_reused_accumulates(self):
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        first = x.unbind(axis=0)[0]
        (first + first).sum().backward()
        assert np.allclose(x.grad[0], 2.0)
        assert np.allclose(x.grad[1], 0.0)

    def test_take_rows_grad(self):
        table = Tensor(RNG.normal(size=(10, 4)), requires_grad=True)
        ids = np.array([[1, 1], [3, 9]])
        table.take_rows(ids).sum().backward()
        assert table.grad[1].sum() == pytest.approx(8.0)  # used twice
        assert table.grad[0].sum() == 0.0


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(RNG.normal(size=(5, 7)))
        assert np.allclose(x.softmax(axis=-1).data.sum(axis=-1), 1.0)

    @pytest.mark.usefixtures("float64_twin")
    def test_log_softmax_grad(self):
        a = RNG.normal(size=(3, 5))
        check_grad(lambda x: (x.log_softmax(axis=-1) ** 2).sum(), a, tol=1e-6)

    @pytest.mark.usefixtures("float64_twin")
    def test_softmax_grad(self):
        a = RNG.normal(size=(3, 5))
        check_grad(lambda x: (x.softmax(axis=-1) ** 2).sum(), a, tol=1e-6)

    def test_softmax_stability(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        assert np.allclose(x.softmax(axis=-1).data, 0.5)



class TestMaskedSoftmax:
    MASK = np.array([
        [False, True, False, False, True],
        [False, False, False, False, False],
        [True, True, True, True, True],  # fully masked row
    ])

    def test_bitwise_equal_to_fill_then_softmax(self):
        data = RNG.normal(size=(2, 3, 4, 5))
        mask = RNG.random((2, 1, 1, 5)) < 0.4
        fused = Tensor(data).softmax(axis=-1, mask=mask).data
        filled = Tensor(np.where(mask, MASKED_SCORE, data)).softmax(axis=-1)
        assert np.array_equal(fused, filled.data)

    @pytest.mark.usefixtures("float64_twin")
    def test_grad(self):
        weights = Tensor(RNG.normal(size=(3, 5)))
        check_grad(
            lambda x: (x.softmax(axis=-1, mask=self.MASK) * weights).sum(),
            RNG.normal(size=(3, 5)),
        )

    def test_masked_entries_get_no_grad(self):
        x = Tensor(RNG.normal(size=(3, 5)), requires_grad=True)
        out = x.softmax(axis=-1, mask=self.MASK)
        (out * Tensor(RNG.normal(size=(3, 5)))).sum().backward()
        assert np.all(out.data[0, [1, 4]] == 0.0)
        assert np.all(x.grad[self.MASK] == 0.0)

    def test_fully_masked_row_is_uniform(self):
        x = Tensor(RNG.normal(size=(3, 5)))
        out = x.softmax(axis=-1, mask=self.MASK)
        assert np.allclose(out.data[2], 0.2)
        assert np.allclose(out.data.sum(axis=-1), 1.0)


@pytest.mark.usefixtures("float64_twin")
class TestLinear:
    @pytest.mark.parametrize("shape", [(4, 3), (2, 5, 3)])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_grads(self, shape, with_bias):
        x_data = RNG.normal(size=shape)
        w_data = RNG.normal(size=(3, 2))
        b_data = RNG.normal(size=(2,)) if with_bias else None
        weights = Tensor(RNG.normal(size=(*shape[:-1], 2)))

        def loss(x, w, b):
            return (linear(x, w, b) * weights).sum()

        def const(data):
            return None if data is None else Tensor(data)

        check_grad(lambda x: loss(x, Tensor(w_data), const(b_data)), x_data)
        check_grad(lambda w: loss(Tensor(x_data), w, const(b_data)), w_data)
        if with_bias:
            check_grad(lambda b: loss(Tensor(x_data), Tensor(w_data), b), b_data)

    @pytest.mark.parametrize("shape", [(7, 16), (4, 9, 16), (3, 5, 1, 16)])
    def test_bitwise_equal_to_matmul_then_add(self, shape):
        data = [RNG.normal(size=shape), RNG.normal(size=(16, 8)),
                RNG.normal(size=(8,))]
        fused = [Tensor(a.copy(), requires_grad=True) for a in data]
        pair = [Tensor(a.copy(), requires_grad=True) for a in data]
        out = linear(*fused)
        ref = pair[0] @ pair[1] + pair[2]
        assert np.array_equal(out.data, ref.data)
        grad = RNG.normal(size=out.shape)
        out.backward(grad)
        ref.backward(grad)
        for a, b in zip(fused, pair):
            assert np.array_equal(a.grad, b.grad)


def composite_layer_norm(x, gamma, beta, eps):
    """The op-by-op LayerNorm that :func:`layer_norm` replaced."""
    mu = x.mean(axis=-1, keepdims=True)
    centred = x - mu
    var = (centred * centred).mean(axis=-1, keepdims=True)
    return centred * ((var + eps) ** -0.5) * gamma + beta


@pytest.mark.usefixtures("float64_twin")
class TestLayerNorm:
    @pytest.mark.parametrize("shape", [(5, 8), (2, 7, 16), (3, 2, 4, 6)])
    def test_bitwise_equal_to_composite(self, shape):
        dim = shape[-1]
        data = [RNG.normal(size=shape), RNG.normal(size=dim),
                RNG.normal(size=dim)]
        other = Tensor(RNG.normal(size=shape))
        out_grad = RNG.normal(size=shape)
        results = []
        for norm in (layer_norm, composite_layer_norm):
            x, gamma, beta = (Tensor(a.copy(), requires_grad=True) for a in data)
            # x also feeds a second consumer, before and after the norm.
            out = x * other + norm(x, gamma, beta, 1e-5) + x * other
            out.backward(out_grad)
            results.append((out.data, x.grad, gamma.grad, beta.grad))
        for fused, composite in zip(*results):
            assert np.array_equal(fused, composite)

    def test_grads(self):
        data = RNG.normal(size=(2, 3, 6))
        gamma_data = RNG.normal(size=6)
        beta_data = RNG.normal(size=6)
        weights = Tensor(RNG.normal(size=(2, 3, 6)))

        def loss(x, gamma, beta):
            return (layer_norm(x, gamma, beta, 1e-5) * weights).sum()

        check_grad(lambda x: loss(x, Tensor(gamma_data), Tensor(beta_data)), data)
        check_grad(lambda g: loss(Tensor(data), g, Tensor(beta_data)), gamma_data)
        check_grad(lambda b: loss(Tensor(data), Tensor(gamma_data), b), beta_data)


@pytest.mark.usefixtures("float64_twin")
class TestRelativeGather:
    @pytest.mark.parametrize("transpose", [False, True])
    def test_forward_is_the_fancy_index(self, transpose):
        length, distance = 6, 2
        data = RNG.normal(size=(2, 3, length, 2 * distance + 1))
        idx = relative_position_index(length, distance)
        expected = data[..., np.arange(length)[:, None], idx]
        if transpose:
            expected = expected.swapaxes(-1, -2)
        out = relative_gather(Tensor(data), distance, transpose=transpose)
        assert np.array_equal(out.data, expected)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_grad(self, transpose):
        length, distance = 5, 2  # clipped: |i - j| reaches 4 > 2
        weights = Tensor(RNG.normal(size=(2, 2, length, length)))
        check_grad(
            lambda x: (relative_gather(x, distance, transpose) * weights).sum(),
            RNG.normal(size=(2, 2, length, 2 * distance + 1)),
        )


class TestGradOwnership:
    """Gradients are borrowed until written: each case fails if a tensor
    writes in place into a buffer it shares with another tensor."""

    def test_sum_of_two_leaves_is_clipped_once_each(self):
        a = Tensor(np.ones(4), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()  # both get the same broadcast view
        clip_grad_norm([a, b], 1.0)
        expected = np.full(4, 1.0 / np.sqrt(8.0))
        assert np.allclose(a.grad, expected) and np.allclose(b.grad, expected)

    def test_explicit_output_grad_is_clipped_once_each(self):
        a = Tensor(np.ones(4), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        out_grad = np.full(4, 2.0)
        (a + b).backward(out_grad)  # both get the caller's array
        clip_grad_norm([a, b], 1.0)
        expected = np.full(4, 1.0 / np.sqrt(8.0))
        assert np.allclose(a.grad, expected) and np.allclose(b.grad, expected)
        assert np.all(out_grad == 2.0)

    @pytest.mark.usefixtures("float64_twin")
    def test_parameter_used_twice(self):
        a = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        b = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        out_grad = RNG.normal(size=(3,))
        kept = out_grad.copy()
        ((a + b) + a).backward(out_grad)
        assert np.array_equal(a.grad, 2 * kept)
        assert np.array_equal(b.grad, kept)
        assert np.array_equal(out_grad, kept)

    @pytest.mark.parametrize("split", ["slice", "unbind"])
    @pytest.mark.parametrize("slice_first", [False, True])
    def test_slice_into_a_borrowed_grad(self, split, slice_first):
        w = RNG.normal(size=(3, 4))
        v = RNG.normal(size=(4,))
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        y = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        row = x[0] if split == "slice" else x.unbind(axis=0)[0]
        shared = ((x + y) * Tensor(w)).sum()  # x and y share one grad
        sliced = (row * Tensor(v)).sum()
        (sliced + shared if slice_first else shared + sliced).backward()
        expected_x = w.copy()
        expected_x[0] += v
        assert np.allclose(x.grad, expected_x)
        assert np.allclose(y.grad, w)

    def test_second_backward_through_one_graph(self):
        # The first pass frees the graph, so the second raises and leaves
        # the first pass's gradient and the caller's array as they were.
        a = Tensor(np.ones(3), requires_grad=True)
        x = (a * 1.0) + 0.0  # x hands its own buffer to its parent
        out = x + x
        out_grad = np.arange(3.0)
        out.backward(out_grad)
        with pytest.raises(GradientError):
            out.backward(out_grad)
        assert np.array_equal(a.grad, 2 * out_grad)
        assert np.array_equal(out_grad, np.arange(3.0))

    def test_broadcast_sum_grad_on_a_leaf_is_clipped(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        x.sum().backward()
        assert x.grad.flags.writeable
        clip_grad_norm([x], 0.5)
        assert np.allclose(x.grad, 0.5 / np.sqrt(6.0))


def _interior_nodes(root: Tensor) -> list[Tensor]:
    """Every node reachable from ``root`` that an op made."""
    found, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            found.append(node)
        stack.extend(node._parents)
    return found


class TestGraphLifetime:
    """Backward frees the graph behind it; only leaves keep gradients."""

    def test_interior_tensor_is_freed_by_backward(self):
        x = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        h = (x @ w).tanh()
        ref = weakref.ref(h.data)  # Tensor has slots and no weakref slot
        loss = (h * h).sum()
        del h
        assert ref() is not None  # the graph still holds it
        loss.backward()
        assert ref() is None  # freed at once, without a gc pass

    def test_no_interior_node_keeps_graph_state(self):
        x = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        h = (x @ w).tanh()
        loss = (h * h + h).mean()
        interior = _interior_nodes(loss)
        assert len(interior) >= 5  # matmul, tanh, mul, add, mean
        loss.backward()
        for node in interior:
            assert node._parents == ()
            assert node._backward.__closure__ is None
            assert node.grad is None

    def test_leaves_own_writable_gradients(self):
        x = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        ((x @ w) + w.sum()).sum().backward()
        for leaf in (x, w):
            assert leaf.grad.flags.writeable and leaf.grad.flags.owndata
        assert not np.shares_memory(x.grad, w.grad)

    def test_new_graph_through_a_freed_node_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        h = x * 2.0
        h.sum().backward()
        with pytest.raises(GradientError):
            (h * 3.0).sum().backward()


class TestItem:
    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    def test_one_element(self, shape):
        value = Tensor(np.full(shape, 2.5)).item()
        assert value == 2.5 and type(value) is float

    def test_more_elements_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones(2)).item()


class TestGraphSemantics:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(GradientError):
            (x * 2).backward()

    def test_backward_on_constant_rejected(self):
        x = Tensor(np.ones(3))
        with pytest.raises(GradientError):
            x.backward()

    def test_explicit_output_grad_shape_checked(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            (x * 2).backward(np.ones(4))

    def test_grad_accumulates_over_backwards(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2).sum().backward()
        (x * 2).sum().backward()
        assert np.allclose(x.grad, 4.0)

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x.sum()).backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_grad(self):
        # y = x*x + x*x reuses x twice through shared subexpression
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x
        (y + y).sum().backward()
        assert np.allclose(x.grad, 12.0)

    def test_detach_breaks_graph(self):
        x = Tensor(np.ones(2), requires_grad=True)
        d = x.detach()
        assert not d.requires_grad

    @settings(max_examples=30, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=3, max_side=4),
            elements=st.floats(-3, 3),
        )
    )
    def test_sum_grad_is_ones_property(self, data):
        x = Tensor(data, requires_grad=True)
        x.sum().backward()
        assert np.allclose(x.grad, np.ones_like(data))


class TestTensorPickling:
    def test_tensor_round_trips_as_leaf(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True, name="w")
        clone = pickle.loads(pickle.dumps(t))
        np.testing.assert_array_equal(clone.data, t.data)
        assert clone.requires_grad and clone.name == "w"
        assert clone.grad is None and clone._parents == ()

    def test_graph_state_is_dropped_not_pickled(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = (a * 2.0).sum()  # has _backward closure + parents
        clone = pickle.loads(pickle.dumps(b))
        assert clone._backward is None
        assert clone._parents == ()
