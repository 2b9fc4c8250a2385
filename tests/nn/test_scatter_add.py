"""bincount-based scatter-adds vs their np.add.at references."""

import numpy as np
import pytest

from repro.nn.attention import (
    relative_gather,
    relative_position_index,
    relative_scatter,
    relative_scatter_reference,
)
from repro.nn.tensor import Tensor, scatter_add_rows, scatter_add_rows_reference

ATOL = 1e-8


class TestScatterAddRows:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_with_duplicates(self, seed):
        rng = np.random.default_rng(seed)
        target_a = rng.normal(size=(20, 8))
        target_b = target_a.copy()
        idx = rng.integers(0, 20, size=50)  # heavy duplication
        rows = rng.normal(size=(50, 8))
        scatter_add_rows(target_a, idx, rows)
        scatter_add_rows_reference(target_b, idx, rows)
        np.testing.assert_allclose(target_a, target_b, atol=ATOL)

    def test_three_dimensional_rows(self):
        rng = np.random.default_rng(11)
        target_a = rng.normal(size=(10, 4))
        target_b = target_a.copy()
        idx = rng.integers(0, 10, size=(6, 3))   # (B, K) negatives-style
        rows = rng.normal(size=(6, 3, 4))
        scatter_add_rows(target_a, idx, rows)
        scatter_add_rows_reference(target_b, idx, rows)
        np.testing.assert_allclose(target_a, target_b, atol=ATOL)

    def test_untouched_rows_unchanged(self):
        target = np.zeros((5, 3))
        scatter_add_rows(target, np.array([1, 1]), np.ones((2, 3)))
        np.testing.assert_array_equal(target[0], 0.0)
        np.testing.assert_array_equal(target[1], 2.0)
        np.testing.assert_array_equal(target[2:], 0.0)

    def test_empty_indices_noop(self):
        target = np.ones((4, 2))
        scatter_add_rows(
            target, np.zeros(0, dtype=np.int64), np.zeros((0, 2))
        )
        np.testing.assert_array_equal(target, 1.0)


class TestRelativeScatter:
    @pytest.mark.usefixtures("float64_twin")
    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize(
        "shape, distance",
        [((2, 4, 9), 3), ((3, 1, 2, 17), 16), ((1, 40), 8), ((2, 3, 5), 8)],
    )
    def test_bitwise_equal_to_reference(self, shape, distance, transpose):
        rng = np.random.default_rng(len(shape) + distance)
        grad = rng.normal(size=(*shape, shape[-1]))
        fast = relative_scatter(grad, distance, transpose)
        reference = relative_scatter_reference(grad, distance, transpose)
        assert fast.shape == (*shape, 2 * distance + 1)
        assert np.array_equal(fast, reference)

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize(
        "shape, distance",
        [((2, 4, 9), 3), ((3, 1, 2, 17), 16), ((16, 4, 96), 16)],
    )
    def test_float32_bitwise_equal_to_reference(self, shape, distance, transpose):
        """In float32, the dtype training runs in. The (16, 4, 96, 96)
        gradient is a DeBERTa batch's, where summing each bucket in
        float32 would round differently from the float64 ``bincount``."""
        rng = np.random.default_rng(len(shape) + distance)
        grad = rng.normal(size=(*shape, shape[-1])).astype(np.float32)
        fast = relative_scatter(grad, distance, transpose)
        reference = relative_scatter_reference(grad, distance, transpose)
        assert fast.dtype == reference.dtype == np.float32
        assert np.array_equal(fast, reference)

    @pytest.mark.usefixtures("float64_twin")
    @pytest.mark.parametrize("transpose", [False, True])
    def test_bitwise_equal_to_fancy_index_backward(self, transpose):
        """The primitive's gradient is the one the generic fancy-index
        ``__getitem__`` (then ``swapaxes``) backward produced."""
        rng = np.random.default_rng(7)
        length, distance = 12, 4
        data = rng.normal(size=(2, 3, length, 2 * distance + 1))
        out_grad = rng.normal(size=(2, 3, length, length))
        fast = Tensor(data, requires_grad=True)
        relative_gather(fast, distance, transpose).backward(out_grad)
        generic = Tensor(data, requires_grad=True)
        rows = np.arange(length)[:, None]
        gathered = generic[:, :, rows, relative_position_index(length, distance)]
        if transpose:
            gathered = gathered.swapaxes(-1, -2)
        gathered.backward(out_grad)
        assert np.array_equal(fast.grad, generic.grad)
