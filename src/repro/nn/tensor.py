"""Reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps an ``ndarray`` and records the operations applied
to it; :meth:`Tensor.backward` walks the recorded graph in reverse
topological order accumulating gradients. The op set is exactly what the
paper's five baselines need: broadcast arithmetic, matmul, reductions,
shape ops, gather/embedding, stable softmax/log-softmax, and the standard
activation functions.

Design choices
--------------
* Gradients are plain ``ndarray``s (not Tensors) — no higher-order grads.
* A graph is backpropagated once: :meth:`Tensor.backward` frees each
  node behind it, so one training step's graph is alive at a time.
* Broadcasting is supported everywhere via an un-broadcast helper.
* ``log_softmax`` and friends are primitives with analytic backward
  passes, keeping graphs small and numerics stable.
* One float dtype, float32, for every array the graph holds: parameters,
  activations, gradients and optimizer state. Inputs are cast to it on
  the way in, and gradients keep their tensor's dtype. Under numpy's
  promotion rules a numpy float64 scalar or array turns a float32 result
  into float64, so constants are Python floats and helper arrays are
  built in the activation's dtype. The tests swap in float64 as a
  numerical twin; nothing else selects it.
"""

from __future__ import annotations

import ctypes
import math
import threading
from collections.abc import Sequence
from contextlib import contextmanager

import numpy as np

from repro.core.errors import GradientError, ShapeError

Arrayish = "Tensor | np.ndarray | float | int"

# The one float dtype of the stack (see the module docstring). Read at
# call time, never bound at import, so the float64 test twin reaches
# every array built after it is switched.
_DTYPE = np.float32

#: Score given to masked entries by :meth:`Tensor.softmax` and
#: :func:`repro.nn.attention.attention_weights` — finite, so a fully
#: masked row normalises to uniform instead of NaN.
MASKED_SCORE = -1e9

# glibc ``mallopt`` parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Have glibc keep the heap memory that backward frees.

    Backward frees each graph as it walks it, so after a training step,
    as after a serving batch, the top of the heap is empty. By default
    glibc hands it back to the OS and the next step faults every page in
    again: on a 2-CPU x86 host, fitting the five baselines at benchmark
    size took 222k minor faults this way and 31k with the heap kept, and
    a bulk DeBERTa scoring pass 32k against none, at the same peak RSS.
    So the trim threshold is set out of reach and the mmap threshold is
    fixed at 32 MB, the cap glibc's dynamic threshold climbs to. Other C
    libraries are left as they are.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)


_keep_freed_heap()

# Per-thread autograd switch: the serving engine's thread runs forward
# passes under no_grad while a training loop may be active on another
# thread, so the flag cannot be process-global.
_GRAD_MODE = threading.local()


def is_grad_enabled() -> bool:
    """Whether ops record the autograd graph on the current thread."""
    return getattr(_GRAD_MODE, "enabled", True)


@contextmanager
def no_grad():
    """Disable graph construction for the enclosed forward passes.

    Inside the context every op produces a constant tensor — no parents,
    no backward closure — so inference skips the full cost of building
    (and holding alive) the autograd graph. Values are identical to the
    recording path; only ``.backward()`` becomes unavailable. Nestable.
    """
    previous = is_grad_enabled()
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def _freed_backward(grad: np.ndarray) -> None:
    """Backward of a node an earlier :meth:`Tensor.backward` has freed."""
    raise GradientError(
        "backward through a graph that an earlier backward already freed"
    )


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _as_array(value) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected raw array-like, got Tensor")
    return np.asarray(value, dtype=_DTYPE)


def scatter_add_rows(
    target: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> None:
    """``target[indices[k]] += rows[k]`` with duplicate indices, in place.

    Implemented as a single flat ``np.bincount`` over ``index·D + column``
    keys, which is an order of magnitude faster than the ``np.add.at``
    ufunc loop it replaces (kept as :func:`scatter_add_rows_reference` for
    equivalence tests). ``target`` must be 2-D ``(V, D)``; ``indices`` is
    flattened, and ``rows`` reshaped to ``(len(indices), D)``.
    """
    dim = target.shape[-1]
    flat_idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    flat_rows = np.asarray(rows, dtype=target.dtype).reshape(-1, dim)
    keys = (flat_idx[:, None] * dim + np.arange(dim)).reshape(-1)
    target += np.bincount(
        keys, weights=flat_rows.reshape(-1), minlength=target.size
    ).reshape(target.shape)


def scatter_add_rows_reference(
    target: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> None:
    """Naive ``np.add.at`` predecessor of :func:`scatter_add_rows`."""
    dim = target.shape[-1]
    flat_idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    np.add.at(target, flat_idx, np.asarray(rows).reshape(-1, dim))


def _is_basic_index(key) -> bool:
    """True when ``key`` is basic (non-fancy) indexing — no index position
    can repeat, so a gradient scatter may use ``+=`` instead of
    ``np.add.at``."""
    parts = key if isinstance(key, tuple) else (key,)
    return not any(isinstance(p, (np.ndarray, list)) for p in parts)


class Tensor:
    """A node in the autograd graph."""

    __slots__ = (
        "data", "grad", "requires_grad", "_backward", "_parents", "name",
        "_owns_grad",
    )
    __array_priority__ = 100  # numpy defers to our __r*__ operators

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        name: str | None = None,
    ) -> None:
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self._owns_grad = False
        self.requires_grad = bool(requires_grad)
        self._backward = None  # set by op constructors
        self._parents = _parents
        self.name = name

    # -- basics ---------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(
                f"item() needs a tensor of one element, got shape {self.shape}"
            )
        return self.data.item()

    def numpy(self) -> np.ndarray:
        return self.data

    # -- pickling -------------------------------------------------------------
    # Autograd state is graph- and process-local: ``_backward`` closures
    # capture intermediate arrays and cannot (and should not) cross a
    # pickle boundary. A Tensor round-trips as a leaf — data, grad flag,
    # name — which is exactly what handing a pickled model to worker
    # processes needs (see repro.core.workers).

    def __getstate__(self):
        return (self.data, self.requires_grad, self.name)

    def __setstate__(self, state) -> None:
        self.data, self.requires_grad, self.name = state
        self.grad = None
        self._owns_grad = False
        self._backward = None
        self._parents = ()

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    @staticmethod
    def ensure(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    # -- graph machinery ---------------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        # Every gradient buffer is C-contiguous: numpy's reduction and
        # matmul loops round differently on strided views. A C-contiguous
        # first contribution is borrowed, not copied: it may be another
        # node's gradient or a view of one. Only a buffer this tensor owns
        # is ever written in place. A gradient keeps its tensor's dtype.
        dtype = self.data.dtype
        if self.grad is None:
            self._owns_grad = grad.dtype != dtype or not grad.flags.c_contiguous
            self.grad = np.asarray(grad, dtype=dtype, order="C")
        elif self._owns_grad:
            self.grad += grad
        else:
            self.grad = np.add(self.grad, grad, order="C", dtype=dtype)
            self._owns_grad = True

    def _owned_grad(self) -> np.ndarray:
        """This tensor's gradient buffer, made writable and private to it
        (zeros when there is none yet), for ops that scatter in place."""
        if self.grad is None:
            self.grad = np.zeros(self.shape, dtype=self.data.dtype)
        elif not self._owns_grad:
            self.grad = self.grad.copy()
        self._owns_grad = True
        return self.grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1 for scalar outputs; non-scalar roots must
        supply an explicit output gradient. The walk frees the graph behind
        it, so only leaves keep a ``.grad`` afterwards, and a second
        backward through the same graph raises :class:`GradientError`.
        """
        if not self.requires_grad:
            raise GradientError("backward on a tensor that requires no grad")
        if grad is None:
            if self.data.size != 1:
                raise GradientError(
                    "backward without gradient only allowed for scalars"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ShapeError(
                f"output gradient shape {grad.shape} != tensor shape {self.shape}"
            )

        topo: list[Tensor] = []
        seen: set[int] = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, False)]
            while stack:
                current, processed = stack.pop()
                if processed:
                    topo.append(current)
                    continue
                if id(current) in seen:
                    continue
                seen.add(id(current))
                stack.append((current, True))
                for parent in current._parents:
                    if parent.requires_grad:
                        stack.append((parent, False))

        visit(self)
        self._accumulate(grad)
        leaves: list[Tensor] = []
        while topo:  # reverse topological order
            node = topo.pop()
            if node._backward is None:
                leaves.append(node)
                continue
            if node.grad is not None:
                node._backward(node.grad)
            # Free the node as soon as its backward has run: the closure
            # (and the activations it captured), the parents and the
            # gradient. Parents keep any views of the buffer they took.
            node.grad = None
            node._backward = _freed_backward
            node._parents = ()
        # Leaf gradients are what callers read and scale in place
        # (clip_grad_norm), so each leaf ends up owning its own.
        for node in leaves:
            if node.grad is not None:
                node._owned_grad()

    @staticmethod
    def _make(
        data: np.ndarray, parents: Sequence["Tensor"], backward
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        if not requires:
            # Constant result: drop parents so the graph (and the closure's
            # captured activations) can be freed immediately.
            return Tensor(data)
        out = Tensor(data, requires_grad=True, _parents=tuple(parents))
        out._backward = backward
        return out

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor.ensure(other))

    def __rsub__(self, other) -> "Tensor":
        return Tensor.ensure(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / other.data**2, other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor.ensure(other) / self

    def __matmul__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(
                        _unbroadcast(np.outer(grad, other.data) if grad.ndim == 1
                                     else np.expand_dims(grad, -1) * other.data,
                                     self.shape)
                    )
                else:
                    self._accumulate(
                        _unbroadcast(grad @ np.swapaxes(other.data, -1, -2), self.shape)
                    )
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(
                        _unbroadcast(np.outer(self.data, grad), other.shape)
                    )
                elif self.data.ndim > 2 and other.data.ndim == 2:
                    # Batched (…, D) @ (D, K): contract all batch axes in
                    # one flat gemm instead of materialising a (…, D, K)
                    # stack and summing it afterwards.
                    other._accumulate(
                        np.tensordot(
                            self.data,
                            grad,
                            axes=(
                                tuple(range(self.data.ndim - 1)),
                                tuple(range(grad.ndim - 1)),
                            ),
                        )
                    )
                else:
                    contribution = np.swapaxes(self.data, -1, -2) @ grad
                    other._accumulate(_unbroadcast(contribution, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    # -- elementwise functions ---------------------------------------------------

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def gelu(self) -> "Tensor":
        """Tanh-approximated GELU (the BERT-family activation).

        The chain runs in place, so only ``x²``, ``t`` and ``½(1+t)`` —
        what the backward reads — get buffers of their own, and none do
        when no graph is recorded. Each in-place step multiplies or adds
        the same two operands as the expression
        ``x · ½(1 + tanh(c(x + 0.044715·x·x·x)))``, so the values are
        bitwise equal to it.
        """
        x = self.data
        c = math.sqrt(2.0 / math.pi)  # a Python float keeps x's dtype
        keep = is_grad_enabled() and self.requires_grad
        x2 = x * x  # x**3 as products: a pow costs ~4x more
        t = x2 * x if keep else np.multiply(x2, x, out=x2)
        t *= 0.044715
        t += x
        t *= c
        np.tanh(t, out=t)
        half = t + 1.0 if keep else np.add(t, 1.0, out=t)
        half *= 0.5
        out_data = half * x if keep else np.multiply(half, x, out=half)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                dt = (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * x2)
                self._accumulate(grad * (half + 0.5 * x * dt))

        return Tensor._make(out_data, (self,), backward)

    # -- reductions -------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- shape ops -------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]
        basic = _is_basic_index(key)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if basic:  # slices/ints never repeat a position
                self._owned_grad()[key] += grad
            else:
                full = np.zeros_like(self.data)
                np.add.at(full, key, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    def unbind(self, axis: int = 0) -> list["Tensor"]:
        """Split into the ``shape[axis]`` sub-tensors along ``axis``.

        Equivalent to ``[self[..., i, ...] for i in range(shape[axis])]``
        but each piece's backward writes straight into one shared gradient
        buffer on the parent instead of materialising a full-size zeros
        array per piece — the difference dominates when unbinding the time
        axis of a large activation tensor inside an RNN scan.
        """
        axis = axis % self.ndim

        def piece(i: int) -> "Tensor":
            index = [slice(None)] * self.ndim
            index[axis] = i
            index = tuple(index)

            def backward(grad: np.ndarray) -> None:
                if self.requires_grad:
                    self._owned_grad()[index] += grad

            return Tensor._make(self.data[index], (self,), backward)

        return [piece(i) for i in range(self.shape[axis])]

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor.ensure(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0, *sizes])

        def backward(grad: np.ndarray) -> None:
            for t, start, end in zip(tensors, offsets, offsets[1:]):
                if t.requires_grad:
                    index = [slice(None)] * grad.ndim
                    index[axis] = slice(int(start), int(end))
                    t._accumulate(grad[tuple(index)])

        return Tensor._make(out_data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor.ensure(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            slabs = np.moveaxis(grad, axis, 0)
            for t, slab in zip(tensors, slabs):
                if t.requires_grad:
                    t._accumulate(slab)

        return Tensor._make(out_data, tuple(tensors), backward)

    # -- gather / embedding ------------------------------------------------------

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Row gather (embedding lookup): ``out[..., :] = self[idx[...], :]``."""
        indices = np.asarray(indices, dtype=np.int64)
        out_data = self.data[indices]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                scatter_add_rows(full, indices, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # -- numerically stable softmax family -----------------------------------------

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_z
        soft = np.exp(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    grad - soft * grad.sum(axis=axis, keepdims=True)
                )

        return Tensor._make(out_data, (self,), backward)

    def softmax(self, axis: int = -1, mask: np.ndarray | None = None) -> "Tensor":
        """Softmax along ``axis``.

        Entries where the boolean ``mask`` (broadcast against the data) is
        True are scored :data:`MASKED_SCORE` first and receive no gradient;
        a fully masked row comes out uniform. Computed in place on one
        buffer, bitwise equal to filling, shifting, exponentiating and
        normalising as separate arrays.
        """
        if mask is None:
            out_data = self.data - self.data.max(axis=axis, keepdims=True)
        else:
            mask = np.asarray(mask, dtype=bool)
            out_data = np.where(mask, MASKED_SCORE, self.data)
            out_data -= out_data.max(axis=axis, keepdims=True)
        np.exp(out_data, out=out_data)
        out_data /= out_data.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad * out_data
            inner = g.sum(axis=axis, keepdims=True)
            np.subtract(grad, inner, out=g)
            g *= out_data
            if mask is not None:
                np.copyto(g, 0.0, where=mask)
            self._accumulate(g)

        return Tensor._make(out_data, (self,), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight + bias`` as one autograd node.

    Bitwise equal to the matmul-then-add pair it replaces: the same
    products in both directions, with the bias added in place on the
    output instead of through a second node and array.
    """
    w = weight.data
    out_data = x.data @ w
    if bias is not None:
        out_data += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad @ w.T)
        if weight.requires_grad:
            if x.ndim == 1:
                weight._accumulate(np.outer(x.data, grad))
            elif x.ndim == 2:
                weight._accumulate(x.data.T @ grad)
            else:  # all leading axes contracted in one flat gemm
                lead = tuple(range(x.ndim - 1))
                weight._accumulate(np.tensordot(x.data, grad, axes=(lead, lead)))
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, bias.shape))

    return Tensor._make(out_data, parents, backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Layer normalisation over the last axis as one autograd node.

    Bitwise equal to the twelve-node composite it replaces (mean, centre,
    variance, ``(var + eps) ** -0.5``, scale, shift): the same array
    operations in the same order, the input's two gradient terms added to
    it as two contributions, as the composite's did. When no graph is
    recorded, the scale and shift run in place on the centred buffer.
    """
    n = x.shape[-1]
    centred = x.data - x.data.sum(axis=-1, keepdims=True) * (1.0 / n)
    var_eps = (centred * centred).sum(axis=-1, keepdims=True) * (1.0 / n) + eps
    inv_std = var_eps**-0.5
    keep = is_grad_enabled() and (
        x.requires_grad or gamma.requires_grad or beta.requires_grad
    )
    normed = centred * inv_std if keep else np.multiply(centred, inv_std, out=centred)
    out_data = normed * gamma.data if keep else np.multiply(normed, gamma.data, out=normed)
    out_data += beta.data

    def backward(grad: np.ndarray) -> None:
        if beta.requires_grad:
            beta._accumulate(_unbroadcast(grad, beta.shape))
        if gamma.requires_grad:
            gamma._accumulate(_unbroadcast(grad * normed, gamma.shape))
        if not x.requires_grad:
            return
        g_normed = grad * gamma.data
        g_var = (
            (g_normed * centred).sum(axis=-1, keepdims=True)
            * -0.5 * var_eps**-1.5 * (1.0 / n)
        )
        # centred feeds the variance twice (as both factors of its square).
        square_term = g_var * centred
        g_centred = g_normed * inv_std + square_term
        g_centred += square_term
        g_mean = -g_centred.sum(axis=-1, keepdims=True) * (1.0 / n)
        x._accumulate(g_centred)
        x._accumulate(np.broadcast_to(g_mean, x.shape))

    return Tensor._make(out_data, (x, gamma, beta), backward)
