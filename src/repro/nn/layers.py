"""Basic layers: Linear, Embedding, LayerNorm, Dropout, GELU."""

from __future__ import annotations

import numpy as np

from repro.nn.init import normal, xavier_uniform
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, layer_norm, linear


class Linear(Module):
    """Affine map ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(xavier_uniform(rng, in_features, out_features))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class Embedding(Module):
    """Token-id → dense vector lookup table."""

    def __init__(
        self,
        num_embeddings: int,
        dim: int,
        rng: np.random.Generator,
        padding_idx: int | None = None,
    ) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.padding_idx = padding_idx
        table = normal(rng, (num_embeddings, dim), std=0.02)
        if padding_idx is not None:
            table[padding_idx] = 0.0
        self.weight = Parameter(table)

    def forward(self, ids: np.ndarray) -> Tensor:
        return self.weight.take_rows(np.asarray(ids, dtype=np.int64))


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, self.eps)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout p must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        # The draw stays float64, so the masks and the RNG stream do not
        # depend on the activation dtype; only the scale is built in it.
        # The node holds the bool mask and scales it again in backward.
        mask = self._rng.random(x.shape) < keep
        scale = x.data.dtype.type(1.0 / keep)

        def backward(grad: np.ndarray) -> None:
            x._accumulate(grad * (mask * scale))

        return Tensor._make(x.data * (mask * scale), (x,), backward)


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.gelu()
