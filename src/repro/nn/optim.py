"""Optimizers and learning-rate schedules."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter


def clip_grad_norm(parameters, max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm ≤ ``max_norm``.

    Returns the pre-clipping norm.
    """
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, parameters, lr: float) -> None:
        self.parameters: list[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        parameters,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        decoupled: bool = False,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.decoupled = decoupled
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay and not self.decoupled:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            if self.weight_decay and self.decoupled:
                update = update + self.weight_decay * p.data
            p.data -= self.lr * update


class LRSchedule:
    """Callable mapping step → learning-rate multiplier, applied to an
    optimizer via :meth:`apply`."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.step_num = 0

    def multiplier(self, step: int) -> float:
        raise NotImplementedError

    def step(self) -> float:
        self.step_num += 1
        lr = self.base_lr * self.multiplier(self.step_num)
        self.optimizer.lr = lr
        return lr


class WarmupLinearDecay(LRSchedule):
    """Linear warmup to ``base_lr`` then linear decay to zero —
    the standard BERT fine-tuning schedule."""

    def __init__(
        self, optimizer: Optimizer, warmup_steps: int, total_steps: int
    ) -> None:
        super().__init__(optimizer)
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        self.warmup_steps = max(1, warmup_steps)
        self.total_steps = total_steps

    def multiplier(self, step: int) -> float:
        if step < self.warmup_steps:
            return step / self.warmup_steps
        remaining = max(0, self.total_steps - step)
        denom = max(1, self.total_steps - self.warmup_steps)
        return remaining / denom
