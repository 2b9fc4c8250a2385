"""Pre-trained language model infrastructure: configs + MLM pretraining.

Since real RoBERTa/DeBERTa checkpoints are a gated external dependency,
the PLM baselines are *domain-pretrained from scratch*: a masked-language
-modelling pass over the large unannotated crawl pool (the 139K-post
background corpus) gives the encoders the lexical knowledge that makes
them dominate the from-scratch RNN baselines — the same mechanism, scaled
to a laptop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import perf
from repro.core.rng import SeedSequenceRegistry
from repro.nn import (
    Adam,
    IGNORE_INDEX,
    Linear,
    Tensor,
    WarmupLinearDecay,
    clip_grad_norm,
    cross_entropy,
    pad_sequences,
)
from repro.nn.module import Module
from repro.text.vocab import Vocabulary


@dataclass(frozen=True)
class PLMConfig:
    """Size configuration of a from-scratch PLM.

    ``base`` mirrors the paper's DeBERTa-Base role; ``large`` is the
    bigger variant used by the Table IV small-data configuration.
    """

    dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_hidden: int = 128
    max_len: int = 96
    dropout: float = 0.1
    max_relative_distance: int = 16

    @classmethod
    def base(cls) -> "PLMConfig":
        return cls()

    @classmethod
    def large(cls) -> "PLMConfig":
        return cls(dim=96, num_layers=3, num_heads=6, ffn_hidden=192)


@dataclass
class MLMResult:
    """Trace of a masked-LM pretraining run."""

    losses: list[float] = field(default_factory=list)


class MLMHead(Module):
    """Projection from encoder states to vocabulary logits."""

    def __init__(self, dim: int, vocab_size: int, rng: np.random.Generator):
        super().__init__()
        self.proj = Linear(dim, vocab_size, rng)

    def forward(self, states: Tensor) -> Tensor:
        return self.proj(states)


def mask_tokens(
    ids: np.ndarray,
    mask: np.ndarray,
    vocab: Vocabulary,
    rng: np.random.Generator,
    mlm_probability: float = 0.15,
) -> tuple[np.ndarray, np.ndarray]:
    """BERT-style corruption: of the selected 15%, 80% → <mask>,
    10% → random token, 10% unchanged. Returns (inputs, targets)."""
    ids = np.asarray(ids, dtype=np.int64)
    targets = np.full_like(ids, IGNORE_INDEX)
    selectable = np.asarray(mask) > 0
    selected = (rng.random(ids.shape) < mlm_probability) & selectable
    if not selected.any():
        # Guarantee at least one target so the loss is defined.
        rows, cols = np.nonzero(selectable)
        if rows.size == 0:
            raise ValueError("cannot mask an all-padding batch")
        k = int(rng.integers(rows.size))
        selected[rows[k], cols[k]] = True
    targets[selected] = ids[selected]

    inputs = ids.copy()
    roll = rng.random(ids.shape)
    to_mask = selected & (roll < 0.8)
    to_random = selected & (roll >= 0.8) & (roll < 0.9)
    inputs[to_mask] = vocab.mask_id
    num_random = int(to_random.sum())
    if num_random:
        # Draw from the non-special id range [num_special, len(vocab)).
        offset = vocab.num_special
        inputs[to_random] = rng.integers(
            len(vocab) - offset, size=num_random
        ) + offset
    return inputs, targets


def pretrain_mlm(
    encoder: Module,
    vocab: Vocabulary,
    token_sequences: list[list[int]],
    steps: int = 200,
    batch_size: int = 16,
    lr: float = 1e-3,
    max_len: int = 96,
    seed: int = 0,
) -> MLMResult:
    """Masked-language-model pretraining of ``encoder`` in place.

    ``token_sequences`` is the unannotated background corpus, already
    encoded with ``vocab``.
    """
    if not token_sequences:
        raise ValueError("no pretraining sequences supplied")
    with perf.span("models.mlm"):
        encoder.train()
        registry = SeedSequenceRegistry(seed)
        rng = registry.get("mlm")
        head = MLMHead(encoder.dim, len(vocab.tokens()), registry.get("mlm-head"))
        params = list(encoder.parameters()) + list(head.parameters())
        optimizer = Adam(params, lr=lr)
        schedule = WarmupLinearDecay(
            optimizer, warmup_steps=max(1, steps // 10), total_steps=steps
        )
        result = MLMResult()
        n = len(token_sequences)
        for _ in range(steps):
            picks = rng.integers(n, size=batch_size)
            ids, mask = pad_sequences(
                [token_sequences[int(i)] for i in picks],
                pad_value=vocab.pad_id,
                max_len=max_len,
            )
            inputs, targets = mask_tokens(ids, mask, vocab, rng)
            states = encoder(inputs, mask=mask)
            logits = head(states)
            flat_logits = logits.reshape(-1, logits.shape[-1])
            loss = cross_entropy(flat_logits, targets.reshape(-1))
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(params, 5.0)
            schedule.step()
            optimizer.step()
            result.losses.append(loss.item())
        return result
