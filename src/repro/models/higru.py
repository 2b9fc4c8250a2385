"""Hierarchical GRU baseline (paper §III-A3).

Two-level architecture: a bottom bidirectional GRU encodes the tokens of
each post (with residual connection and layer normalisation), a top GRU
models the user's post sequence, and a time-aware attention layer pools
the top-level states using the temporal features of each post.
"""

from __future__ import annotations

import numpy as np

from repro.core.rng import SeedSequenceRegistry
from repro.core.schema import NUM_CLASSES
from repro.models.base import RiskModel
from repro.models.neural_common import (
    EncodedWindows,
    TextPipeline,
    TrainerConfig,
    collate_post_grid,
    collate_time,
    predict_classifier,
    predict_proba_classifier,
    train_classifier,
)
from repro.nn import Dropout, Embedding, GRU, LayerNorm, Linear, Tensor
from repro.nn.module import Module
from repro.temporal.windows import PostWindow


class TimeAwareAttention(Module):
    """Additive attention whose scores mix content and temporal features.

    ``score_t = vᵀ tanh(W_h h_t + W_τ τ_t)`` — the "dynamic allocation of
    attention weights" over historical posts, conditioned on inter-post
    intervals, periodicity, and cumulative statistics (all inside τ).
    """

    def __init__(
        self, hidden_dim: int, time_dim: int, rng: np.random.Generator
    ) -> None:
        super().__init__()
        self.w_h = Linear(hidden_dim, hidden_dim, rng)
        self.w_t = Linear(time_dim, hidden_dim, rng)
        self.v = Linear(hidden_dim, 1, rng, bias=False)

    def forward(
        self, states: Tensor, time_feats: np.ndarray, post_mask: np.ndarray
    ) -> Tensor:
        mixed = (self.w_h(states) + self.w_t(Tensor(time_feats))).tanh()
        scores = self.v(mixed)[:, :, 0]  # (B, W)
        weights = scores.softmax(axis=-1, mask=np.asarray(post_mask) == 0)  # (B, W)
        return (states * weights.reshape(*weights.shape, 1)).sum(axis=1)


class HiGRUNetwork(Module):
    """Bottom token-GRU → residual+LN → top post-GRU → time attention."""

    def __init__(
        self,
        vocab_size: int,
        time_dim: int,
        rng: np.random.Generator,
        embed_dim: int = 64,
        bottom_hidden: int = 48,
        top_hidden: int = 64,
        dropout: float = 0.1,
        pad_id: int = 0,
    ) -> None:
        super().__init__()
        self.pad_id = pad_id
        self.embed = Embedding(vocab_size, embed_dim, rng, padding_idx=pad_id)
        self.bottom = GRU(embed_dim, bottom_hidden, rng, bidirectional=True)
        self.bottom_proj = Linear(2 * bottom_hidden, embed_dim, rng)
        self.bottom_norm = LayerNorm(embed_dim)
        self.top = GRU(embed_dim, top_hidden, rng, bidirectional=False)
        # Skip connection from post representation around the top GRU.
        self.skip_proj = Linear(embed_dim, top_hidden, rng, bias=False)
        self.top_norm = LayerNorm(top_hidden)
        self.attention = TimeAwareAttention(top_hidden, time_dim, rng)
        self.dropout = Dropout(dropout, rng)
        self.classifier = Linear(top_hidden, NUM_CLASSES, rng)

    def forward(
        self,
        ids: np.ndarray,
        token_mask: np.ndarray,
        post_mask: np.ndarray,
        time_feats: np.ndarray,
    ) -> Tensor:
        batch, num_posts, num_tokens = ids.shape
        flat_ids = ids.reshape(batch * num_posts, num_tokens)
        flat_mask = token_mask.reshape(batch * num_posts, num_tokens)
        tokens = self.embed(flat_ids)  # (B·W, L, D)
        _, post_state = self.bottom(tokens, mask=flat_mask)  # (B·W, 2H)
        post_vec = self.bottom_proj(post_state)  # (B·W, D)
        # Residual from the mean token embedding, then layer norm.
        weights = Tensor(flat_mask[:, :, None])
        mean_embed = (tokens * weights).sum(axis=1) / Tensor(
            np.maximum(flat_mask.sum(axis=1, keepdims=True), 1.0)
        )
        post_vec = self.bottom_norm(post_vec + mean_embed)
        post_seq = post_vec.reshape(batch, num_posts, -1)

        top_out, _ = self.top(post_seq, mask=post_mask)  # (B, W, H)
        top_out = self.top_norm(top_out + self.skip_proj(post_seq))
        pooled = self.attention(top_out, time_feats, post_mask)
        return self.classifier(self.dropout(pooled))


class HiGRU(RiskModel):
    """The §III-A3 baseline wrapped in the common RiskModel interface."""

    name = "HiGRU"

    def __init__(
        self,
        trainer: TrainerConfig | None = None,
        embed_dim: int = 64,
        bottom_hidden: int = 48,
        top_hidden: int = 64,
        max_vocab: int = 3000,
        max_posts: int = 5,
        max_tokens: int = 40,
        dropout: float = 0.1,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.trainer = trainer or TrainerConfig(
            epochs=18, lr=3e-3, patience=6, seed=seed
        )
        self.embed_dim = embed_dim
        self.bottom_hidden = bottom_hidden
        self.top_hidden = top_hidden
        self.max_posts = max_posts
        self.max_tokens = max_tokens
        self.dropout = dropout
        self.seed = seed
        self.pipeline = TextPipeline(
            max_vocab=max_vocab, max_tokens_per_post=max_tokens
        )
        self.network: HiGRUNetwork | None = None

    def _forward(self, encoded: EncodedWindows, idx: np.ndarray) -> Tensor:
        ids, token_mask, post_mask = collate_post_grid(
            encoded, idx, self.pipeline.vocab.pad_id, self.max_posts, self.max_tokens
        )
        time_feats, _, _ = collate_time(encoded, idx, self.max_posts)
        return self.network(ids, token_mask, post_mask, time_feats)

    def _fit(self, train: list[PostWindow], validation: list[PostWindow]) -> None:
        self.pipeline.fit(train)
        rng = SeedSequenceRegistry(self.seed).get("higru-init")
        self.network = HiGRUNetwork(
            vocab_size=len(self.pipeline.vocab),
            time_dim=self.pipeline.time_dim,
            rng=rng,
            embed_dim=self.embed_dim,
            bottom_hidden=self.bottom_hidden,
            top_hidden=self.top_hidden,
            pad_id=self.pipeline.vocab.pad_id,
            dropout=self.dropout,
        )
        encoded_train = self.pipeline.encode(train)
        encoded_val = self.pipeline.encode(validation) if validation else None
        self.history = train_classifier(
            self.network, self._forward, encoded_train, encoded_val, self.trainer
        )

    def _predict(self, windows: list[PostWindow]) -> np.ndarray:
        encoded = self.pipeline.encode(windows)
        return predict_classifier(self.network, self._forward, encoded)

    def _predict_proba(self, windows: list[PostWindow]) -> np.ndarray:
        encoded = self.pipeline.encode(windows)
        return predict_proba_classifier(self.network, self._forward, encoded)
