"""Static word embeddings: skip-gram with negative sampling (SGNS).

The paper's RNN baselines start from pretrained word vectors (its XGBoost
reference uses fastText embeddings). Since no pretrained vectors can be
downloaded in this environment, this module trains word2vec-style SGNS
embeddings on the in-domain unannotated corpus, in pure numpy — they can
then seed the BiLSTM/HiGRU embedding tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.tensor import scatter_add_rows
from repro.text.tokenizer import WordTokenizer
from repro.text.vocab import Vocabulary


@dataclass
class SGNSConfig:
    """Skip-gram training parameters."""

    dim: int = 64
    window: int = 3
    negatives: int = 5
    epochs: int = 2
    lr: float = 0.025
    min_lr: float = 1e-4
    batch_size: int = 512
    seed: int = 0


@dataclass
class SGNSResult:
    """Training trace."""

    losses: list[float] = field(default_factory=list)
    pairs_seen: int = 0


class SkipGramEmbeddings:
    """Trainable SGNS embeddings over a :class:`Vocabulary`.

    Usage
    -----
    >>> emb = SkipGramEmbeddings(vocab, SGNSConfig(dim=32))
    >>> emb.train(token_id_sequences)
    >>> emb.vectors.shape
    (len(vocab), 32)
    """

    def __init__(self, vocab: Vocabulary, config: SGNSConfig | None = None):
        self.vocab = vocab
        self.config = config or SGNSConfig()
        rng = np.random.default_rng(self.config.seed)
        v = len(vocab.tokens())
        d = self.config.dim
        self.vectors = (rng.random((v, d)) - 0.5) / d  # input vectors
        self._context = np.zeros((v, d))                # output vectors
        self._rng = rng
        self._unigram_table: np.ndarray | None = None

    # -- corpus statistics ----------------------------------------------------

    def _build_noise_distribution(self, sequences: list[list[int]]) -> None:
        counts = np.zeros(len(self.vocab.tokens()))
        for seq in sequences:
            for token_id in seq:
                counts[token_id] += 1
        counts[: 5] = 0  # never sample special tokens as negatives
        powered = counts**0.75
        total = powered.sum()
        if total == 0:
            raise ValueError("corpus contains no trainable tokens")
        self._noise_probs = powered / total

    # -- training ----------------------------------------------------------------

    def _pairs(self, sequences: list[list[int]]):
        """Yield (centre, context) id arrays, shuffled per epoch."""
        window = self.config.window
        centres, contexts = [], []
        for seq in sequences:
            arr = np.asarray(seq, dtype=np.int64)
            for i in range(len(arr)):
                span = self._rng.integers(1, window + 1)
                lo = max(0, i - span)
                hi = min(len(arr), i + span + 1)
                for j in range(lo, hi):
                    if j != i:
                        centres.append(arr[i])
                        contexts.append(arr[j])
        centres = np.array(centres, dtype=np.int64)
        contexts = np.array(contexts, dtype=np.int64)
        order = self._rng.permutation(len(centres))
        return centres[order], contexts[order]

    def train(self, sequences: list[list[int]]) -> SGNSResult:
        """Train in place on token-id sequences; returns the loss trace."""
        if not sequences:
            raise ValueError("no sequences to train on")
        self._build_noise_distribution(sequences)
        config = self.config
        result = SGNSResult()
        vocab_size = len(self.vocab.tokens())
        for epoch in range(config.epochs):
            centres, contexts = self._pairs(sequences)
            n = len(centres)
            steps = max(1, n // config.batch_size)
            for step in range(steps):
                sl = slice(step * config.batch_size, (step + 1) * config.batch_size)
                c_ids = centres[sl]
                o_ids = contexts[sl]
                if len(c_ids) == 0:
                    continue
                progress = (epoch * steps + step) / (config.epochs * steps)
                lr = max(config.min_lr, config.lr * (1.0 - progress))
                loss = self._sgd_batch(c_ids, o_ids, lr, vocab_size)
                result.losses.append(loss)
                result.pairs_seen += len(c_ids)
        return result

    def _sgd_batch(self, c_ids, o_ids, lr, vocab_size) -> float:
        """One negative-sampling SGD step over a pair batch."""
        k = self.config.negatives
        b = len(c_ids)
        neg_ids = self._rng.choice(vocab_size, size=(b, k), p=self._noise_probs)

        v_c = self.vectors[c_ids]            # (B, D)
        u_o = self._context[o_ids]           # (B, D)
        u_n = self._context[neg_ids]         # (B, K, D)

        pos_score = np.einsum("bd,bd->b", v_c, u_o)
        neg_score = np.einsum("bd,bkd->bk", v_c, u_n)
        pos_sig = 1.0 / (1.0 + np.exp(-pos_score))
        neg_sig = 1.0 / (1.0 + np.exp(-neg_score))

        # Gradients of -log σ(u_o·v_c) - Σ log σ(-u_n·v_c)
        g_pos = pos_sig - 1.0                     # (B,)
        g_neg = neg_sig                           # (B, K)
        grad_v = g_pos[:, None] * u_o + np.einsum("bk,bkd->bd", g_neg, u_n)
        grad_uo = g_pos[:, None] * v_c
        grad_un = g_neg[:, :, None] * v_c[:, None, :]

        scatter_add_rows(self.vectors, c_ids, -lr * grad_v)
        scatter_add_rows(self._context, o_ids, -lr * grad_uo)
        scatter_add_rows(self._context, neg_ids, -lr * grad_un)
        eps = 1e-10
        loss = -(
            np.log(pos_sig + eps).sum() + np.log(1.0 - neg_sig + eps).sum()
        ) / b
        return float(loss)


def train_embeddings(
    texts: list[str],
    vocab: Vocabulary | None = None,
    config: SGNSConfig | None = None,
) -> SkipGramEmbeddings:
    """Tokenise, build a vocabulary if needed, and train SGNS vectors."""
    tokenizer = WordTokenizer()
    documents = [tokenizer(t) for t in texts]
    if vocab is None:
        vocab = Vocabulary.build(documents, max_size=4000, min_freq=2)
    sequences = [
        [vocab.id_of(tok) for tok in doc] for doc in documents if doc
    ]
    embeddings = SkipGramEmbeddings(vocab, config)
    embeddings.train(sequences)
    return embeddings
