"""A small numpy autograd/NN framework (the paper's "PyTorch" substrate)."""

from repro.nn.attention import (
    DisentangledSelfAttention,
    MultiHeadAttention,
    TemporalDecayAttention,
    relative_position_index,
)
from repro.nn.data import pad_sequences
from repro.nn.layers import (
    GELU,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
)
from repro.nn.losses import IGNORE_INDEX, cross_entropy
from repro.nn.module import Module, ModuleList, Parameter
from repro.nn.optim import (
    Adam,
    LRSchedule,
    Optimizer,
    WarmupLinearDecay,
    clip_grad_norm,
)
from repro.nn.rnn import GRU, GRUCell, LSTM, LSTMCell
from repro.nn.tensor import Tensor, is_grad_enabled, no_grad
from repro.nn.transformer import (
    DisentangledTransformerEncoder,
    EncoderLayer,
    FeedForward,
    TransformerEncoder,
    mean_pool,
)

__all__ = [
    "DisentangledSelfAttention",
    "MultiHeadAttention",
    "TemporalDecayAttention",
    "relative_position_index",
    "pad_sequences",
    "GELU",
    "Dropout",
    "Embedding",
    "LayerNorm",
    "Linear",
    "IGNORE_INDEX",
    "cross_entropy",
    "Module",
    "ModuleList",
    "Parameter",
    "Adam",
    "LRSchedule",
    "Optimizer",
    "WarmupLinearDecay",
    "clip_grad_norm",
    "GRU",
    "GRUCell",
    "LSTM",
    "LSTMCell",
    "Tensor",
    "is_grad_enabled",
    "no_grad",
    "DisentangledTransformerEncoder",
    "EncoderLayer",
    "FeedForward",
    "TransformerEncoder",
    "mean_pool",
]
