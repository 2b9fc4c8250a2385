"""A small numpy autograd/NN framework (the paper's "PyTorch" substrate)."""

from repro.nn.attention import (
    DisentangledSelfAttention,
    MultiHeadAttention,
    TemporalDecayAttention,
    relative_position_index,
)
from repro.nn.data import (
    batches,
    pad_sequences,
)
from repro.nn.layers import (
    GELU,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.losses import IGNORE_INDEX, cross_entropy
from repro.nn.module import Module, ModuleList, Parameter
from repro.nn.optim import (
    SGD,
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
    "batches",
    "pad_sequences",
    "GELU",
    "Dropout",
    "Embedding",
    "LayerNorm",
    "Linear",
    "ReLU",
    "Sequential",
    "Tanh",
    "IGNORE_INDEX",
    "cross_entropy",
    "Module",
    "ModuleList",
    "Parameter",
    "SGD",
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
