"""State-dict round trips for complete model networks.

``load_state_dict(state_dict())`` is how early stopping checkpoints and
restores the best epoch's weights; it must restore them bitwise.
"""

import numpy as np
import pytest

from repro.models import PLMConfig, TrainerConfig
from repro.models.bilstm import BiLSTMNetwork
from repro.models.deberta import DebertaRiskNetwork
from repro.models.higru import HiGRUNetwork
from repro.models.roberta import RobertaRiskNetwork

CONFIG = PLMConfig(dim=16, num_layers=1, num_heads=2, ffn_hidden=32, max_len=24)


def fresh(cls, seed, **kw):
    return cls(rng=np.random.default_rng(seed), **kw)


@pytest.mark.parametrize(
    "builder",
    [
        lambda s: fresh(BiLSTMNetwork, s, vocab_size=60, time_dim=21,
                        embed_dim=16, hidden_dim=16),
        lambda s: fresh(HiGRUNetwork, s, vocab_size=60, time_dim=21,
                        embed_dim=16, bottom_hidden=8, top_hidden=16),
        lambda s: fresh(RobertaRiskNetwork, s, vocab_size=60, time_dim=21,
                        config=CONFIG),
        lambda s: fresh(DebertaRiskNetwork, s, vocab_size=60, time_dim=21,
                        config=CONFIG),
    ],
    ids=["bilstm", "higru", "roberta", "deberta"],
)
class TestNetworkCheckpointRoundtrip:
    def test_roundtrip_restores_all_parameters(self, builder):
        source = builder(1)
        target = builder(2)
        target.load_state_dict(source.state_dict())
        for (name_a, param_a), (name_b, param_b) in zip(
            source.named_parameters(), target.named_parameters()
        ):
            assert name_a == name_b
            np.testing.assert_array_equal(param_a.data, param_b.data)

    def test_roundtrip_restores_outputs(self, builder):
        source = builder(1)
        target = builder(2)
        source.eval()
        target.eval()
        rng = np.random.default_rng(0)

        def run(net):
            if isinstance(net, (RobertaRiskNetwork, DebertaRiskNetwork)):
                ids = rng.integers(5, 60, size=(2, 10))
                mask = np.ones((2, 10))
                feats = rng.normal(size=(2, 3, 21))
                post_mask = np.ones((2, 3))
                hours = np.arange(3, dtype=float)[None, :].repeat(2, axis=0)
                return net(ids, mask, feats, post_mask, hours).data
            ids = rng.integers(5, 60, size=(2, 3, 8))
            token_mask = np.ones((2, 3, 8))
            post_mask = np.ones((2, 3))
            feats = rng.normal(size=(2, 3, 21))
            return net(ids, token_mask, post_mask, feats).data

        rng = np.random.default_rng(0)
        out_source = run(source)
        target.load_state_dict(source.state_dict())
        rng = np.random.default_rng(0)
        out_target = run(target)
        np.testing.assert_array_equal(out_source, out_target)
