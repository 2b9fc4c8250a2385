"""Tests for deterministic RNG stream management."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.core.rng import (
    DEFAULT_SEED,
    ScalarDraws,
    SeedSequenceRegistry,
    derive_seed,
    stream,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "corpus") == derive_seed(42, "corpus")

    def test_name_sensitivity(self):
        assert derive_seed(42, "corpus") != derive_seed(42, "model")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "corpus") != derive_seed(2, "corpus")

    def test_range_is_64_bit(self):
        assert 0 <= derive_seed(0, "x") < 2**64


class TestStream:
    def test_same_stream_same_draws(self):
        a = stream(7, "alpha").random(5)
        b = stream(7, "alpha").random(5)
        assert (a == b).all()

    def test_different_names_different_draws(self):
        a = stream(7, "alpha").random(5)
        b = stream(7, "beta").random(5)
        assert not (a == b).all()


class TestRegistry:
    def test_get_caches_generator(self):
        reg = SeedSequenceRegistry(3)
        g1 = reg.get("x")
        g1.random(10)  # consume
        assert reg.get("x") is g1

    def test_fresh_resets_stream(self):
        reg = SeedSequenceRegistry(3)
        first = reg.get("x").random(3)
        second = reg.fresh("x").random(3)
        assert (first == second).all()

    def test_spawn_independent(self):
        reg = SeedSequenceRegistry(3)
        child = reg.spawn("child")
        assert child.seed != reg.seed
        a = reg.get("x").random(3)
        b = child.get("x").random(3)
        assert not (a == b).all()

    def test_default_seed_used(self):
        assert SeedSequenceRegistry().seed == DEFAULT_SEED


# -- ScalarDraws: numpy's own Generator is the reference ---------------------

#: ``None`` is a ``random()`` call, an int ``k`` an ``integers(k)`` call.
_DRAW = st.one_of(
    st.none(),
    st.sampled_from([1, 2, 3, 7, 10, 2**31 + 1, 3 * 2**30, 2**32]),
    st.integers(1, 2**32),
)


def _small_blocks(block):
    """The decoder with ``block`` words per refill, to cross blocks often."""
    return type("SmallBlocks", (ScalarDraws,), {"BLOCK": block})


def _numpy_draws(generator, calls):
    return [
        generator.random() if k is None else int(generator.integers(k))
        for k in calls
    ]


def _decoded(draws, calls):
    return [draws.random() if k is None else draws.integers(k) for k in calls]


def _assert_same_state(generator, reference):
    got, want = generator.bit_generator.state, reference.bit_generator.state
    assert got["state"] == want["state"]  # the LCG state and its increment
    assert got["has_uint32"] == want["has_uint32"]
    if want["has_uint32"]:
        assert got["uinteger"] == want["uinteger"]


class TestScalarDraws:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**63),
        block=st.integers(1, 9),
        prefix=st.lists(st.sampled_from([None, 5]), max_size=3),
        calls=st.lists(_DRAW, max_size=80),
    )
    def test_mixed_draws_and_end_state_equal_numpy(self, seed, block, prefix, calls):
        # ``prefix`` draws on numpy first, so the decoder may start with
        # a half already buffered in the bit generator.
        generator = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        _numpy_draws(generator, prefix)
        _numpy_draws(reference, prefix)
        draws = _small_blocks(block)(generator)
        assert _decoded(draws, calls) == _numpy_draws(reference, calls)
        draws.close()
        _assert_same_state(generator, reference)
        assert generator.random() == reference.random()
        assert int(generator.integers(7)) == int(reference.integers(7))
        np.testing.assert_array_equal(
            generator.integers(1000, size=9), reference.integers(1000, size=9)
        )

    @pytest.mark.parametrize("k", [2**31 + 1, 3 * 2**30])
    def test_rejection_heavy_bounds(self, k):
        # About half (2**31 + 1) and a quarter (3 * 2**30) of the halves
        # are rejected, so redraws, also across blocks, are frequent.
        generator, reference = np.random.default_rng(11), np.random.default_rng(11)
        calls = [k, None] * 1500
        draws = ScalarDraws(generator)
        assert _decoded(draws, calls) == _numpy_draws(reference, calls)
        draws.close()
        _assert_same_state(generator, reference)

    def test_k_one_is_zero_and_consumes_nothing(self):
        generator, reference = np.random.default_rng(3), np.random.default_rng(3)
        draws = ScalarDraws(generator)
        assert [draws.integers(1) for _ in range(5)] == [0] * 5
        draws.close()
        _assert_same_state(generator, reference)
        draws = ScalarDraws(generator)
        assert [draws.integers(1), draws.integers(9), draws.integers(1)] == [
            0, int(reference.integers(9)), 0
        ]
        draws.close()
        _assert_same_state(generator, reference)

    def test_block_edge_with_a_half_buffered(self):
        # The last word of a block is split by integers(); its high half
        # serves the first bounded draw after a random() refills.
        generator, reference = np.random.default_rng(8), np.random.default_rng(8)
        calls = [None] * (ScalarDraws.BLOCK - 1) + [6, None, 6, 6]
        draws = ScalarDraws(generator)
        assert _decoded(draws, calls) == _numpy_draws(reference, calls)
        draws.close()
        _assert_same_state(generator, reference)
        assert generator.bit_generator.state["has_uint32"] == 1

    def test_start_state_with_a_buffered_half(self):
        generator, reference = np.random.default_rng(9), np.random.default_rng(9)
        generator.integers(5)
        reference.integers(5)
        assert generator.bit_generator.state["has_uint32"] == 1
        draws = ScalarDraws(generator)
        assert draws.integers(1000) == int(reference.integers(1000))
        draws.close()
        _assert_same_state(generator, reference)

    def test_rejects_other_bit_generators(self):
        with pytest.raises(ConfigError):
            ScalarDraws(np.random.Generator(np.random.Philox(1)))
        with pytest.raises(ConfigError):
            ScalarDraws(np.random.Generator(np.random.PCG64DXSM(1)))

    @pytest.mark.parametrize("k", [0, -3, 2**32 + 1])
    def test_rejects_bounds_outside_32_bits(self, k):
        with pytest.raises(ConfigError):
            ScalarDraws(np.random.default_rng(0)).integers(k)

    def test_closed_decoder_draws_nothing(self):
        generator = np.random.default_rng(4)
        draws = ScalarDraws(generator)
        draws.random()
        draws.close()
        state = generator.bit_generator.state
        with pytest.raises(ConfigError):
            draws.random()
        with pytest.raises(ConfigError):
            draws.integers(6)
        draws.close()  # a second close writes nothing
        assert generator.bit_generator.state == state
