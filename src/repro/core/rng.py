"""Deterministic random-number management.

All stochastic components of the library (corpus generation, annotator
simulation, model initialisation, data shuffling) draw from
:class:`numpy.random.Generator` instances derived from a single seed via
named streams, so that fixing one integer makes the entire pipeline —
including every experiment in the paper-reproduction harness —
bit-reproducible while keeping the subsystems statistically independent.
"""

from __future__ import annotations

import hashlib
from operator import length_hint

import numpy as np

from repro.core.errors import ConfigError

#: Seed used by the paper-reproduction experiments when none is given.
DEFAULT_SEED = 15_000


def derive_seed(seed: int, name: str) -> int:
    """Derive a stable 64-bit sub-seed for a named stream.

    The derivation hashes ``(seed, name)`` with SHA-256 so that streams for
    different names are statistically independent and insensitive to the
    order in which they are created.
    """
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed: int, name: str) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for the named stream."""
    return np.random.default_rng(derive_seed(seed, name))


class SeedSequenceRegistry:
    """Hands out independent generators derived from one master seed.

    Example
    -------
    >>> reg = SeedSequenceRegistry(seed=7)
    >>> corpus_rng = reg.get("corpus")
    >>> model_rng = reg.get("model-init")
    """

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self.seed = int(seed)
        self._generators: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object, so consumption of randomness is shared within a stream.
        """
        if name not in self._generators:
            self._generators[name] = stream(self.seed, name)
        return self._generators[name]

    def fresh(self, name: str) -> np.random.Generator:
        """Return a brand-new generator for ``name`` (resets the stream)."""
        self._generators[name] = stream(self.seed, name)
        return self._generators[name]

    def spawn(self, name: str) -> "SeedSequenceRegistry":
        """Create a child registry whose master seed derives from ``name``."""
        return SeedSequenceRegistry(derive_seed(self.seed, name) % (2**31))


_U32_MASK = 0xFFFF_FFFF
_U32_SPAN = 0x1_0000_0000
_TWO_POW_M53 = 2.0**-53


class ScalarDraws:
    """Numpy's scalar ``random()`` and ``integers(k)``, decoded from raw
    PCG64 words drawn in blocks.

    A scalar numpy draw costs about a microsecond of call overhead; this
    decoder pulls :attr:`BLOCK` 64-bit words at a time with
    ``bit_generator.random_raw`` and repeats numpy's own arithmetic on
    them in Python, so a data-dependent interleave of the two calls gets
    the values numpy's scalar calls would return, bit for bit:

    * ``random()`` is ``(w >> 11) * 2**-53`` of the next word;
    * ``integers(k)`` is numpy's bounded Lemire draw (Lemire, "Fast
      Random Integer Generation in an Interval", ACM TOMACS 2019) on
      32-bit halves. A fresh word gives its low half and buffers its
      high half for the next bounded draw, as the bit generator's
      ``has_uint32``/``uinteger`` pair does (a half already buffered
      there is used first). A product ``m = u * k`` whose low 32 bits
      fall below ``(2**32 - k) % k`` is rejected and redrawn.
      ``integers(1)`` is 0 and consumes nothing.

    Only a PCG64 generator and the one-argument ``integers(k)`` with
    ``1 <= k <= 2**32`` are decoded; anything else raises
    :class:`ConfigError`. The generator must not be drawn from directly
    while the decoder is open: its state runs ahead by up to one block.
    :meth:`close` writes back the state the scalar calls would have left
    (the start state advanced by the words consumed, plus the buffered
    half), after which the decoder draws nothing more.
    """

    #: Words drawn per ``random_raw`` call: about 45 kB of Python ints.
    BLOCK = 1024

    def __init__(self, generator: np.random.Generator) -> None:
        bit_generator = generator.bit_generator
        if type(bit_generator) is not np.random.PCG64:
            raise ConfigError(
                f"ScalarDraws decodes PCG64 only, got {type(bit_generator).__name__}"
            )
        self._bit_generator: np.random.PCG64 | None = bit_generator
        self._start = bit_generator.state
        self._half: int | None = (
            self._start["uinteger"] if self._start["has_uint32"] else None
        )
        self._read = 0
        self._words = iter(())

    def _refill(self) -> int:
        if self._bit_generator is None:
            raise ConfigError("ScalarDraws is closed")
        self._words = iter(self._bit_generator.random_raw(self.BLOCK).tolist())
        self._read += self.BLOCK
        return next(self._words)

    def _next_half(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        try:
            word = next(self._words)
        except StopIteration:
            word = self._refill()
        self._half = word >> 32
        return word & _U32_MASK

    def random(self) -> float:
        """The next ``Generator.random()``: a float in [0, 1)."""
        try:
            word = next(self._words)
        except StopIteration:
            word = self._refill()
        return (word >> 11) * _TWO_POW_M53

    def integers(self, k: int) -> int:
        """The next ``Generator.integers(k)``: an int in [0, k)."""
        if k <= 1 or k > _U32_SPAN:
            if k == 1:
                return 0
            raise ConfigError(f"ScalarDraws decodes 1 <= k <= 2**32, got {k}")
        # _next_half inlined: this is the build's hottest call.
        half = self._half
        if half is None:
            try:
                word = next(self._words)
            except StopIteration:
                word = self._refill()
            self._half = word >> 32
            m = (word & _U32_MASK) * k
        else:
            self._half = None
            m = half * k
        if (m & _U32_MASK) < k:
            threshold = (_U32_SPAN - k) % k
            while (m & _U32_MASK) < threshold:
                m = self._next_half() * k
        return m >> 32

    def close(self) -> None:
        """Write the generator's state back as the scalar calls leave it."""
        bit_generator = self._bit_generator
        if bit_generator is None:
            return
        bit_generator.state = self._start
        bit_generator.advance(self._read - length_hint(self._words))
        state = bit_generator.state
        state["has_uint32"] = int(self._half is not None)
        state["uinteger"] = self._half or 0
        bit_generator.state = state
        self._bit_generator = None
        self._half = None
        self._words = iter(())
