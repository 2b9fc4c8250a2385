"""Shared fixtures: one small corpus/dataset build per test session."""

import numpy as np
import pytest

from repro.core.config import CorpusConfig
from repro.core.pipeline import build_dataset
from repro.corpus import CorpusGenerator


@pytest.fixture(scope="session")
def small_corpus():
    """A ~5% synthetic corpus (raw, pre-annotation)."""
    return CorpusGenerator(CorpusConfig().scaled(0.05)).generate()


@pytest.fixture(scope="session")
def small_build():
    """A full ~6% dataset build (crawl → preprocess → campaign → release)."""
    return build_dataset(CorpusConfig().scaled(0.06), near_dedup=False)


@pytest.fixture(scope="session")
def small_dataset(small_build):
    return small_build.dataset


@pytest.fixture(scope="session")
def small_splits(small_dataset):
    return small_dataset.splits()


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


@pytest.fixture()
def float64_twin(monkeypatch):
    """Run ``repro.nn`` in float64, the numerical twin of its float32.

    Numerical-gradient checks, bitwise op-by-op equivalence tests and
    float64-tight tolerances run under it. Arrays built after the switch
    (parameters included) are float64; it is undone after the test.
    """
    monkeypatch.setattr("repro.nn.tensor._DTYPE", np.float64)
