"""Tests for the risk-evolution extension experiment."""

import numpy as np
import pytest

from repro.experiments import evolution_analysis
from repro.experiments.common import cached_build

SCALE = 0.05


@pytest.fixture(scope="module")
def figure():
    cached_build(SCALE)
    return evolution_analysis.run(SCALE)


class TestEvolutionExperiment:
    def test_transition_matrix_stochastic(self, figure):
        matrix = figure.report.transition_matrix
        sums = matrix.sum(axis=1)
        for value in sums:
            assert value == pytest.approx(1.0, abs=1e-9) or value == 0.0

    def test_persistence_dominant(self, figure):
        assert figure.persistence > 0.4

    def test_prevalence_in_unit_interval(self, figure):
        assert 0.0 <= figure.report.escalation_prevalence <= 1.0
        # A substantial share of users escalate at least once.
        assert figure.report.escalation_prevalence > 0.2

    def test_render_contains_matrix_and_summary(self, figure):
        out = evolution_analysis.render(figure)
        assert "from \\ to" in out
        assert "escalation prevalence" in out

    def test_user_total_matches_dataset(self, figure):
        dataset = cached_build(SCALE).dataset
        assert figure.report.num_users == dataset.num_users
