"""Tests for simulated annotators and supervisors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annotation import annotators as annotators_module
from repro.annotation.annotators import (
    ExpertSupervisor,
    SimulatedAnnotator,
    confusion_matrix,
    draw_class,
    draw_class_reference,
)
from repro.core.schema import NUM_CLASSES, RiskLevel


class TestConfusionMatrix:
    def test_rows_are_distributions(self):
        matrix = confusion_matrix(0.9)
        assert matrix.shape == (NUM_CLASSES, NUM_CLASSES)
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert (matrix >= 0).all()

    def test_diagonal_equals_accuracy(self):
        matrix = confusion_matrix(0.87)
        assert np.allclose(np.diag(matrix), 0.87)

    def test_adjacent_confusion_dominates(self):
        matrix = confusion_matrix(0.8)
        # Confusing IN with ID must be likelier than IN with AT.
        assert matrix[0, 1] > matrix[0, 3]
        assert matrix[3, 2] > matrix[3, 0]

    def test_invalid_accuracy_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix(0.0)
        with pytest.raises(ValueError):
            confusion_matrix(1.2)

    def test_jitter_clipped(self):
        matrix = confusion_matrix(0.95, skill_jitter=0.5)
        assert np.diag(matrix).max() <= 0.999


class TestDrawClass:
    def test_equals_generator_choice(self):
        """Same class and same end state as ``Generator.choice`` over
        random rows, zero entries and one-hot rows included."""
        rows_rng = np.random.default_rng(0)
        fast, reference = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(2000):
            row = rows_rng.random(NUM_CLASSES) ** rows_rng.integers(1, 6)
            row[rows_rng.integers(NUM_CLASSES)] *= rows_rng.integers(0, 2)
            if rows_rng.random() < 0.05:
                row = np.eye(NUM_CLASSES)[rows_rng.integers(NUM_CLASSES)]
            row = row / row.sum()
            assert draw_class(fast, row) == draw_class_reference(reference, row)
        assert fast.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=NUM_CLASSES, max_size=NUM_CLASSES)
        .filter(lambda w: sum(w) > 1e-6),
        st.integers(0, 2**32 - 1),
    )
    def test_property_equals_generator_choice(self, weights, seed):
        row = np.array(weights) / sum(weights)
        fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            assert draw_class(fast, row) == draw_class_reference(reference, row)
        assert fast.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("accuracy", [0.6, 0.9, 0.999])
    def test_annotator_stream_equals_choice(self, accuracy, monkeypatch):
        """A whole annotator run, ambiguity and review included, labels
        and leaves its stream exactly as with ``Generator.choice``."""
        ambiguities = np.random.default_rng(1).random(400)

        def run():
            annotator = SimulatedAnnotator(
                "ann", accuracy, 0.1, np.random.default_rng(9), skill_jitter=0.02
            )
            labels = [
                annotator.annotate(RiskLevel(i % NUM_CLASSES), a).label
                for i, a in enumerate(ambiguities)
            ] + [
                annotator.relabel_after_review(RiskLevel(i % NUM_CLASSES), i % 3)
                for i in range(400)
            ]
            return labels, annotator._rng.bit_generator.state

        fast = run()
        monkeypatch.setattr(annotators_module, "draw_class", draw_class_reference)
        assert fast == run()

    def test_zero_probability_classes_never_drawn(self):
        """At an exact step of the cdf, the draw moves past classes of
        zero probability, as ``Generator.choice`` does."""

        class Uniform:
            def __init__(self, value):
                self.value = value

            def random(self):
                return self.value

        assert draw_class(Uniform(0.0), np.array([0.0, 0.5, 0.5, 0.0])) == 1
        assert draw_class(Uniform(0.5), np.array([0.5, 0.0, 0.5, 0.0])) == 2

    def test_draws_leave_the_confusion_matrix_intact(self, rng):
        annotator = SimulatedAnnotator("ann", 0.8, 0.0, rng)
        before = annotator._confusion.copy()
        for i in range(200):
            annotator.annotate(RiskLevel(i % NUM_CLASSES), (i % 3) / 2)
            annotator.relabel_after_review(RiskLevel(i % NUM_CLASSES))
        assert np.array_equal(annotator._confusion, before)

    def test_confusion_rows_are_checked(self, monkeypatch):
        monkeypatch.setattr(annotators_module, "ADJACENCY_DECAY", -0.35)
        with pytest.raises(ValueError, match="probability vectors"):
            confusion_matrix(0.9)

    @pytest.mark.parametrize("ambiguity", [-0.1, 1.5, float("nan")])
    def test_ambiguity_outside_unit_interval_rejected(self, ambiguity, rng):
        annotator = SimulatedAnnotator("ann", 0.9, 0.0, rng)
        with pytest.raises(ValueError, match="ambiguity"):
            annotator.annotate(RiskLevel.IDEATION, ambiguity)


class TestSimulatedAnnotator:
    def _annotator(self, rng, accuracy=0.9, uncertainty=0.0):
        return SimulatedAnnotator("ann", accuracy, uncertainty, rng)

    def test_empirical_accuracy(self, rng):
        annotator = self._annotator(rng, accuracy=0.9)
        hits = 0
        n = 3000
        for _ in range(n):
            judgement = annotator.annotate(RiskLevel.IDEATION)
            hits += judgement.label == RiskLevel.IDEATION
        assert abs(hits / n - 0.9) < 0.03

    def test_uncertainty_escalation_rate(self, rng):
        annotator = self._annotator(rng, uncertainty=0.2)
        escalated = sum(
            annotator.annotate(RiskLevel.BEHAVIOR).uncertain
            for _ in range(2000)
        )
        assert abs(escalated / 2000 - 0.2) < 0.04

    def test_ambiguity_raises_escalations(self, rng):
        annotator = self._annotator(rng, uncertainty=0.05)
        plain = sum(
            annotator.annotate(RiskLevel.BEHAVIOR, ambiguity=0.0).uncertain
            for _ in range(1500)
        )
        hard = sum(
            annotator.annotate(RiskLevel.BEHAVIOR, ambiguity=0.8).uncertain
            for _ in range(1500)
        )
        assert hard > plain

    def test_ambiguity_lowers_accuracy(self, rng):
        annotator = self._annotator(rng, accuracy=0.92)
        def acc(ambiguity):
            hits = 0
            for _ in range(2000):
                j = annotator.annotate(RiskLevel.IDEATION, ambiguity)
                hits += j.label == RiskLevel.IDEATION
            return hits / 2000
        assert acc(0.9) < acc(0.0)

    def test_relabel_after_review_boosts_accuracy(self, rng):
        annotator = self._annotator(rng, accuracy=0.7)
        hits = sum(
            annotator.relabel_after_review(RiskLevel.ATTEMPT) == RiskLevel.ATTEMPT
            for _ in range(2000)
        )
        assert hits / 2000 > 0.8

    def test_counters(self, rng):
        annotator = self._annotator(rng, uncertainty=0.5)
        for _ in range(100):
            annotator.annotate(RiskLevel.INDICATOR)
        assert annotator.items_labelled + annotator.items_escalated == 100


class TestExpertSupervisor:
    def test_high_accuracy(self, rng):
        expert = ExpertSupervisor("sup", rng)
        hits = sum(
            expert.decide(RiskLevel.BEHAVIOR) == RiskLevel.BEHAVIOR
            for _ in range(2000)
        )
        assert hits / 2000 > 0.96

    def test_errors_are_other_labels(self, rng):
        expert = ExpertSupervisor("sup", rng, accuracy=0.5)
        outcomes = {expert.decide(RiskLevel.INDICATOR) for _ in range(500)}
        assert RiskLevel.INDICATOR in outcomes
        assert len(outcomes) > 1
