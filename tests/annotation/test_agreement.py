"""Tests for inter-annotator agreement statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annotation.agreement import (
    fleiss_kappa,
    fleiss_kappa_from_annotations,
    interpret_kappa,
    rating_matrix,
)
from repro.core.errors import AnnotationError


class TestRatingMatrix:
    def test_shape_and_counts(self):
        matrix = rating_matrix([[0, 1, 1], [2, 2, 2]])
        assert matrix.shape == (2, 4)
        assert matrix[0].tolist() == [1, 2, 0, 0]
        assert matrix[1].tolist() == [0, 0, 3, 0]

    def test_rejects_empty(self):
        with pytest.raises(AnnotationError):
            rating_matrix([])

    def test_rejects_single_rater(self):
        with pytest.raises(AnnotationError):
            rating_matrix([[1]])

    def test_rejects_ragged(self):
        with pytest.raises(AnnotationError):
            rating_matrix([[0, 1], [1]])


class TestFleissKappa:
    def test_perfect_agreement(self):
        matrix = rating_matrix([[1, 1, 1]] * 10 + [[2, 2, 2]] * 10)
        assert fleiss_kappa(matrix) == pytest.approx(1.0)

    def test_fleiss_1971_worked_example(self):
        # The classic example from Fleiss (1971): 10 subjects, 14 raters,
        # 5 categories; published kappa = 0.210.
        table = np.array(
            [
                [0, 0, 0, 0, 14],
                [0, 2, 6, 4, 2],
                [0, 0, 3, 5, 6],
                [0, 3, 9, 2, 0],
                [2, 2, 8, 1, 1],
                [7, 7, 0, 0, 0],
                [3, 2, 6, 3, 0],
                [2, 5, 3, 2, 2],
                [6, 5, 2, 1, 0],
                [0, 2, 2, 3, 7],
            ]
        )
        assert fleiss_kappa(table) == pytest.approx(0.2099, abs=1e-3)

    def test_systematic_disagreement_is_negative(self):
        matrix = rating_matrix([[0, 1], [1, 0], [0, 1], [1, 0]])
        assert fleiss_kappa(matrix) < 0.0

    def test_unequal_raters_rejected(self):
        bad = np.array([[3, 0], [2, 2]])
        with pytest.raises(AnnotationError):
            fleiss_kappa(bad)

    def test_degenerate_single_category(self):
        matrix = rating_matrix([[1, 1, 1]] * 5)
        assert fleiss_kappa(matrix) == 1.0

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 3), min_size=3, max_size=3),
            min_size=2,
            max_size=40,
        )
    )
    def test_bounded_above_by_one(self, ratings):
        kappa = fleiss_kappa_from_annotations(ratings)
        assert kappa <= 1.0 + 1e-9


class TestInterpretation:
    @pytest.mark.parametrize(
        "kappa,band",
        [
            (-0.2, "poor"),
            (0.1, "slight"),
            (0.3, "fair"),
            (0.5, "moderate"),
            (0.7206, "substantial"),
            (0.9, "almost perfect"),
        ],
    )
    def test_landis_koch_bands(self, kappa, band):
        assert interpret_kappa(kappa) == band
