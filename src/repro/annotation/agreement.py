"""Inter-annotator agreement statistics.

Implements Fleiss' κ (the paper's §II-C1 metric, reported as 0.7206 on the
30% jointly-labelled subset), Cohen's κ for pairwise checks, and raw
percent agreement.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.errors import AnnotationError
from repro.core.schema import NUM_CLASSES, RiskLevel


def rating_matrix(
    annotations: Sequence[Sequence[RiskLevel | int]],
    num_categories: int = NUM_CLASSES,
) -> np.ndarray:
    """Subject × category count matrix from per-subject rating lists.

    Each inner sequence holds the ratings that subject received (one per
    annotator). All subjects must have the same number of ratings for
    Fleiss' κ to be defined.
    """
    if not annotations:
        raise AnnotationError("no annotations supplied")
    n_raters = len(annotations[0])
    if n_raters < 2:
        raise AnnotationError("Fleiss' kappa requires >= 2 ratings per subject")
    matrix = np.zeros((len(annotations), num_categories), dtype=np.int64)
    for i, ratings in enumerate(annotations):
        if len(ratings) != n_raters:
            raise AnnotationError(
                f"subject {i} has {len(ratings)} ratings, expected {n_raters}"
            )
        for rating in ratings:
            matrix[i, int(rating)] += 1
    return matrix


def fleiss_kappa(matrix: np.ndarray) -> float:
    """Fleiss' κ from a subject × category count matrix.

    κ = (P̄ − P̄ₑ) / (1 − P̄ₑ), where P̄ is the mean observed pairwise
    agreement per subject and P̄ₑ the chance agreement implied by the
    marginal category proportions (Fleiss, 1971).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise AnnotationError("rating matrix must be 2-D")
    n_subjects, _ = matrix.shape
    raters_per_subject = matrix.sum(axis=1)
    if n_subjects == 0:
        raise AnnotationError("rating matrix is empty")
    n_raters = raters_per_subject[0]
    if not np.all(raters_per_subject == n_raters):
        raise AnnotationError("all subjects must have the same number of ratings")
    if n_raters < 2:
        raise AnnotationError("Fleiss' kappa requires >= 2 ratings per subject")

    p_j = matrix.sum(axis=0) / (n_subjects * n_raters)
    p_i = (np.square(matrix).sum(axis=1) - n_raters) / (n_raters * (n_raters - 1))
    p_bar = p_i.mean()
    p_e = float(np.square(p_j).sum())
    if np.isclose(p_e, 1.0):
        return 1.0  # degenerate: everyone always used one category
    return float((p_bar - p_e) / (1.0 - p_e))


def fleiss_kappa_from_annotations(
    annotations: Sequence[Sequence[RiskLevel | int]],
    num_categories: int = NUM_CLASSES,
) -> float:
    """Fleiss' κ straight from per-subject rating lists."""
    return fleiss_kappa(rating_matrix(annotations, num_categories))


def interpret_kappa(kappa: float) -> str:
    """Landis & Koch qualitative band for a κ value."""
    if kappa < 0.0:
        return "poor"
    if kappa <= 0.20:
        return "slight"
    if kappa <= 0.40:
        return "fair"
    if kappa <= 0.60:
        return "moderate"
    if kappa <= 0.80:
        return "substantial"
    return "almost perfect"
