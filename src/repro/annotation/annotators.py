"""Simulated annotators with psychologically plausible error structure.

Each annotator carries a per-class confusion matrix: when they err, they
err preferentially toward *adjacent* severity levels (Ideation is confused
with Behavior far more often than with Attempt), which is what drives
realistic — rather than uniform-noise — disagreement patterns and hence a
realistic Fleiss' κ.

Annotators also have an *uncertainty* channel: ambiguous items are left
unlabelled and reported to the supervisors (the paper's uncertainty
reporting policy), instead of being guessed at.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.schema import NUM_CLASSES, RiskLevel

#: Relative propensity of confusing class i with class j (off-diagonal),
#: decaying with severity distance.
ADJACENCY_DECAY = 0.35

#: Generator.choice's tolerance on the sum of ``p``.
_ROW_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def confusion_matrix(accuracy: float, skill_jitter: float = 0.0) -> np.ndarray:
    """Row-stochastic confusion matrix with the given diagonal accuracy.

    Off-diagonal mass decays geometrically with the distance between
    severity levels: ``P(j | i) ∝ ADJACENCY_DECAY**(|i-j|-1)`` for j ≠ i.
    ``skill_jitter`` perturbs the diagonal per class (clipped to [0.5, 1)).
    """
    if not 0.0 < accuracy <= 1.0:
        raise ValueError(f"accuracy must be in (0, 1], got {accuracy}")
    matrix = np.zeros((NUM_CLASSES, NUM_CLASSES))
    for i in range(NUM_CLASSES):
        diag = float(np.clip(accuracy + skill_jitter, 0.5, 0.999))
        weights = np.array(
            [
                0.0 if j == i else ADJACENCY_DECAY ** (abs(i - j) - 1)
                for j in range(NUM_CLASSES)
            ]
        )
        weights = weights / weights.sum() * (1.0 - diag)
        matrix[i] = weights
        matrix[i, i] = diag
    # The checks Generator.choice would make of every row drawn from;
    # draw_class skips them.
    if not (
        np.isfinite(matrix).all()
        and (matrix >= 0.0).all()
        and np.allclose(matrix.sum(axis=1), 1.0, rtol=0.0, atol=_ROW_ATOL)
    ):
        raise ValueError("confusion matrix rows must be probability vectors")
    return matrix


def draw_class(rng: np.random.Generator, row: np.ndarray) -> int:
    """``rng.choice(NUM_CLASSES, p=row)``, drawn by numpy's own steps.

    ``choice`` normalises the cumulative sum of ``p`` and searches one
    uniform draw in it, after checks of ``p`` that take most of its time.
    The same steps here give the same class and leave ``rng`` in the same
    state. ``row`` must be a probability vector, which
    :func:`confusion_matrix` checks where the rows are built.
    """
    cdf = row.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def draw_class_reference(rng: np.random.Generator, row: np.ndarray) -> int:
    """Reference twin of :func:`draw_class`: ``Generator.choice`` itself."""
    return int(rng.choice(NUM_CLASSES, p=row))


@dataclass
class Judgement:
    """Outcome of asking one annotator about one item."""

    label: RiskLevel | None  # None = reported as uncertain
    uncertain: bool


class SimulatedAnnotator:
    """One annotator: a name, a confusion matrix, an uncertainty habit.

    Parameters
    ----------
    name:
        Display name (e.g. ``"annotator-1"``).
    accuracy:
        Probability of producing the true label on unambiguous items.
    uncertainty_rate:
        Probability of escalating an item via the uncertainty policy
        instead of labelling it. Scaled up on high-ambiguity items.
    rng:
        Private random stream.
    """

    def __init__(
        self,
        name: str,
        accuracy: float,
        uncertainty_rate: float,
        rng: np.random.Generator,
        skill_jitter: float = 0.0,
    ) -> None:
        self.name = name
        self.accuracy = accuracy
        self.uncertainty_rate = uncertainty_rate
        self._rng = rng
        self._confusion = confusion_matrix(accuracy, skill_jitter)
        self.items_labelled = 0
        self.items_escalated = 0

    def annotate(self, true_label: RiskLevel, ambiguity: float = 0.0) -> Judgement:
        """Label one item whose simulation ground truth is ``true_label``.

        ``ambiguity`` in [0, 1] raises both the escalation probability and
        the error rate: truly ambiguous posts are precisely the ones
        annotators disagree on and report upward.
        """
        if not 0.0 <= ambiguity <= 1.0:
            raise ValueError(f"ambiguity must be in [0, 1], got {ambiguity}")
        escalate_p = min(0.95, self.uncertainty_rate * (1.0 + 6.0 * ambiguity))
        if self._rng.random() < escalate_p:
            self.items_escalated += 1
            return Judgement(label=None, uncertain=True)
        row = self._confusion[int(true_label)]
        if ambiguity > 0:
            # Ambiguity flattens the judgement distribution.
            row = (1.0 - 0.5 * ambiguity) * row + 0.5 * ambiguity / NUM_CLASSES
            row = row / row.sum()
        choice = draw_class(self._rng, row)
        self.items_labelled += 1
        return Judgement(label=RiskLevel(choice), uncertain=False)

    def relabel_after_review(
        self, true_label: RiskLevel, review_rounds: int = 1
    ) -> RiskLevel:
        """Label again after expert feedback.

        Each review round halves the residual error rate, so repeated
        review-and-reannotate cycles converge past any accuracy gate —
        matching the paper's "this process continues until the accuracy
        reaches 95%".
        """
        residual = (1.0 - self.accuracy) * 0.5 ** max(1, review_rounds)
        boosted = min(0.998, 1.0 - residual)
        if self._rng.random() < boosted:
            return true_label
        row = self._confusion[int(true_label)].copy()
        row[int(true_label)] = 0.0
        row = row / row.sum()
        return RiskLevel(draw_class(self._rng, row))


class ExpertSupervisor:
    """A supervisor/expert: near-oracle accuracy, used for gold standards,
    joint decisions on escalated items, and daily inspections."""

    def __init__(self, name: str, rng: np.random.Generator, accuracy: float = 0.985):
        self.name = name
        self.accuracy = accuracy
        self._rng = rng

    def decide(self, true_label: RiskLevel) -> RiskLevel:
        """Expert judgement on an item (joint supervisor decision)."""
        if self._rng.random() < self.accuracy:
            return true_label
        others = [l for l in RiskLevel if l != true_label]
        return others[int(self._rng.integers(len(others)))]
