"""The RSD-15K label schema.

The paper adapts the Columbia Suicide Severity Rating Scale (C-SSRS) into
four ordered, mutually exclusive user/post-level risk labels:

* **Indicator (IN)** — no evidence of risk from the author (includes third
  party mentions and explicit denials).
* **Ideation (ID)** — suicidal thoughts or desires without concrete action.
* **Behavior (BR)** — preparatory acts, planning, or self-harm.
* **Attempt (AT)** — reference to a past suicide attempt.

The ordering Indicator < Ideation < Behavior < Attempt reflects increasing
severity and is relied on by the risk-evolution analyses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.errors import SchemaError


class RiskLevel(enum.IntEnum):
    """Four-level suicide risk label, ordered by severity."""

    INDICATOR = 0
    IDEATION = 1
    BEHAVIOR = 2
    ATTEMPT = 3

    @property
    def short(self) -> str:
        """Two-letter code used in the paper's tables (IN/ID/BR/AT)."""
        return _SHORT_CODES[self]

    @property
    def label(self) -> str:
        """Human-readable capitalised name, e.g. ``"Ideation"``."""
        return self.name.capitalize()

    @classmethod
    def from_any(cls, value: "RiskLevel | int | str") -> "RiskLevel":
        """Coerce an int, name, short code, or RiskLevel into a RiskLevel.

        Raises
        ------
        SchemaError
            If the value does not identify one of the four labels.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, bool):
            raise SchemaError(f"booleans are not risk levels: {value!r}")
        if isinstance(value, int):
            try:
                return cls(value)
            except ValueError as exc:
                raise SchemaError(f"invalid risk level int: {value}") from exc
        if isinstance(value, str):
            text = value.strip().upper()
            if text in _BY_SHORT:
                return _BY_SHORT[text]
            try:
                return cls[text]
            except KeyError as exc:
                raise SchemaError(f"invalid risk level name: {value!r}") from exc
        raise SchemaError(f"cannot interpret {value!r} as a RiskLevel")


_SHORT_CODES = {
    RiskLevel.INDICATOR: "IN",
    RiskLevel.IDEATION: "ID",
    RiskLevel.BEHAVIOR: "BR",
    RiskLevel.ATTEMPT: "AT",
}
_BY_SHORT = {code: level for level, code in _SHORT_CODES.items()}

#: All four labels in severity order.
ALL_LEVELS: tuple[RiskLevel, ...] = (
    RiskLevel.INDICATOR,
    RiskLevel.IDEATION,
    RiskLevel.BEHAVIOR,
    RiskLevel.ATTEMPT,
)

#: Number of classes in the task.
NUM_CLASSES = len(ALL_LEVELS)

#: Target marginal label distribution of the released dataset (Table I).
TABLE1_DISTRIBUTION: dict[RiskLevel, float] = {
    RiskLevel.ATTEMPT: 809 / 14_613,
    RiskLevel.BEHAVIOR: 2_056 / 14_613,
    RiskLevel.IDEATION: 7_133 / 14_613,
    RiskLevel.INDICATOR: 4_615 / 14_613,
}

#: Published dataset size (posts / users) from the paper.
PAPER_NUM_POSTS = 14_613
PAPER_NUM_USERS = 1_265


@dataclass(frozen=True)
class AnnotationCriterion:
    """One labelling rule from the annotation guideline (§II-B1)."""

    level: RiskLevel
    summary: str
    includes: tuple[str, ...] = ()
    excludes: tuple[str, ...] = ()


#: The guideline distilled from the paper, used to brief simulated annotators
#: and exposed so downstream users can render the codebook.
ANNOTATION_GUIDELINE: tuple[AnnotationCriterion, ...] = (
    AnnotationCriterion(
        RiskLevel.ATTEMPT,
        "The post mentions a previous suicide attempt by the author, "
        "regardless of current ideation.",
        includes=("past self-inflicted act intended to result in death",),
    ),
    AnnotationCriterion(
        RiskLevel.BEHAVIOR,
        "Preparatory acts or behaviours associated with self-harm or "
        "planning an attempt; goes beyond verbalisation.",
        includes=(
            "acquiring means",
            "writing a farewell note",
            "preparing for death",
            "self-harm without explicit lethal intent",
        ),
    ),
    AnnotationCriterion(
        RiskLevel.IDEATION,
        "Suicidal thoughts or desires without concrete actions.",
        includes=(
            "passive death wish",
            "active wish to end one's life",
            "hypothetical or unrealistic plans",
        ),
    ),
    AnnotationCriterion(
        RiskLevel.INDICATOR,
        "No suicidal risk from the author.",
        includes=(
            "third-party risk mentions",
            "explicit denial of intent",
            "concern about another person",
        ),
    ),
)


@dataclass(frozen=True)
class LabelDistribution:
    """Counts per risk level with convenience accessors."""

    counts: dict[RiskLevel, int] = field(default_factory=dict)

    @classmethod
    def from_labels(cls, labels) -> "LabelDistribution":
        """Tally an iterable of labels (any coercible representation)."""
        counts = {level: 0 for level in ALL_LEVELS}
        for raw in labels:
            counts[RiskLevel.from_any(raw)] += 1
        return cls(counts=counts)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fraction(self, level: RiskLevel | int | str) -> float:
        """Fraction of samples carrying ``level`` (0.0 if empty)."""
        if self.total == 0:
            return 0.0
        return self.counts.get(RiskLevel.from_any(level), 0) / self.total

    def as_rows(self) -> list[tuple[str, int, float]]:
        """Rows of (label, count, percentage) in the paper's Table I order."""
        order = (
            RiskLevel.ATTEMPT,
            RiskLevel.BEHAVIOR,
            RiskLevel.IDEATION,
            RiskLevel.INDICATOR,
        )
        return [
            (level.label, self.counts.get(level, 0), 100.0 * self.fraction(level))
            for level in order
        ]
