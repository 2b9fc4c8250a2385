"""Tests for the RSD-15K label schema."""

import pytest

from repro.core.errors import SchemaError
from repro.core.schema import (
    ALL_LEVELS,
    ANNOTATION_GUIDELINE,
    NUM_CLASSES,
    TABLE1_DISTRIBUTION,
    LabelDistribution,
    RiskLevel,
)


class TestRiskLevel:
    def test_ordering_by_severity(self):
        assert (
            RiskLevel.INDICATOR
            < RiskLevel.IDEATION
            < RiskLevel.BEHAVIOR
            < RiskLevel.ATTEMPT
        )

    def test_four_classes(self):
        assert NUM_CLASSES == 4
        assert len(ALL_LEVELS) == 4

    def test_short_codes_match_paper(self):
        assert RiskLevel.INDICATOR.short == "IN"
        assert RiskLevel.IDEATION.short == "ID"
        assert RiskLevel.BEHAVIOR.short == "BR"
        assert RiskLevel.ATTEMPT.short == "AT"

    def test_label_capitalisation(self):
        assert RiskLevel.ATTEMPT.label == "Attempt"

    def test_from_any_int(self):
        assert RiskLevel.from_any(2) is RiskLevel.BEHAVIOR

    def test_from_any_name(self):
        assert RiskLevel.from_any("ideation") is RiskLevel.IDEATION
        assert RiskLevel.from_any("  ATTEMPT ") is RiskLevel.ATTEMPT

    def test_from_any_short_code(self):
        assert RiskLevel.from_any("br") is RiskLevel.BEHAVIOR
        assert RiskLevel.from_any("IN") is RiskLevel.INDICATOR

    def test_from_any_identity(self):
        assert RiskLevel.from_any(RiskLevel.IDEATION) is RiskLevel.IDEATION

    @pytest.mark.parametrize("bad", [7, -1, "unknown", 2.5, None, True])
    def test_from_any_rejects_garbage(self, bad):
        with pytest.raises(SchemaError):
            RiskLevel.from_any(bad)


class TestGuideline:
    def test_every_level_has_a_criterion(self):
        covered = {criterion.level for criterion in ANNOTATION_GUIDELINE}
        assert covered == set(ALL_LEVELS)

    def test_indicator_covers_third_party(self):
        criterion = next(
            c for c in ANNOTATION_GUIDELINE if c.level is RiskLevel.INDICATOR
        )
        assert any("third" in inc for inc in criterion.includes)


class TestTable1Distribution:
    def test_sums_to_one(self):
        assert abs(sum(TABLE1_DISTRIBUTION.values()) - 1.0) < 1e-9

    def test_ideation_is_largest(self):
        assert max(TABLE1_DISTRIBUTION, key=TABLE1_DISTRIBUTION.get) is (
            RiskLevel.IDEATION
        )

    def test_attempt_is_smallest(self):
        assert min(TABLE1_DISTRIBUTION, key=TABLE1_DISTRIBUTION.get) is (
            RiskLevel.ATTEMPT
        )


class TestLabelDistribution:
    def test_from_labels_counts(self):
        dist = LabelDistribution.from_labels(["IN", "ID", "ID", 3])
        assert dist.counts[RiskLevel.IDEATION] == 2
        assert dist.counts[RiskLevel.ATTEMPT] == 1
        assert dist.total == 4

    def test_fraction(self):
        dist = LabelDistribution.from_labels(["IN", "IN", "AT", "ID"])
        assert dist.fraction("IN") == pytest.approx(0.5)

    def test_empty_distribution(self):
        dist = LabelDistribution.from_labels([])
        assert dist.total == 0
        assert dist.fraction("IN") == 0.0

    def test_as_rows_order_matches_paper(self):
        dist = LabelDistribution.from_labels(["IN", "ID", "BR", "AT"])
        names = [row[0] for row in dist.as_rows()]
        assert names == ["Attempt", "Behavior", "Ideation", "Indicator"]

    def test_as_rows_percentages(self):
        dist = LabelDistribution.from_labels(["IN", "IN", "ID", "ID"])
        rows = {name: pct for name, _, pct in dist.as_rows()}
        assert rows["Indicator"] == pytest.approx(50.0)
        assert rows["Attempt"] == pytest.approx(0.0)
