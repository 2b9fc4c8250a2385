"""Tests for dataset-card generation."""

from repro.core.datacard import (
    DatacardOptions,
    render_datacard,
)


class TestRender:
    def test_contains_measured_statistics(self, small_dataset):
        card = render_datacard(small_dataset)
        assert str(small_dataset.num_posts) in card
        assert str(small_dataset.num_users) in card
        assert f"{small_dataset.kappa:.4f}" in card

    def test_all_sections_present(self, small_dataset):
        card = render_datacard(small_dataset)
        for heading in (
            "# Dataset card",
            "## Motivation",
            "## Composition",
            "## Collection & annotation",
            "## Privacy & ethics",
            "### Discouraged uses",
        ):
            assert heading in card

    def test_label_table_rows(self, small_dataset):
        card = render_datacard(small_dataset)
        for label in ("Attempt", "Behavior", "Ideation", "Indicator"):
            assert f"| {label} |" in card

    def test_ethics_section_optional(self, small_dataset):
        card = render_datacard(
            small_dataset, DatacardOptions(include_ethics=False)
        )
        assert "## Privacy & ethics" not in card

    def test_custom_title(self, small_dataset):
        card = render_datacard(
            small_dataset, DatacardOptions(title="My Release")
        )
        assert "# Dataset card — My Release" in card

    def test_crawl_window_in_card(self, small_dataset):
        card = render_datacard(small_dataset)
        assert "2020" in card or "2021" in card
