"""Tests for the experiment harness (cheap experiments at tiny scale)."""

import pytest

from repro.core.schema import ALL_LEVELS, RiskLevel
from repro.experiments import (
    fig1_posts_per_user,
    fig23_wordclouds,
    fig4_top_users,
    kappa_consistency,
    table1_distribution,
    table2_comparison,
)
from repro.experiments.common import cached_build, format_table

SCALE = 0.05


@pytest.fixture(scope="module", autouse=True)
def warm_cache():
    cached_build(SCALE)


class TestCommon:
    def test_cached_build_is_cached(self):
        assert cached_build(SCALE) is cached_build(SCALE)

    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 2.5], [10, 3.25]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)


class TestTable1:
    def test_rows_cover_classes(self):
        rows = table1_distribution.run(SCALE)
        assert [r.category for r in rows] == [
            "Attempt", "Behavior", "Ideation", "Indicator",
        ]

    def test_percentages_sum_to_100(self):
        rows = table1_distribution.run(SCALE)
        assert sum(r.percentage for r in rows) == pytest.approx(100.0)
        assert sum(r.count for r in rows) == cached_build(SCALE).dataset.num_posts
        # The synthetic mix tracks the published Table I within a few points.
        assert table1_distribution.max_percentage_deviation(rows) < 6.0

    def test_render(self):
        assert "Ideation" in table1_distribution.render(
            table1_distribution.run(SCALE)
        )


class TestTable2:
    def test_nine_rows(self):
        assert len(table2_comparison.run(SCALE)) == 9

    def test_ours_row_computed_from_build(self):
        ours = table2_comparison.ours_row(SCALE)
        dataset = cached_build(SCALE).dataset
        assert ours.num_posts == dataset.num_posts
        assert ours.num_users == dataset.num_users
        # At reduced scale the user count shrinks; the structural
        # advantage claims must still hold.
        checks = table2_comparison.advantage_checks(ours)
        assert checks["post_and_user_level"]
        assert checks["fine_grained"]
        assert checks["fully_manual_and_available"]

    def test_external_rows_static(self):
        kaggle = table2_comparison.EXTERNAL_DATASETS[0]
        assert kaggle.num_posts == 236_258
        assert not kaggle.fine_grained

    def test_render(self):
        out = table2_comparison.render(table2_comparison.run(SCALE))
        assert "CLPsych2019" in out


class TestFig1:
    def test_majority_under_20(self):
        data = fig1_posts_per_user.run(SCALE)
        assert data.fraction_under_20 > 0.5
        # ... with a long right tail of very active users.
        assert data.counts_per_user.max() > 5 * data.median_posts

    def test_buckets_cover_users(self):
        data = fig1_posts_per_user.run(SCALE)
        assert sum(data.bucket_counts) == len(data.counts_per_user)

    def test_render_contains_histogram(self):
        out = fig1_posts_per_user.render(fig1_posts_per_user.run(SCALE))
        assert "#" in out


class TestFig23:
    def test_clouds_for_all_levels(self):
        clouds = fig23_wordclouds.run(SCALE)
        assert set(clouds) == set(ALL_LEVELS)

    def test_weights_normalised(self):
        clouds = fig23_wordclouds.run(SCALE)
        for cloud in clouds.values():
            top = cloud.top(1)
            assert top[0][1] == pytest.approx(1.0)
            assert all(0 < w <= 1.0 for _, w in cloud.top(20))

    def test_supports_match_distribution(self):
        clouds = fig23_wordclouds.run(SCALE)
        dataset = cached_build(SCALE).dataset
        dist = dataset.label_distribution()
        for level, cloud in clouds.items():
            assert cloud.support == dist.counts[level]
            assert cloud.support > 0
        # Ideation is the largest class, Attempt the smallest.
        assert clouds[RiskLevel.IDEATION].support > clouds[RiskLevel.ATTEMPT].support

    def test_no_stopwords_in_clouds(self):
        clouds = fig23_wordclouds.run(SCALE)
        from repro.text.tokenizer import STOPWORDS

        for cloud in clouds.values():
            assert not (set(cloud.weights) & STOPWORDS)


class TestFig4:
    def test_twenty_profiles(self):
        profiles = fig4_top_users.run(SCALE)
        assert len(profiles) == 20

    def test_anonymised_ranks(self):
        profiles = fig4_top_users.run(SCALE)
        assert [p.rank for p in profiles] == list(range(1, 21))
        # Ranks are ordered by activity.
        totals = [p.total_posts for p in profiles]
        assert totals == sorted(totals, reverse=True)

    def test_counts_consistent(self):
        for profile in fig4_top_users.run(SCALE):
            assert profile.total_posts == sum(profile.counts.values())
            assert isinstance(profile.dominant, RiskLevel)


class TestKappa:
    def test_within_tolerance_of_paper(self):
        result = kappa_consistency.run(SCALE)
        assert result.within_tolerance
        assert result.interpretation == "substantial"
        assert result.all_inspections_passed

    def test_joint_samples_about_30pct(self):
        result = kappa_consistency.run(SCALE)
        dataset = cached_build(SCALE).dataset
        assert abs(result.joint_samples / dataset.num_posts - 0.30) < 0.05
