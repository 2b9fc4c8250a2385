"""Tests for user-level simulation (risk chains, posting habits)."""

import numpy as np
import pytest

from repro.core.config import CorpusConfig
from repro.core.schema import ALL_LEVELS, NUM_CLASSES, RiskLevel
from repro.corpus.models import UserProfile
from repro.corpus.users import (
    risk_transition_matrix,
    sample_gaps_hours,
    sample_post_hours,
    sample_posts_per_user,
    sample_profiles,
    sample_trajectory,
    transition_cdf,
)

MIX = CorpusConfig().label_mix
CDF = transition_cdf(risk_transition_matrix(MIX))


class TestTransitionMatrix:
    def test_rows_are_distributions(self):
        kernel = risk_transition_matrix(MIX)
        assert kernel.shape == (NUM_CLASSES, NUM_CLASSES)
        assert np.allclose(kernel.sum(axis=1), 1.0)
        assert (kernel >= 0).all()

    def test_stationary_distribution_is_label_mix(self):
        kernel = risk_transition_matrix(MIX)
        mix = np.array([MIX[lv] for lv in ALL_LEVELS])
        assert np.allclose(mix @ kernel, mix, atol=1e-12)

    def test_self_transitions_dominate(self):
        kernel = risk_transition_matrix(MIX)
        for i in range(NUM_CLASSES):
            assert kernel[i, i] == max(kernel[i])


class TestPostsPerUser:
    def test_total_matches_target(self, rng):
        counts = sample_posts_per_user(rng, 200, 2300)
        assert counts.sum() == 2300

    def test_minimum_one_post(self, rng):
        counts = sample_posts_per_user(rng, 300, 400)
        assert counts.min() >= 1

    def test_majority_under_20(self, rng):
        counts = sample_posts_per_user(rng, 1000, 11_500)
        assert (counts < 20).mean() > 0.6

    def test_heavy_tail_exists(self, rng):
        counts = sample_posts_per_user(rng, 1000, 11_500)
        assert counts.max() > 40

    def test_rejects_infeasible_target(self, rng):
        with pytest.raises(ValueError):
            sample_posts_per_user(rng, 10, 5)

    def test_rejects_zero_users(self, rng):
        with pytest.raises(ValueError):
            sample_posts_per_user(rng, 0, 5)


class TestProfiles:
    def test_population_shape(self, rng):
        profiles = sample_profiles(rng, 100, 1200, MIX, temporal_strength=0.7)
        assert len(profiles) == 100
        assert sum(p.num_posts for p in profiles) == 1200

    def test_severity_couples_to_night_owl(self, rng):
        profiles = sample_profiles(rng, 2000, 24_000, MIX, temporal_strength=1.0)
        by_level = {}
        for p in profiles:
            by_level.setdefault(p.base_level, []).append(p.night_owl)
        assert np.mean(by_level[RiskLevel.ATTEMPT]) > np.mean(
            by_level[RiskLevel.INDICATOR]
        )

    def test_severity_couples_to_gap(self, rng):
        profiles = sample_profiles(rng, 2000, 24_000, MIX, temporal_strength=1.0)
        by_level = {}
        for p in profiles:
            by_level.setdefault(p.base_level, []).append(p.mean_gap_hours)
        assert np.mean(by_level[RiskLevel.ATTEMPT]) < np.mean(
            by_level[RiskLevel.INDICATOR]
        )

    def test_no_temporal_coupling_when_disabled(self, rng):
        profiles = sample_profiles(rng, 3000, 36_000, MIX, temporal_strength=0.0)
        by_level = {}
        for p in profiles:
            by_level.setdefault(p.base_level, []).append(p.night_owl)
        means = [np.mean(v) for v in by_level.values()]
        assert max(means) - min(means) < 0.08


class TestTrajectory:
    def _profile(self, n=50):
        return UserProfile(
            author="u", base_level=RiskLevel.IDEATION, num_posts=n,
            night_owl=0.3, mean_gap_hours=24.0,
        )

    def test_length(self, rng):
        traj = sample_trajectory(rng, self._profile(17), CDF)
        assert len(traj.levels) == 17

    def test_starts_at_base_level(self, rng):
        traj = sample_trajectory(rng, self._profile(), CDF)
        assert traj.levels[0] is RiskLevel.IDEATION

    def test_same_draws_as_one_choice_per_step(self):
        # One rng.random(n - 1) walks the chain exactly as one
        # rng.choice(NUM_CLASSES, p=kernel[state]) per step does, and
        # leaves the stream at the same point.
        kernel = risk_transition_matrix(MIX)
        fast, slow = np.random.default_rng(7), np.random.default_rng(7)
        for n in (1, 2, 17, 300):
            state = int(RiskLevel.IDEATION)
            expected = [state]
            for _ in range(n - 1):
                state = int(slow.choice(NUM_CLASSES, p=kernel[state]))
                expected.append(state)
            traj = sample_trajectory(fast, self._profile(n), CDF)
            assert [int(level) for level in traj.levels] == expected
        assert fast.random() == slow.random()

    def test_persistence(self, rng):
        traj = sample_trajectory(rng, self._profile(500), CDF)
        same = np.mean(
            [a == b for a, b in zip(traj.levels, traj.levels[1:])]
        )
        assert same > 0.5  # lazy chain: mostly self-transitions


class TestTiming:
    def test_hours_in_range(self, rng):
        hours = np.array(
            sample_post_hours(rng, UserProfile("u", RiskLevel.IDEATION, 5, 0.5, 24.0), 500)
        )
        assert ((hours >= 0) & (hours < 24)).all()

    def test_hours_equal_the_array_formula(self):
        profile = UserProfile("u", RiskLevel.BEHAVIOR, 5, 0.4, 24.0)
        fast, slow = np.random.default_rng(3), np.random.default_rng(3)
        night = slow.random(400) < profile.night_owl
        day = np.clip(slow.normal(15.0, 3.5, size=400), 6, 22)
        late = (23.0 + slow.exponential(2.0, size=400)) % 24.0
        expected = np.where(night, late, day).tolist()
        assert sample_post_hours(fast, profile, 400) == expected

    def test_night_owls_post_at_night(self, rng):
        owl = UserProfile("u", RiskLevel.ATTEMPT, 5, 0.95, 24.0)
        lark = UserProfile("u", RiskLevel.INDICATOR, 5, 0.0, 24.0)
        owl_hours = np.array(sample_post_hours(rng, owl, 500))
        lark_hours = np.array(sample_post_hours(rng, lark, 500))
        night = lambda h: ((h >= 23) | (h < 5)).mean()
        assert night(owl_hours) > 0.7
        assert night(lark_hours) < 0.1

    def test_gaps_positive_and_length(self, rng):
        profile = UserProfile("u", RiskLevel.IDEATION, 9, 0.3, 24.0)
        traj = sample_trajectory(rng, profile, CDF)
        gaps = sample_gaps_hours(rng, profile, traj, 0.7)
        assert len(gaps) == 8
        assert (gaps > 0).all()

    def test_single_post_has_no_gaps(self, rng):
        profile = UserProfile("u", RiskLevel.IDEATION, 1, 0.3, 24.0)
        traj = sample_trajectory(rng, profile, CDF)
        assert sample_gaps_hours(rng, profile, traj, 0.7).size == 0
