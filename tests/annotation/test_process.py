"""Tests for the end-to-end annotation campaign protocol."""

import numpy as np
import pytest

from repro.annotation.process import AnnotationCampaign
from repro.core.config import AnnotationConfig
from repro.core.errors import TrainingGateError
from repro.corpus import generate_corpus
from repro.preprocess import preprocess


@pytest.fixture(scope="module")
def clean_posts():
    corpus = generate_corpus(scale=0.04)
    return preprocess(corpus.annotated_posts, enable_near_dedup=False).posts


@pytest.fixture(scope="module")
def campaign_result(clean_posts):
    return AnnotationCampaign().run(clean_posts)


class TestTrainingGate:
    def test_all_annotators_pass(self, campaign_result):
        for report in campaign_result.training_reports:
            assert report.final_accuracy >= 0.95

    def test_low_accuracy_takes_extra_rounds(self, clean_posts):
        config = AnnotationConfig(annotator_accuracy=0.7)
        result = AnnotationCampaign(config).run(clean_posts[:400])
        assert any(r.rounds > 1 for r in result.training_reports)

    def test_no_posts_rejected(self):
        with pytest.raises(TrainingGateError):
            AnnotationCampaign().run([])


class TestCampaignOutput:
    def test_every_post_labelled(self, clean_posts, campaign_result):
        assert campaign_result.num_labelled == len(clean_posts)

    def test_joint_fraction(self, clean_posts, campaign_result):
        frac = len(campaign_result.joint_post_ids) / len(clean_posts)
        assert abs(frac - 0.30) < 0.02

    def test_kappa_in_substantial_band(self, campaign_result):
        assert 0.55 <= campaign_result.kappa <= 0.9

    def test_label_noise_bounded(self, campaign_result):
        assert campaign_result.label_noise < 0.15

    def test_escalations_happen(self, campaign_result):
        assert campaign_result.num_escalated > 0

    def test_daily_quota_respected(self, campaign_result):
        config = AnnotationConfig()
        per_day = config.daily_quota * config.num_annotators
        for log in campaign_result.daily_logs:
            assert log.items_labelled + log.items_escalated <= per_day

    def test_all_days_pass_inspection(self, campaign_result):
        assert all(d.passed for d in campaign_result.daily_logs)

    def test_resolutions_cover_protocol(self, campaign_result):
        resolutions = {
            t.resolution for t in campaign_result.project.completed
        }
        assert "vote" in resolutions
        assert "single" in resolutions

    def test_labels_are_risk_levels(self, campaign_result):
        from repro.core.schema import RiskLevel

        assert all(
            isinstance(lv, RiskLevel) for lv in campaign_result.labels.values()
        )

    def test_deterministic_given_seed(self, clean_posts):
        a = AnnotationCampaign().run(clean_posts[:300])
        b = AnnotationCampaign().run(clean_posts[:300])
        assert a.labels == b.labels
        assert a.kappa == b.kappa


class TestVotingQuality:
    def test_voted_labels_cleaner_than_solo(self, campaign_result):
        wrong = {"single": 0, "vote": 0}
        total = {"single": 0, "vote": 0}
        for task in campaign_result.project.completed:
            if task.resolution in wrong:
                total[task.resolution] += 1
                wrong[task.resolution] += int(
                    task.final_label != task.post.oracle_label
                )
        solo_noise = wrong["single"] / max(1, total["single"])
        vote_noise = wrong["vote"] / max(1, total["vote"])
        assert vote_noise <= solo_noise + 0.02
