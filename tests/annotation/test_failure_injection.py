"""Failure-injection tests: the QC machinery under degraded conditions."""

import pytest

from repro.annotation.process import AnnotationCampaign
from repro.core.config import AnnotationConfig, CorpusConfig
from repro.corpus import CorpusGenerator
from repro.preprocess import preprocess


@pytest.fixture(scope="module")
def posts():
    corpus = CorpusGenerator(CorpusConfig().scaled(0.03)).generate()
    return preprocess(corpus.annotated_posts, enable_near_dedup=False).posts


class TestDegradedAnnotators:
    def test_sloppy_annotators_trigger_remediation(self, posts):
        """With barely-acceptable annotators, some days fail the first
        inspection and are expert-remediated — and the campaign still
        produces a complete, cleaner-than-raw labelling."""
        config = AnnotationConfig(
            annotator_accuracy=0.82, uncertainty_rate=0.01
        )
        result = AnnotationCampaign(config).run(posts)
        assert result.num_labelled == len(posts)
        assert all(d.passed for d in result.daily_logs)
        # kappa degrades with annotator quality
        assert result.kappa < 0.7

    def test_remediated_days_have_high_final_accuracy(self, posts):
        config = AnnotationConfig(
            annotator_accuracy=0.80, uncertainty_rate=0.01
        )
        result = AnnotationCampaign(config).run(posts)
        remediated = [d for d in result.daily_logs if d.remediated]
        for day in remediated:
            assert day.inspection_accuracy >= config.inspection_accuracy_gate

    def test_kappa_monotone_in_annotator_accuracy(self, posts):
        kappas = []
        for accuracy in (0.8, 0.9, 0.97):
            config = AnnotationConfig(annotator_accuracy=accuracy)
            kappas.append(AnnotationCampaign(config).run(posts).kappa)
        assert kappas[0] < kappas[1] < kappas[2]

    def test_high_uncertainty_routes_to_experts(self, posts):
        config = AnnotationConfig(uncertainty_rate=0.3)
        result = AnnotationCampaign(config).run(posts)
        joint_decided = sum(
            1
            for t in result.project.completed
            if t.resolution == "joint-decision"
        )
        assert joint_decided > 0.15 * len(posts)
        # expert-decided labels keep overall noise low despite escalations
        assert result.label_noise < 0.12


class TestProtocolEdges:
    def test_tiny_corpus_still_completes(self, posts):
        result = AnnotationCampaign(AnnotationConfig()).run(posts[:30])
        assert result.num_labelled == 30
        assert len(result.joint_post_ids) == 9

    def test_campaign_ignores_unlabelled_posts(self, posts):
        from dataclasses import replace

        mixed = posts[:50] + [replace(posts[50], oracle_label=None)]
        result = AnnotationCampaign(AnnotationConfig()).run(mixed)
        assert result.num_labelled == 50
