"""Tests for the end-to-end dataset build."""

import dataclasses
import hashlib

import numpy as np

from repro.core.config import CorpusConfig
from repro.core.pipeline import build_dataset
from repro.core.schema import ALL_LEVELS

#: JSONL sha256 of the seed-1 build at scale 0.02 (near-dedup and
#: anonymisation on). A change to it changes the released dataset.
SEED1_SCALE002_SHA256 = (
    "ede3a4cd25572e056a441f070a7299eacac72b5502e13fa48deb91d7ab2dac33"
)


def test_seed1_dataset_bytes_are_pinned(tmp_path):
    config = dataclasses.replace(CorpusConfig().scaled(0.02), seed=1)
    path = tmp_path / "dataset.jsonl"
    build_dataset(config).dataset.to_jsonl(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SEED1_SCALE002_SHA256


class TestBuildResult:
    def test_report_accounting(self, small_build):
        report = small_build.report
        assert report.raw_posts >= report.annotated_slice_posts
        assert report.final_posts == small_build.dataset.num_posts
        assert report.final_users == small_build.dataset.num_users
        assert report.final_posts <= report.annotated_slice_posts

    def test_kappa_recorded(self, small_build):
        assert small_build.dataset.kappa == small_build.campaign.kappa
        assert 0.55 < small_build.dataset.kappa < 0.9

    def test_anonymised_release(self, small_build):
        # No raw simulator author names survive anonymisation.
        assert all(
            p.author.startswith("anon_") for p in small_build.dataset.posts
        )
        assert all(
            p.post_id.startswith("p_") for p in small_build.dataset.posts
        )

    def test_label_mix_is_table1_like(self, small_build):
        dist = small_build.dataset.label_distribution()
        expected = small_build.corpus.config.label_mix
        for level in ALL_LEVELS:
            assert abs(dist.fraction(level) - expected[level]) < 0.1

    def test_pretrain_pool_attached(self, small_build):
        assert len(small_build.dataset.pretrain_texts) > 0

    def test_report_as_dict(self, small_build):
        flat = small_build.report.as_dict()
        assert flat["final_posts"] > 0
        assert "pre_dropped_irrelevant" in flat

    def test_oracle_labels_survive_for_evaluation(self, small_build):
        posts = small_build.dataset.posts
        assert all(p.oracle_label is not None for p in posts[:50])

    def test_campaign_noise_matches_label_disagreement(self, small_build):
        dataset = small_build.dataset
        disagreement = np.mean(
            [
                int(dataset.labels[p.post_id] != p.oracle_label)
                for p in dataset.posts
            ]
        )
        assert abs(disagreement - small_build.campaign.label_noise) < 0.02
