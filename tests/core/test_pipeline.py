"""Tests for the end-to-end dataset build."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.core.config import CorpusConfig
from repro.core.pipeline import build_dataset
from repro.core.schema import ALL_LEVELS

#: sha256 digests of the seed-1 build at scale 0.02 (near-dedup and
#: anonymisation on). The released JSONL misses the ~90 % of generated
#: posts that become ``pretrain_texts``, so the background pool and the
#: raw crawl are pinned too: a change to any of them changes what the
#: generator draws.
SEED1_SCALE002_SHA256 = (
    "ede3a4cd25572e056a441f070a7299eacac72b5502e13fa48deb91d7ab2dac33"
)
SEED1_SCALE002_PRETRAIN_SHA256 = (
    "66e2a55abf3b1a5e51bba287f7697879b0cf4a58867bc8ff958e5c3c77016af6"
)
SEED1_SCALE002_RAW_CRAWL_SHA256 = (
    "977fa82bbf4f621a5248d38926b0d5392e6b03691e5587533f794adf42b96c2f"
)


def _json_lines_sha256(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(json.dumps(row).encode() + b"\n")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def seed1_build():
    return build_dataset(dataclasses.replace(CorpusConfig().scaled(0.02), seed=1))


def test_seed1_dataset_bytes_are_pinned(seed1_build, tmp_path):
    path = tmp_path / "dataset.jsonl"
    seed1_build.dataset.to_jsonl(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SEED1_SCALE002_SHA256


def test_seed1_pretrain_texts_are_pinned(seed1_build):
    texts = seed1_build.dataset.pretrain_texts
    assert _json_lines_sha256(texts) == SEED1_SCALE002_PRETRAIN_SHA256


def test_seed1_raw_crawl_is_pinned(seed1_build):
    rows = (
        [
            post.post_id,
            post.author,
            post.title,
            post.body,
            post.created_utc.isoformat(),
            None if post.oracle_label is None else int(post.oracle_label),
        ]
        for post in seed1_build.corpus.raw_posts
    )
    assert _json_lines_sha256(rows) == SEED1_SCALE002_RAW_CRAWL_SHA256


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
