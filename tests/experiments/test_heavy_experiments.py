"""Tiny-scale smoke tests of the heavy experiment modules.

Table III/IV and the ablations are exercised with reduced model budgets so
the unit suite stays fast; ``python -m repro bench <experiment>`` runs them
at full budget and prints their verdict lines.
"""

import pytest

from repro.experiments import (
    ablations,
    stability,
    table3_baselines,
    table4_scale,
)
from repro.experiments.common import cached_build

SCALE = 0.05


@pytest.fixture(scope="module", autouse=True)
def warm_cache():
    cached_build(SCALE)


class TestTable3Module:
    def test_run_subset_of_models(self):
        result = table3_baselines.run(
            SCALE, models=("xgboost",), pretrain_steps=0
        )
        assert len(result.reports) == 1
        report = result.reports[0]
        assert report.model == "XGBoost"
        assert 0.0 <= report.accuracy <= 1.0

    def test_render_includes_paper_reference(self):
        result = table3_baselines.run(
            SCALE, models=("xgboost",), pretrain_steps=0
        )
        out = table3_baselines.render(result)
        assert "42.5/25.3" in out

    def test_report_for_unknown_model(self):
        result = table3_baselines.run(
            SCALE, models=("xgboost",), pretrain_steps=0
        )
        with pytest.raises(KeyError):
            result.report_for("DeBERTa")

    def test_paper_table_constants(self):
        assert table3_baselines.PAPER_TABLE3["DeBERTa"][0] == 76.0
        assert len(table3_baselines.PAPER_TABLE3) == 5


class TestTable4Constants:
    def test_paper_rows(self):
        small = table4_scale.PAPER_TABLE4["small-data"]
        large = table4_scale.PAPER_TABLE4["large-data"]
        assert small[1] == "Large" and large[1] == "Base"
        assert large[4] >= small[4]  # the paper's headline

    def test_balanced_subset_is_balanced(self):
        import numpy as np

        splits = cached_build(SCALE).dataset.splits()
        subset = table4_scale._balanced_subset(splits.train, 24, seed=0)
        labels = np.array([int(w.label) for w in subset])
        counts = np.bincount(labels, minlength=4)
        present = counts[counts > 0]
        assert present.max() - present.min() <= 1


class TestStabilityModule:
    def test_runs_and_renders(self):
        result = stability.run(SCALE, model="xgboost", seeds=(0, 1))
        assert len(result.reports) == 2
        assert "accuracy" in stability.render(result)


class TestAblations:
    def test_feature_dimension_rows(self):
        # all features + the three single dimensions
        assert len(ablations.feature_dimension_ablation(SCALE)) == 4

    def test_window_size_rows(self):
        assert len(ablations.window_size_ablation(SCALE)) == 3

    def test_voting_cleaner_than_solo(self):
        stats = ablations.voting_ablation(SCALE)
        assert stats["voted_noise"] <= stats["solo_noise"]

    def test_pretraining_arms(self, monkeypatch):
        # The job list alone: training two RoBERTas is bench-sized work.
        monkeypatch.setattr(
            ablations, "run_jobs", lambda jobs: [model for model, _ in jobs]
        )
        arms = ablations.pretraining_ablation(SCALE)
        assert [m.name for m in arms] == ["RoBERTa[MLM]", "RoBERTa[no-MLM]"]
        assert [m.pretrain_steps for m in arms] == [
            table3_baselines.PLM_PRETRAIN_STEPS, 0,
        ]


class TestParallelAblation:
    def test_window_ablation_parallel_matches_serial(self, monkeypatch):
        from repro.experiments.ablations import window_size_ablation

        monkeypatch.setenv("REPRO_SEED_JOBS", "1")
        serial = window_size_ablation(SCALE, sizes=(1, 3))
        monkeypatch.setenv("REPRO_SEED_JOBS", "2")
        parallel = window_size_ablation(SCALE, sizes=(1, 3))
        assert [r.model for r in serial] == [r.model for r in parallel]
        for a, b in zip(serial, parallel):
            assert a.accuracy == b.accuracy
            assert a.macro_f1 == b.macro_f1
            assert a.class_f1 == b.class_f1
            assert a.confusion.tobytes() == b.confusion.tobytes()
