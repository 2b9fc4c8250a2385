"""Tests for the high-level RiskAssessor API."""

import pytest

from repro.boosting import GBMParams
from repro.core.assessment import RiskAssessor, RiskTimepoint
from repro.core.errors import ModelError
from repro.core.schema import RiskLevel
from repro.corpus.models import UserHistory
from repro.models import TrainerConfig


@pytest.fixture(scope="module")
def assessor(small_dataset):
    return RiskAssessor(
        "xgboost",
        params=GBMParams(n_estimators=8, max_depth=3),
        max_tfidf_features=80,
    ).fit(small_dataset)


@pytest.fixture(scope="module")
def neural_assessor(small_dataset):
    return RiskAssessor(
        "bilstm",
        trainer=TrainerConfig(epochs=1, batch_size=8, patience=1),
        embed_dim=16,
        hidden_dim=16,
        max_vocab=300,
    ).fit(small_dataset)


class TestFit:
    def test_validation_report_present(self, assessor):
        report = assessor.validation_report
        assert report is not None
        assert 0.0 <= report.accuracy <= 1.0

    def test_model_name_kept(self, assessor):
        assert assessor.model_name == "xgboost"


class TestAssess:
    def test_returns_risk_level(self, assessor, small_dataset):
        history = next(iter(small_dataset.histories().values()))
        assert isinstance(assessor.assess(history), RiskLevel)

    def test_empty_history_rejected(self, assessor):
        with pytest.raises(ModelError):
            assessor.assess(UserHistory("nobody", []))

    def test_trajectory_monotone_time(self, assessor, small_dataset):
        histories = small_dataset.histories()
        author = small_dataset.most_active_users(1)[0]
        trajectory = assessor.risk_trajectory(histories[author])
        assert len(trajectory) == len(histories[author].posts)
        times = [t.when for t in trajectory]
        assert times == sorted(times)
        assert all(isinstance(t, RiskTimepoint) for t in trajectory)

    def test_trajectory_final_matches_assess(self, assessor, small_dataset):
        histories = small_dataset.histories()
        author = small_dataset.most_active_users(3)[2]
        history = histories[author]
        trajectory = assessor.risk_trajectory(history)
        assert trajectory[-1].level == assessor.assess(history)

    @pytest.mark.parametrize("fixture", ["assessor", "neural_assessor"])
    def test_trajectory_equals_per_prefix_assess(
        self, fixture, request, small_dataset
    ):
        """One batched ``predict`` over every prefix gives the levels that
        scoring each prefix on its own gives."""
        model = request.getfixturevalue(fixture)
        histories = small_dataset.histories()
        for author in small_dataset.most_active_users(3):
            history = histories[author]
            expected = [
                model.assess(UserHistory(author, list(history.posts[:i])))
                for i in range(1, len(history.posts) + 1)
            ]
            levels = [point.level for point in model.risk_trajectory(history)]
            assert levels == expected

    def test_alert_threshold(self, assessor, small_dataset):
        history = next(iter(small_dataset.histories().values()))
        level = assessor.assess(history)
        assert assessor.alert(history) == (level >= RiskLevel.BEHAVIOR)
        assert assessor.alert(history, threshold=RiskLevel.INDICATOR)
