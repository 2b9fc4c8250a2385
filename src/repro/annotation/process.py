"""The full annotation campaign of paper §II-B2/§II-C1, in simulation.

Protocol, exactly as described:

1. **Training gate** — 100 expert-annotated samples; each annotator must
   reach 95% accuracy, re-reviewing and re-annotating until they do.
2. **Main phase** — a 30% *joint* subset is labelled by all three
   annotators (for Fleiss' κ and 3-way voting); the remaining 70% is split
   between annotators and labelled independently.
3. **Uncertainty policy** — annotators escalate ambiguous items instead of
   guessing; escalated items are decided jointly by the supervisors at the
   end of each day.
4. **Voting** — on the joint subset, items without a 2-of-3 majority are
   flagged and resolved by expert review.
5. **Daily plan** — 500 items per annotator per day.
6. **Daily inspection** — experts re-check a random 10% of each day's
   output; the day passes only if accuracy ≥ 85%.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import AnnotationConfig
from repro.core.errors import InspectionError, TrainingGateError
from repro.core.rng import SeedSequenceRegistry
from repro.core.schema import RiskLevel
from repro.corpus.models import RedditPost
from repro.annotation.agreement import fleiss_kappa_from_annotations
from repro.annotation.annotators import ExpertSupervisor, SimulatedAnnotator
from repro.annotation.platform import LabelingProject, TaskStatus


@dataclass
class TrainingReport:
    """Outcome of the pre-campaign training gate for one annotator."""

    annotator: str
    rounds: int
    final_accuracy: float


@dataclass
class DailyLog:
    """One simulated working day of the campaign."""

    day: int
    items_labelled: int
    items_escalated: int
    inspection_sample: int
    inspection_accuracy: float
    passed: bool
    remediated: bool = False  # day failed first inspection, expert-reviewed


@dataclass
class CampaignResult:
    """Everything the campaign produced."""

    labels: dict[str, RiskLevel]  # post_id -> final label
    joint_post_ids: list[str]
    kappa: float
    training_reports: list[TrainingReport]
    daily_logs: list[DailyLog]
    project: LabelingProject
    num_escalated: int
    num_flagged: int
    label_noise: float  # fraction of final labels differing from oracle

    @property
    def num_labelled(self) -> int:
        return len(self.labels)


class AnnotationCampaign:
    """Drives the simulated annotators through the full protocol."""

    def __init__(self, config: AnnotationConfig | None = None) -> None:
        self.config = config or AnnotationConfig()
        registry = SeedSequenceRegistry(self.config.seed).spawn("annotation")
        jitters = registry.get("jitter").normal(0.0, 0.015, self.config.num_annotators)
        self.annotators = [
            SimulatedAnnotator(
                name=f"annotator-{i + 1}",
                accuracy=self.config.annotator_accuracy,
                uncertainty_rate=self.config.uncertainty_rate,
                rng=registry.get(f"annotator-{i}"),
                skill_jitter=float(jitters[i]),
            )
            for i in range(self.config.num_annotators)
        ]
        self.supervisors = [
            ExpertSupervisor(f"supervisor-{i + 1}", registry.get(f"supervisor-{i}"))
            for i in range(self.config.num_supervisors)
        ]
        self._rng = registry.get("campaign")

    # -- protocol pieces ------------------------------------------------------

    def joint_decision(self, true_label: RiskLevel) -> RiskLevel:
        """Supervisors decide an item together (majority of expert votes)."""
        votes = Counter(s.decide(true_label) for s in self.supervisors)
        return votes.most_common(1)[0][0]

    def run_training_gate(
        self, training_posts: list[RedditPost]
    ) -> list[TrainingReport]:
        """Train annotators on expert-labelled samples until ≥ gate accuracy.

        Each failed round reviews the errors and re-annotates with boosted
        accuracy — in simulation, a round of
        :meth:`SimulatedAnnotator.relabel_after_review`.
        """
        gate = self.config.training_accuracy_gate
        reports = []
        gold = {p.post_id: p.oracle_label for p in training_posts}
        for annotator in self.annotators:
            rounds = 0
            accuracy = 0.0
            max_rounds = 24
            while rounds < max_rounds:
                rounds += 1
                correct = 0
                for post in training_posts:
                    true = gold[post.post_id]
                    if rounds == 1:
                        judgement = annotator.annotate(true, ambiguity=0.0)
                        produced = judgement.label
                        if produced is None:  # escalations resolve via experts
                            produced = self.joint_decision(true)
                    else:
                        produced = annotator.relabel_after_review(
                            true, review_rounds=rounds - 1
                        )
                    correct += int(produced == true)
                accuracy = correct / len(training_posts)
                if accuracy >= gate:
                    break
            else:  # pragma: no cover - defensive
                raise TrainingGateError(
                    f"{annotator.name} failed the training gate after "
                    f"{max_rounds} rounds (accuracy {accuracy:.3f})"
                )
            if accuracy < gate:
                raise TrainingGateError(
                    f"{annotator.name} failed the training gate "
                    f"(accuracy {accuracy:.3f} < {gate})"
                )
            reports.append(
                TrainingReport(
                    annotator=annotator.name, rounds=rounds, final_accuracy=accuracy
                )
            )
        return reports

    # -- main phase ------------------------------------------------------------

    def run(self, posts: list[RedditPost]) -> CampaignResult:
        """Execute the full campaign over annotated-slice posts.

        ``posts`` must carry oracle labels (the synthetic ground truth the
        simulated humans perceive).
        """
        labelled_posts = [p for p in posts if p.oracle_label is not None]
        if not labelled_posts:
            raise TrainingGateError("no posts with oracle labels to annotate")

        order = self._rng.permutation(len(labelled_posts))
        shuffled = [labelled_posts[int(i)] for i in order]

        n_training = min(self.config.training_samples, max(4, len(shuffled) // 10))
        training_posts = shuffled[:n_training]
        work_posts = shuffled  # training samples are also real data items

        training_reports = self.run_training_gate(training_posts)

        project = LabelingProject(name="rsd15k")
        ambiguities = np.clip(self._rng.beta(1.2, 10.0, len(work_posts)), 0, 1)
        tasks = project.add_tasks(work_posts, ambiguities)

        n_joint = int(round(self.config.joint_fraction * len(tasks)))
        joint_tasks = tasks[:n_joint]
        solo_tasks = tasks[n_joint:]

        # -- joint subset: all annotators label every item ----------------
        joint_ratings: list[list[RiskLevel]] = []
        num_flagged = 0
        for task in joint_tasks:
            true = task.post.oracle_label
            votes: list[RiskLevel] = []
            for annotator in self.annotators:
                project.assign(task.task_id, annotator.name)
                judgement = annotator.annotate(true, task.ambiguity)
                if judgement.uncertain:
                    project.escalate(task.task_id, annotator.name)
                else:
                    project.submit(task.task_id, annotator.name, judgement.label)
                    votes.append(judgement.label)
            if len(votes) == len(self.annotators):
                joint_ratings.append(list(votes))
            if len(votes) < 2:
                # Escalated by (almost) everyone: supervisors decide jointly.
                project.finalise(
                    task.task_id, self.joint_decision(true), "joint-decision"
                )
                continue
            counts = Counter(votes)
            label, support = counts.most_common(1)[0]
            if support >= 2:
                project.finalise(task.task_id, label, "vote")
            else:
                # No 2-of-3 majority: flag for special review (expert).
                project.flag(task.task_id)
                num_flagged += 1
                project.finalise(task.task_id, self.joint_decision(true), "review")

        # -- solo subset: round-robin assignment, daily quota + inspection -
        daily_logs = self._run_solo_phase(project, solo_tasks)

        kappa = (
            fleiss_kappa_from_annotations(joint_ratings) if joint_ratings else 0.0
        )

        labels = {
            t.post.post_id: t.final_label
            for t in project.completed
            if t.final_label is not None
        }
        noise = float(
            np.mean(
                [
                    int(labels[t.post.post_id] != t.post.oracle_label)
                    for t in project.completed
                ]
            )
        )
        num_escalated = sum(a.items_escalated for a in self.annotators)
        return CampaignResult(
            labels=labels,
            joint_post_ids=[t.post.post_id for t in joint_tasks],
            kappa=kappa,
            training_reports=training_reports,
            daily_logs=daily_logs,
            project=project,
            num_escalated=num_escalated,
            num_flagged=num_flagged,
            label_noise=noise,
        )

    def _run_solo_phase(self, project, solo_tasks) -> list[DailyLog]:
        """70% independent labelling under the daily plan and inspections."""
        cfg = self.config
        daily_logs: list[DailyLog] = []
        per_day = cfg.daily_quota * len(self.annotators)
        num_days = max(1, math.ceil(len(solo_tasks) / per_day))
        inspector_rng = self._rng
        for day in range(num_days):
            day_tasks = solo_tasks[day * per_day : (day + 1) * per_day]
            if not day_tasks:
                break
            escalated_today = 0
            produced: list[tuple[int, RiskLevel, RiskLevel]] = []
            for i, task in enumerate(day_tasks):
                annotator = self.annotators[i % len(self.annotators)]
                true = task.post.oracle_label
                project.assign(task.task_id, annotator.name)
                judgement = annotator.annotate(true, task.ambiguity)
                if judgement.uncertain:
                    project.escalate(task.task_id, annotator.name)
                    decided = self.joint_decision(true)
                    project.finalise(task.task_id, decided, "joint-decision")
                    escalated_today += 1
                    produced.append((task.task_id, decided, true))
                else:
                    project.submit(task.task_id, annotator.name, judgement.label)
                    project.finalise(task.task_id, judgement.label, "single")
                    produced.append((task.task_id, judgement.label, true))
            # Daily inspection: experts re-check a random 10% of the day.
            sample_size = max(1, int(round(cfg.inspection_fraction * len(produced))))
            picks = inspector_rng.choice(len(produced), sample_size, replace=False)
            correct = sum(
                int(produced[int(k)][1] == produced[int(k)][2]) for k in picks
            )
            inspection_accuracy = correct / sample_size
            remediated = False
            if inspection_accuracy < cfg.inspection_accuracy_gate:
                # Failed inspection: the whole day is jointly re-reviewed
                # by the supervisors, then re-inspected.
                remediated = True
                reviewed = []
                for task_id, _, true in produced:
                    decided = self.joint_decision(true)
                    project.finalise(task_id, decided, "review")
                    reviewed.append((task_id, decided, true))
                produced = reviewed
                picks = inspector_rng.choice(
                    len(produced), sample_size, replace=False
                )
                correct = sum(
                    int(produced[int(k)][1] == produced[int(k)][2])
                    for k in picks
                )
                inspection_accuracy = correct / sample_size
            passed = inspection_accuracy >= cfg.inspection_accuracy_gate
            daily_logs.append(
                DailyLog(
                    day=day + 1,
                    items_labelled=len(produced) - escalated_today,
                    items_escalated=escalated_today,
                    inspection_sample=sample_size,
                    inspection_accuracy=inspection_accuracy,
                    passed=passed,
                    remediated=remediated,
                )
            )
            if not passed:  # pragma: no cover - expert review restores quality
                raise InspectionError(
                    f"day {day + 1} inspection failed even after review: "
                    f"{inspection_accuracy:.3f} < {cfg.inspection_accuracy_gate}"
                )
        return daily_logs
