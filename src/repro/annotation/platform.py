"""A Label-Studio-like annotation platform substrate.

The paper deployed Label Studio (community edition, Docker, text
classification template) and had annotators connect over the network. The
substrate below reproduces the *workflow-relevant* surface of that stack:
projects hold tasks, tasks are assigned to annotators, submissions are
recorded per annotator, and the project can be exported in a
Label-Studio-compatible JSON shape.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.errors import AnnotationError
from repro.core.schema import RiskLevel
from repro.corpus.models import RedditPost


class TaskStatus(enum.Enum):
    """Lifecycle of a labelling task."""

    PENDING = "pending"
    IN_PROGRESS = "in_progress"
    ESCALATED = "escalated"
    COMPLETED = "completed"
    FLAGGED = "flagged"


@dataclass
class AnnotationTask:
    """One unit of labelling work.

    ``ambiguity`` is a simulation-only scalar in [0, 1] expressing how
    intrinsically hard the item is; it drives annotator disagreement and
    the uncertainty-reporting channel.
    """

    task_id: int
    post: RedditPost
    ambiguity: float = 0.0
    assigned_to: list[str] = field(default_factory=list)
    submissions: dict[str, RiskLevel] = field(default_factory=dict)
    escalated_by: list[str] = field(default_factory=list)
    status: TaskStatus = TaskStatus.PENDING
    final_label: RiskLevel | None = None
    resolution: str | None = None  # "single" | "vote" | "joint-decision" | "review"


class LabelingProject:
    """A project: ordered task queue plus submission bookkeeping."""

    def __init__(self, name: str, label_choices: Iterable[RiskLevel] = tuple(RiskLevel)):
        self.name = name
        self.label_choices = tuple(label_choices)
        self.tasks: dict[int, AnnotationTask] = {}
        self._next_id = 0

    # -- task management ---------------------------------------------------

    def add_task(self, post: RedditPost, ambiguity: float = 0.0) -> AnnotationTask:
        task = AnnotationTask(task_id=self._next_id, post=post, ambiguity=ambiguity)
        self.tasks[task.task_id] = task
        self._next_id += 1
        return task

    def add_tasks(
        self, posts: Iterable[RedditPost], ambiguities: Iterable[float] | None = None
    ) -> list[AnnotationTask]:
        posts = list(posts)
        if ambiguities is None:
            ambiguities = [0.0] * len(posts)
        else:
            ambiguities = list(ambiguities)
        if len(ambiguities) != len(posts):
            raise AnnotationError("one ambiguity per post required")
        return [self.add_task(p, a) for p, a in zip(posts, ambiguities)]

    def get(self, task_id: int) -> AnnotationTask:
        try:
            return self.tasks[task_id]
        except KeyError as exc:
            raise AnnotationError(f"unknown task id {task_id}") from exc

    def assign(self, task_id: int, annotator: str) -> None:
        task = self.get(task_id)
        if annotator not in task.assigned_to:
            task.assigned_to.append(annotator)
        if task.status == TaskStatus.PENDING:
            task.status = TaskStatus.IN_PROGRESS

    # -- submissions --------------------------------------------------------

    def submit(self, task_id: int, annotator: str, label: RiskLevel) -> None:
        task = self.get(task_id)
        if annotator not in task.assigned_to:
            raise AnnotationError(
                f"{annotator} is not assigned to task {task_id}"
            )
        task.submissions[annotator] = RiskLevel.from_any(label)

    def escalate(self, task_id: int, annotator: str) -> None:
        """Record an uncertainty report for a task."""
        task = self.get(task_id)
        if annotator not in task.assigned_to:
            raise AnnotationError(
                f"{annotator} is not assigned to task {task_id}"
            )
        if annotator not in task.escalated_by:
            task.escalated_by.append(annotator)
        task.status = TaskStatus.ESCALATED

    def finalise(
        self, task_id: int, label: RiskLevel, resolution: str
    ) -> None:
        task = self.get(task_id)
        task.final_label = RiskLevel.from_any(label)
        task.resolution = resolution
        task.status = TaskStatus.COMPLETED

    def flag(self, task_id: int) -> None:
        self.get(task_id).status = TaskStatus.FLAGGED

    # -- queries ------------------------------------------------------------

    def by_status(self, status: TaskStatus) -> list[AnnotationTask]:
        return [t for t in self.tasks.values() if t.status == status]

    @property
    def completed(self) -> list[AnnotationTask]:
        return self.by_status(TaskStatus.COMPLETED)

    @property
    def progress(self) -> float:
        if not self.tasks:
            return 1.0
        return len(self.completed) / len(self.tasks)

    # -- export ---------------------------------------------------------------

    def export(self) -> list[dict]:
        """Label-Studio-flavoured JSON export of completed tasks."""
        out = []
        for task in sorted(self.completed, key=lambda t: t.task_id):
            out.append(
                {
                    "id": task.task_id,
                    "data": {"text": task.post.text},
                    "annotations": [
                        {
                            "completed_by": annotator,
                            "result": [
                                {
                                    "type": "choices",
                                    "value": {"choices": [label.label]},
                                }
                            ],
                        }
                        for annotator, label in sorted(task.submissions.items())
                    ],
                    "meta": {
                        "final_label": task.final_label.label
                        if task.final_label is not None
                        else None,
                        "resolution": task.resolution,
                    },
                }
            )
        return out
