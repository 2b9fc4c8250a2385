"""Annotation platform substrate, simulated annotators, and QC protocol."""

from repro.annotation.agreement import (
    fleiss_kappa,
    fleiss_kappa_from_annotations,
    interpret_kappa,
    rating_matrix,
)
from repro.annotation.annotators import (
    ExpertSupervisor,
    Judgement,
    SimulatedAnnotator,
    confusion_matrix,
)
from repro.annotation.platform import (
    AnnotationTask,
    LabelingProject,
    TaskStatus,
)
from repro.annotation.process import (
    AnnotationCampaign,
    CampaignResult,
    DailyLog,
    TrainingReport,
)

__all__ = [
    "fleiss_kappa",
    "fleiss_kappa_from_annotations",
    "interpret_kappa",
    "rating_matrix",
    "ExpertSupervisor",
    "Judgement",
    "SimulatedAnnotator",
    "confusion_matrix",
    "AnnotationTask",
    "LabelingProject",
    "TaskStatus",
    "AnnotationCampaign",
    "CampaignResult",
    "DailyLog",
    "TrainingReport",
]
