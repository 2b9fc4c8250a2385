"""Core schema, configuration, and the RSD-15K dataset API."""

from repro.core.config import (
    AnnotationConfig,
    CorpusConfig,
    SplitConfig,
    WindowConfig,
)
from repro.core.errors import (
    AnnotationError,
    ConfigError,
    CorpusError,
    DatasetError,
    ModelError,
    NotFittedError,
    PreprocessError,
    PrivacyError,
    ReproError,
    SchemaError,
    ShapeError,
    SplitError,
)
from repro.core.rng import DEFAULT_SEED, SeedSequenceRegistry, derive_seed, stream
from repro.core.schema import (
    ALL_LEVELS,
    ANNOTATION_GUIDELINE,
    NUM_CLASSES,
    PAPER_NUM_POSTS,
    PAPER_NUM_USERS,
    TABLE1_DISTRIBUTION,
    LabelDistribution,
    RiskLevel,
)

__all__ = [
    "AnnotationConfig",
    "CorpusConfig",
    "SplitConfig",
    "WindowConfig",
    "AnnotationError",
    "ConfigError",
    "CorpusError",
    "DatasetError",
    "ModelError",
    "NotFittedError",
    "PreprocessError",
    "PrivacyError",
    "ReproError",
    "SchemaError",
    "ShapeError",
    "SplitError",
    "DEFAULT_SEED",
    "SeedSequenceRegistry",
    "derive_seed",
    "stream",
    "ALL_LEVELS",
    "ANNOTATION_GUIDELINE",
    "NUM_CLASSES",
    "PAPER_NUM_POSTS",
    "PAPER_NUM_USERS",
    "TABLE1_DISTRIBUTION",
    "LabelDistribution",
    "RiskLevel",
]
