"""Exception hierarchy for the repro library.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch a single base class at the
boundary of their application.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class SchemaError(ReproError):
    """A label or record does not conform to the RSD-15K schema."""


class CorpusError(ReproError):
    """The corpus substrate was used incorrectly (unknown subreddit, ...)."""


class PreprocessError(ReproError):
    """A pre-processing step received data it cannot handle."""


class AnnotationError(ReproError):
    """The annotation platform or campaign was driven into an invalid state."""


class TrainingGateError(AnnotationError):
    """An annotator failed to pass the pre-campaign training gate."""


class InspectionError(AnnotationError):
    """A daily quality inspection fell below the required accuracy."""


class ShapeError(ReproError):
    """A tensor operation received operands of incompatible shapes."""


class GradientError(ReproError):
    """Backpropagation was requested on a graph in an invalid state."""


class ModelError(ReproError):
    """A model was used before fit/training or with invalid inputs."""


class NotFittedError(ModelError):
    """Predict was called on an estimator that has not been fitted."""


class DatasetError(ReproError):
    """The RSD-15K dataset object was constructed or queried incorrectly."""


class SplitError(DatasetError):
    """A train/validation/test split request is infeasible or leaky."""


class PrivacyError(ReproError):
    """An anonymisation guarantee would be violated."""


class ExperimentError(ReproError):
    """An experiment harness was configured inconsistently."""
