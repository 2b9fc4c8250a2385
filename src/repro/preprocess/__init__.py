"""Pre-processing pipeline: cleaning, relevance, dedup, partitioning."""

from repro.preprocess.cleaning import (
    clean_and_filter,
    clean_post,
    is_relevant,
    relevance_score,
    strip_noise,
)
from repro.preprocess.dedup import (
    MinHasher,
    jaccard,
    normalised_fingerprint,
    remove_exact_duplicates,
    remove_near_duplicates,
    shingles,
)
from repro.preprocess.normalize import expand_contractions, normalise
from repro.preprocess.partition import (
    assert_chronological,
    group_by_user,
    slice_window,
)
from repro.preprocess.pipeline import (
    PreprocessPipeline,
    PreprocessReport,
    PreprocessResult,
    preprocess,
)

__all__ = [
    "clean_and_filter",
    "clean_post",
    "is_relevant",
    "relevance_score",
    "strip_noise",
    "MinHasher",
    "jaccard",
    "normalised_fingerprint",
    "remove_exact_duplicates",
    "remove_near_duplicates",
    "shingles",
    "expand_contractions",
    "normalise",
    "assert_chronological",
    "group_by_user",
    "slice_window",
    "PreprocessPipeline",
    "PreprocessReport",
    "PreprocessResult",
    "preprocess",
]
