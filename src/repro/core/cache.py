"""Content-addressed build cache for :func:`repro.core.pipeline.build_dataset`.

A build is fully determined by its configuration (the corpus config carries
scale and seed), so a sha256 fingerprint of the canonicalised config plus a
cache schema version addresses one on-disk entry per distinct build:

    $REPRO_CACHE_DIR/<key[:2]>/<key>/
        build.pkl       the whole BuildResult, pickled
        meta.json       schema version, fingerprint, kappa, build report

``build.pkl`` restores the dataset exactly as built, including the
simulation-only ``oracle_label`` that the JSONL release drops (the
experiments that audit annotation quality need it). ``meta.json`` is a
human-readable summary and the schema gate. Entries are written to a temp
directory and renamed into place, so readers never see a partial entry. Any
change to the on-disk layout, or to the pickled classes, must bump
:data:`SCHEMA_VERSION`, which invalidates every existing entry.

The cache is opt-in: it is disabled unless ``REPRO_CACHE_DIR`` is set (or a
:class:`BuildCache` is passed explicitly). Corrupt or stale entries are
treated as misses and rebuilt.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from pathlib import Path

from repro import perf
from repro.core.config import AnnotationConfig, CorpusConfig
from repro.core.pipeline import BuildResult, build_dataset

#: Environment variable naming the cache root; unset disables the cache.
CACHE_ENV = "REPRO_CACHE_DIR"

#: Bump on any change to the entry layout or the fingerprint payload.
SCHEMA_VERSION = 2


# -- fingerprinting -----------------------------------------------------------


def _jsonable(value):
    """Deterministic JSON-safe view of config values."""
    if isinstance(value, Enum):
        return value.name
    if isinstance(value, datetime):
        return value.isoformat()
    if isinstance(value, dict):
        items = {_jsonable_key(k): _jsonable(v) for k, v in value.items()}
        return dict(sorted(items.items()))
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _jsonable_key(key) -> str:
    return key.name if isinstance(key, Enum) else str(key)


def fingerprint(
    corpus_config: CorpusConfig,
    annotation_config: AnnotationConfig,
    near_dedup: bool,
) -> str:
    """Content address of one build: sha256 over the canonical config JSON
    (every corpus/annotation field, including scale and seed) plus the
    near-dedup flag and the cache schema version."""
    payload = {
        "schema": SCHEMA_VERSION,
        "corpus": _jsonable(dataclasses.asdict(corpus_config)),
        "annotation": _jsonable(dataclasses.asdict(annotation_config)),
        "near_dedup": bool(near_dedup),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- the cache ----------------------------------------------------------------


@dataclass
class BuildCache:
    """Directory-backed store of :class:`BuildResult` entries."""

    root: Path

    @classmethod
    def from_env(cls) -> "BuildCache | None":
        """Cache at ``$REPRO_CACHE_DIR``, or None when the variable is unset
        or empty (caching disabled)."""
        path = os.environ.get(CACHE_ENV, "").strip()
        if not path:
            return None
        return cls(root=Path(path))

    def entry_dir(self, key: str) -> Path:
        return self.root / key[:2] / key

    def has(self, key: str) -> bool:
        return (self.entry_dir(key) / "meta.json").exists()

    def load(self, key: str) -> BuildResult | None:
        """Reconstruct a cached build, or None on miss / corrupt entry."""
        entry = self.entry_dir(key)
        meta_path = entry / "meta.json"
        if not meta_path.exists():
            return None
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            if meta.get("schema") != SCHEMA_VERSION:
                return None
            with open(entry / "build.pkl", "rb") as handle:
                result = pickle.load(handle)
            if not isinstance(result, BuildResult):
                raise TypeError(f"build.pkl holds a {type(result).__name__}")
            return result
        except Exception:
            # Deliberate degradation: a corrupt/stale entry is a cache
            # miss and the build below rewrites it — but count the event
            # so silent cache corruption shows up in telemetry.
            perf.count("cache.read_error")
            return None

    def store(self, key: str, result: BuildResult) -> None:
        """Persist a build under ``key`` (atomic via temp-dir rename)."""
        entry = self.entry_dir(key)
        tmp = entry.parent / (entry.name + ".tmp")
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        with open(tmp / "build.pkl", "wb") as handle:
            pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
        meta = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "kappa": result.dataset.kappa,
            "num_posts": result.dataset.num_posts,
            "num_users": result.dataset.num_users,
            "report": result.report.as_dict(),
        }
        (tmp / "meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8"
        )
        if entry.exists():
            shutil.rmtree(entry)
        tmp.rename(entry)

    def evict(self, key: str) -> bool:
        """Drop one entry; returns whether it existed."""
        entry = self.entry_dir(key)
        if not entry.exists():
            return False
        shutil.rmtree(entry)
        return True


# -- read-through entry point -------------------------------------------------


def build_dataset_cached(
    corpus_config: CorpusConfig | None = None,
    annotation_config: AnnotationConfig | None = None,
    near_dedup: bool = True,
    cache: BuildCache | None = None,
) -> BuildResult:
    """:func:`build_dataset` behind the content-addressed cache.

    With no ``cache`` argument, uses ``$REPRO_CACHE_DIR`` (and degrades to
    a plain build when that is unset). A hit skips the entire pipeline.
    """
    corpus_config = corpus_config or CorpusConfig()
    annotation_config = annotation_config or AnnotationConfig(
        seed=corpus_config.seed
    )
    cache = cache if cache is not None else BuildCache.from_env()
    if cache is None:
        return build_dataset(corpus_config, annotation_config, near_dedup)
    key = fingerprint(corpus_config, annotation_config, near_dedup)
    with perf.span("cache.load"):
        cached = cache.load(key)
    if cached is not None:
        perf.count("cache.hits")
        return cached
    perf.count("cache.misses")
    result = build_dataset(corpus_config, annotation_config, near_dedup)
    with perf.span("cache.store"):
        cache.store(key, result)
    return result
