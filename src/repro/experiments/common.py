"""Shared experiment plumbing: cached dataset builds and table rendering."""

from __future__ import annotations

import functools

from repro.core.cache import build_dataset_cached
from repro.core.config import CorpusConfig
from repro.core.pipeline import BuildResult
from repro.core.rng import DEFAULT_SEED

#: Default corpus fraction of ``python -m repro bench``. Chosen so the
#: full Table III (five models, four of them trained from scratch) runs in
#: minutes on a laptop; pass ``--scale 1.0`` for the paper-sized corpus.
BENCH_SCALE = 0.3


@functools.lru_cache(maxsize=4)
def cached_build(scale: float = BENCH_SCALE, seed: int = DEFAULT_SEED) -> BuildResult:
    """Build (or reuse) the synthetic dataset for experiments.

    Memoised per (scale, seed) so that a process touching the dataset
    from several experiments (``bench ablations``, the test suite) only
    pays the build cost once, and read through the on-disk
    content-addressed cache (set ``REPRO_CACHE_DIR``) so repeat
    ``python -m repro bench`` runs skip the build entirely.

    The build skips near-duplicate removal (``near_dedup=False``), so
    every table and ablation reads a slightly larger dataset than the
    one ``python -m repro build`` writes for the same (scale, seed).
    """
    config = CorpusConfig(seed=seed)
    if scale != 1.0:
        config = config.scaled(scale)
    return build_dataset_cached(config, near_dedup=False)


def format_table(headers: list[str], rows: list[list]) -> str:
    """Monospace table (the harness prints the same rows the paper reports)."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.1f}"
        return str(value)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    def line(parts):
        return " | ".join(p.ljust(w) for p, w in zip(parts, widths))

    sep = "-+-".join("-" * w for w in widths)
    out = [line(headers), sep]
    out.extend(line(r) for r in cells)
    return "\n".join(out)

