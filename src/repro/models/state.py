"""Flat-weight model state: export/import over the arena format.

``export_state`` turns any *fitted* registry model into a
:class:`ModelState` — skeleton pickle + JSON-able manifest + one
contiguous weight arena (see :mod:`repro.nn.arena`). The serving worker
pool puts the arena in a ``multiprocessing.shared_memory`` segment and
every worker rebuilds its model with ``import_state`` over zero-copy
``np.frombuffer`` views, so N workers share one physical copy of the
weights.

This is deliberately model-agnostic: neural models carry their weights
as :class:`~repro.nn.module.Parameter` arrays, the feature framework
carries TF-IDF statistics and logistic weights, the GBM carries binner
edges — all are plain numeric ndarrays, and everything else (tree
node graphs, vocabularies, configs) rides in the small skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import ModelError, NotFittedError
from repro.models.base import RiskModel
from repro.nn import arena

__all__ = ["ModelState", "export_state", "import_state"]

#: Manifest format version for the model-level envelope.
STATE_VERSION = 1


@dataclass(frozen=True)
class ModelState:
    """A fitted model, split for cheap multi-process handoff."""

    skeleton: bytes
    manifest: dict
    arena: np.ndarray  # 1-D uint8

    @property
    def nbytes(self) -> int:
        """Arena size in bytes (the only large part of the state)."""
        return int(self.manifest["arena_nbytes"])


def export_state(model: RiskModel) -> ModelState:
    """Pack a fitted model into skeleton + manifest + weight arena.

    Weights keep their dtype, so the rebuilt model predicts bitwise
    identically to ``model``.
    """
    if not isinstance(model, RiskModel):
        raise ModelError(f"export_state expects a RiskModel, got {type(model).__name__}")
    if not getattr(model, "_fitted", False):
        raise NotFittedError(
            f"{type(model).__name__} is not fitted — export_state ships "
            f"trained weights, not architectures"
        )
    packed = arena.pack(model)
    manifest = dict(packed.manifest)
    manifest["state_version"] = STATE_VERSION
    manifest["model_class"] = type(model).__name__
    manifest["model_name"] = getattr(model, "name", type(model).__name__)
    return ModelState(
        skeleton=packed.skeleton, manifest=manifest, arena=packed.arena
    )


def import_state(
    skeleton: bytes, manifest: dict, buffer, copy: bool = False
) -> RiskModel:
    """Rebuild the model exported by :func:`export_state`.

    With ``copy=False`` (the default) weight arrays are read-only
    views into ``buffer`` — the caller must keep the buffer alive as
    long as the model; this is the zero-copy path the worker pool uses
    over shared memory. ``copy=True`` gives a self-contained model with
    private writable arrays.
    """
    if manifest.get("state_version") != STATE_VERSION:
        raise ModelError(
            f"unsupported model state version {manifest.get('state_version')!r}"
        )
    model = arena.unpack(skeleton, manifest, buffer, copy=copy)
    if not isinstance(model, RiskModel):
        raise ModelError(
            f"state skeleton rebuilt a {type(model).__name__}, not a RiskModel"
        )
    if not getattr(model, "_fitted", False):
        raise ModelError("imported model is not fitted — state is corrupt")
    return model
