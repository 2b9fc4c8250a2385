"""Span recorder that wraps the program's public functions from outside.

The benchmark attributes time to the package's layers without adding a
single span to ``src/``: :func:`layer_wrappers` lists the public call
sites (the binding each caller actually uses, e.g.
``repro.models.roberta.pretrain_mlm``) and :class:`Tracer` swaps each
one for a timing wrapper while a traced block runs, then restores it.

Every wrapped call records its name, start, end and parent span (per
thread). A span's self time is its duration minus the time of its direct
children. A call whose name is already open on the same thread (a
recursive or re-entrant call, e.g. nested ``Module.__call__``) is not
recorded again, so every name's total counts only outermost calls.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, same thread
    thread: int
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _state(self) -> tuple[list[int], set[str]]:
        """This thread's stack of open span indices and their names."""
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.open = [], set()
        return local.stack, local.open

    def wrap(self, fn: Callable, name: str | Callable[..., str]) -> Callable:
        """``fn`` timed under ``name`` (or ``name(*args)`` per call)."""
        tracer = self

        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            stack, open_names = tracer._state()
            if label in open_names:
                return fn(*args, **kwargs)
            span = Span(label, 0.0, 0.0,
                        stack[-1] if stack else None, threading.get_ident())
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            open_names.add(label)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                open_names.discard(label)
                if span.parent is not None:
                    tracer.spans[span.parent].child_s += span.duration

        traced.__wrapped__ = fn
        return traced

    # -- patching -----------------------------------------------------------

    def install(self, targets: list[tuple[str, str, str | Callable]]) -> None:
        """Patch every ``(object path, attribute, span name)`` target."""
        for owner_path, attr, name in targets:
            owner = resolve(owner_path)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install(layer_wrappers())
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summaries -----------------------------------------------------------

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.duration
        return out

    def self_totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.self_s
        return out

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def attributed_s(self, thread: int | None = None) -> float:
        """Self time of leaf layer calls (orchestrating wrappers excluded)."""
        return sum(
            s.self_s for s in self.spans
            if not is_container(s.name)
            and (thread is None or s.thread == thread)
        )

    def clear(self) -> None:
        self.spans.clear()


def resolve(path: str) -> object:
    """``"pkg.mod.Class"`` → the object (module attribute lookups)."""
    parts = path.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


def _fit_name(model, *_args) -> str:
    return f"models.fit.{model.name.lower()}"


#: Wrappers whose self time is glue around other layers, not layer work;
#: it counts as unattributed in ``trace.attributed_fraction``.
CONTAINERS = ("models.fit.", "models.predict", "serve.predict_many")


def is_container(name: str) -> bool:
    return any(
        name.startswith(c) if c.endswith(".") else name == c
        for c in CONTAINERS
    )


def layer_wrappers() -> list[tuple[str, str, str | Callable]]:
    """Every traced call site: (owner, attribute, span name)."""
    return [
        # corpus / preprocess / annotation / core: the §II build
        ("repro.corpus.generator.CorpusGenerator", "generate",
         "corpus.generate"),
        ("repro.preprocess.pipeline", "clean_and_filter", "preprocess.clean"),
        ("repro.preprocess.pipeline", "remove_exact_duplicates",
         "preprocess.exact_dedup"),
        ("repro.preprocess.pipeline", "remove_near_duplicates",
         "preprocess.near_dedup"),
        ("repro.annotation.process.AnnotationCampaign", "run",
         "annotation.campaign"),
        ("repro.core.privacy.Anonymizer", "anonymise", "core.anonymise"),
        ("repro.core.pipeline", "audit_anonymisation", "core.anonymise"),
        ("repro.core.pipeline", "RSD15K", "core.dataset"),
        # text
        ("repro.models.neural_common.TextPipeline", "fit",
         "text.pipeline_fit"),
        ("repro.models.neural_common.TextPipeline", "encode", "text.encode"),
        ("repro.models.neural_common.TextPipeline", "encode_texts",
         "text.encode"),
        # models
        ("repro.models.base.RiskModel", "fit", _fit_name),
        ("repro.models.base.RiskModel", "predict", "models.predict"),
        ("repro.models.base.RiskModel", "predict_proba", "models.predict"),
        ("repro.models.roberta", "pretrain_mlm", "models.mlm"),
        ("repro.models.roberta", "train_classifier", "models.finetune"),
        ("repro.models.bilstm", "train_classifier", "models.finetune"),
        ("repro.models.higru", "train_classifier", "models.finetune"),
        ("repro.models.features.FeatureFramework", "fit", "models.features"),
        ("repro.models.features.FeatureFramework", "transform",
         "models.features"),
        # boosting
        ("repro.boosting.gbm.GradientBoostingClassifier", "fit",
         "boosting.fit"),
        # nn
        ("repro.nn.module.Module", "__call__", "nn.forward"),
        ("repro.nn.tensor.Tensor", "backward", "nn.backward"),
        ("repro.nn.optim.Adam", "step", "nn.optim"),
        ("repro.models.neural_common", "clip_grad_norm", "nn.optim"),
        ("repro.models.plm", "clip_grad_norm", "nn.optim"),
        # serve
        ("repro.serve.engine.InferenceEngine", "predict_many",
         "serve.predict_many"),
    ]
