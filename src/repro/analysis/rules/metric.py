"""REPRO-METRIC: telemetry names must render valid Prometheus lines.

``repro.perf`` paths surface verbatim in the exposition text that
``python -m repro metrics`` emits: the path is sanitised into the
metric *name* but embedded raw in the ``# HELP`` line, so a stray
newline in a ``perf.span("...")`` literal produces exposition a scraper
rejects — at export time, far from the call site that caused it.

The static check does not reimplement the format: it feeds each string
literal through the real renderer/validator pair from
:mod:`repro.perf.export` (``render_prometheus`` + ``validate_prometheus``),
so the rule and the runtime can never disagree. On top of renderability
it enforces the repo's naming style — lowercase dotted
``serve.request.latency_seconds`` paths — as a *warning*, keeping the
metric namespace greppable without failing the build.

Only literal first arguments are checked; dynamic names are runtime's
problem (the ``metrics`` CLI validates its output before writing it).
"""

from __future__ import annotations

import ast
import re

from repro.analysis.engine import FileContext, Severity
from repro.analysis.rules import Rule, register

#: Instrument methods whose first argument is a metric path.
INSTRUMENTS = {"span", "count", "gauge", "observe"}

#: Receivers that are telemetry registries (``perf.count(...)``,
#: ``registry.span(...)``, ``_REGISTRY.gauge(...)``); keeps
#: ``str.count``/``list.count`` out of scope.
_STYLE_RE = re.compile(r"[a-z][a-z0-9_]*(\.[a-z0-9_]+)*")


def _is_registry_receiver(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and (
        node.id == "perf" or node.id.lower().endswith("registry")
    )


def is_renderable(name: str) -> bool:
    """Does ``name`` survive the real export pipeline?

    Renders a one-counter snapshot through
    :func:`repro.perf.export.render_prometheus` and checks it with
    :func:`repro.perf.export.validate_prometheus` — the exact code the
    ``metrics`` command runs, so static and runtime verdicts agree by
    construction. (Sanitisation is identical for every instrument kind,
    so one kind suffices.)
    """
    from repro.perf.export import render_prometheus, validate_prometheus

    try:
        validate_prometheus(render_prometheus({"counters": {name: 1}}))
    except ValueError:
        return False
    return True


@register
class MetricNameRule(Rule):
    id = "REPRO-METRIC"
    description = (
        "literal perf.span/count/gauge/observe names must render valid "
        "Prometheus exposition and follow lowercase dotted style"
    )

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        if not isinstance(node, ast.Call):
            return
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in INSTRUMENTS
            and _is_registry_receiver(func.value)
        ):
            return
        if not node.args:
            return
        arg = node.args[0]
        if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
            return
        name = arg.value
        if not is_renderable(name):
            ctx.report(
                self, node.lineno,
                f"metric name {name!r} renders invalid Prometheus "
                f"exposition (rejected by repro.perf.export."
                f"validate_prometheus)",
            )
        elif not _STYLE_RE.fullmatch(name):
            ctx.report(
                self, node.lineno,
                f"metric name {name!r} violates the lowercase dotted "
                f"style (expected e.g. 'serve.request.latency_seconds')",
                severity=Severity.WARNING,
            )
