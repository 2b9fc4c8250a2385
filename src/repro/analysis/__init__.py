"""Static analysis (``repro lint``): codebase-specific AST rules.

A single-pass lint engine (:mod:`repro.analysis.engine`) runs six
repo-specific rules (:mod:`repro.analysis.rules`) that turn this
reproduction's discipline into machine-checked invariants:

==============  =======================================================
REPRO-LOCK      lock-owning classes mutate state under their lock
REPRO-RNG       randomness flows through explicit np.random.Generators
REPRO-TWIN      vectorized kernels keep their ``_reference`` twin + test
REPRO-CLOCK     no wall-clock reads outside repro.perf / repro.serve
REPRO-METRIC    perf.* name literals render valid Prometheus exposition
REPRO-EXCEPT    broad excepts re-raise, fail a Future, or justify
==============  =======================================================

Inline suppression, the one suppression mechanism:
``# repro: noqa[REPRO-RNG]`` on the offending line; any other finding
fails the run. CLI: ``python -m repro lint [paths]``; docs:
``docs/static_analysis.md``.
"""

from repro.analysis.engine import (
    FileContext,
    Finding,
    LintEngine,
    LintResult,
    Project,
    Severity,
)
from repro.analysis.reporters import LintReport, render_json, render_text
from repro.analysis.rules import RULES, Rule, default_rules, register, rule_ids

__all__ = [
    "FileContext",
    "Finding",
    "LintEngine",
    "LintReport",
    "LintResult",
    "Project",
    "RULES",
    "Rule",
    "Severity",
    "default_rules",
    "register",
    "render_json",
    "render_text",
    "rule_ids",
]
