"""Rule registry for the ``repro lint`` engine.

A rule is a class with a unique ``id`` (``REPRO-*``), a default
:class:`~repro.analysis.engine.Severity`, and three hooks the engine
calls during its single AST pass: ``begin_file``/``visit``/``end_file``,
plus a whole-project ``finish`` for cross-file checks. Decorate with
:func:`register` to appear in :func:`default_rules`; severity can be
overridden per instance (``RngRule(severity=Severity.WARNING)``) without
touching the class.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import FileContext, Project, Severity

__all__ = ["RULES", "Rule", "default_rules", "register", "rule_ids"]

RULES: dict[str, type["Rule"]] = {}


def register(cls: type["Rule"]) -> type["Rule"]:
    """Add a rule class to the registry (keyed and sorted by ``id``)."""
    if not cls.id or not cls.id.startswith("REPRO-"):
        raise ValueError(f"rule id must start with 'REPRO-': {cls.id!r}")
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls
    return cls


def rule_ids() -> list[str]:
    return sorted(RULES)


def default_rules(severities: dict[str, Severity] | None = None) -> list["Rule"]:
    """One instance of every registered rule, optional severity overrides."""
    overrides = severities or {}
    return [
        RULES[rule_id](severity=overrides.get(rule_id))
        for rule_id in sorted(RULES)
    ]


class Rule:
    """Base class: subclasses override the hooks they need."""

    id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def __init__(self, severity: Severity | None = None) -> None:
        if severity is not None:
            self.severity = severity

    def begin_file(self, ctx: FileContext) -> None:
        """Called before the AST walk of each file."""

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        """Called once per AST node during the engine's single pass."""

    def end_file(self, ctx: FileContext) -> None:
        """Called after the AST walk of each file."""

    def finish(self, project: Project) -> None:
        """Called once after every file, for cross-file findings."""


# Importing the rule modules populates the registry, so this import
# comes after the registry exists.
from repro.analysis.rules import (
    clock,
    excepts,
    lock,
    metric,
    rng,
    twin,
)
