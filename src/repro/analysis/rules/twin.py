"""REPRO-TWIN: every ``_reference`` kernel keeps its twin and its test.

The repo's performance contract (docs/performance.md): each vectorized
hot path keeps its original scalar implementation as an executable
specification — ``scatter_add_rows`` / ``scatter_add_rows_reference``,
``TfidfVectorizer.transform`` / ``_transform_reference``, … — and an
equivalence test pins the pair together. A refactor that renames the
fast twin, moves it to another module, or drops the equivalence test
silently voids that contract; this rule makes the drift a lint error.

Statically, for every function whose name contains ``_reference``:

* a sibling named like the reference minus ``_reference`` (with or
  without the leading underscore) must be defined in the *same module*;
* at least one file under ``<root>/tests/`` must mention the reference
  function by name (the equivalence test).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.engine import FileContext, Project
from repro.analysis.rules import Rule, register

_MARKER = "_reference"


def twin_candidates(reference_name: str) -> set[str]:
    """Names that count as the fast twin of ``reference_name``."""
    base = reference_name.replace(_MARKER, "")
    return {name for name in (base, base.lstrip("_")) if name}


@dataclass
class _Ref:
    relpath: str
    lineno: int
    name: str
    context: str


@register
class ReferenceTwinRule(Rule):
    id = "REPRO-TWIN"
    description = (
        "a *_reference function must keep its fast twin in the same "
        "module and an equivalence test under tests/"
    )

    def __init__(self, severity=None) -> None:
        super().__init__(severity)
        self._defs: dict[str, set[str]] = {}
        self._refs: list[_Ref] = []

    def begin_file(self, ctx: FileContext) -> None:
        self._defs.setdefault(ctx.relpath, set())

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        self._defs[ctx.relpath].add(node.name)
        if _MARKER in node.name:
            # Suppression is resolved now, while the file context (and
            # its noqa map) is still in hand; finish() runs after.
            if ctx.is_suppressed(self.id, node.lineno):
                return
            self._refs.append(_Ref(
                relpath=ctx.relpath,
                lineno=node.lineno,
                name=node.name,
                context=ctx.line(node.lineno),
            ))

    def finish(self, project: Project) -> None:
        tests_text = self._tests_corpus(project.tests_dir)
        for ref in self._refs:
            names = self._defs.get(ref.relpath, set())
            if not (twin_candidates(ref.name) & names):
                project.report(
                    self, ref.relpath, ref.lineno,
                    f"reference implementation '{ref.name}' has no fast "
                    f"twin in the same module (expected one of "
                    f"{sorted(twin_candidates(ref.name))})",
                    ref.context,
                )
            elif ref.name not in tests_text:
                project.report(
                    self, ref.relpath, ref.lineno,
                    f"no test under tests/ references '{ref.name}' — the "
                    f"kernel/reference pair has lost its equivalence test",
                    ref.context,
                )

    @staticmethod
    def _tests_corpus(tests_dir: Path) -> str:
        if not tests_dir.is_dir():
            return ""
        chunks = []
        for path in sorted(tests_dir.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            try:
                chunks.append(path.read_text(encoding="utf-8"))
            except OSError:
                continue
        return "\n".join(chunks)
