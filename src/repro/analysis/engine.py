"""Single-pass AST lint engine behind ``python -m repro lint``.

The engine parses each target file exactly once and hands every node of
the tree to every registered rule (:mod:`repro.analysis.rules`), so
adding a rule never adds a parse pass. Rules report through the
:class:`FileContext`, which applies inline suppressions before a
:class:`Finding` is recorded::

    x = legacy_call()  # repro: noqa[REPRO-RNG]

silences exactly ``REPRO-RNG`` on exactly that line (several ids may be
comma-separated inside the brackets). There is no other suppression:
every finding left standing is reported.

Findings carry the stripped source line as ``context``.

See ``docs/static_analysis.md`` for the rule catalogue.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

__all__ = [
    "FileContext",
    "Finding",
    "LintEngine",
    "LintResult",
    "Project",
    "Severity",
]

#: Reported when a target file does not parse; not a registered rule
#: (there is nothing to visit), but suppressible/baselinable like one.
PARSE_RULE_ID = "REPRO-PARSE"

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Za-z0-9_,\-\s]+)\]")


class Severity(Enum):
    """How a finding affects the exit code: errors fail, warnings don't."""

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source line."""

    rule: str
    severity: Severity
    path: str
    line: int
    message: str
    context: str

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "context": self.context,
        }

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.rule)


def _scan_comments(source: str) -> dict[int, str]:
    """``{lineno: comment text}`` via the tokenizer (strings excluded).

    Falls back to a crude per-line scan when the file cannot be
    tokenized (the AST parse will report the real problem).
    """
    comments: dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                comments[tok.start[0]] = tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for lineno, line in enumerate(source.splitlines(), start=1):
            if "#" in line:
                comments[lineno] = line[line.index("#"):]
    return comments


def _noqa_map(comments: dict[int, str]) -> dict[int, set[str]]:
    out: dict[int, set[str]] = {}
    for lineno, text in comments.items():
        match = _NOQA_RE.search(text)
        if match:
            out[lineno] = {
                part.strip().upper()
                for part in match.group(1).split(",")
                if part.strip()
            }
    return out


def module_name(path: Path | str) -> str | None:
    """Dotted module guess: everything from the ``repro`` path segment on.

    ``src/repro/serve/engine.py`` → ``repro.serve.engine``; paths not
    containing a ``repro`` segment (lint fixtures, scripts) get ``None``
    and rules with module allowlists treat them as unexempted.
    """
    parts = Path(path).with_suffix("").parts
    if "repro" in parts:
        return ".".join(parts[parts.index("repro"):])
    return None


@dataclass
class FileContext:
    """Everything the rules may need about the file under analysis."""

    path: Path
    relpath: str
    source: str
    lines: list[str]
    tree: ast.AST
    module: str | None
    comments: dict[int, str]
    noqa: dict[int, set[str]]
    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0

    def line(self, lineno: int) -> str:
        if 0 < lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def is_suppressed(self, rule_id: str, lineno: int) -> bool:
        return rule_id in self.noqa.get(lineno, ())

    def report(
        self, rule, lineno: int, message: str,
        severity: Severity | None = None,
    ) -> None:
        """Record a finding unless a matching noqa silences it."""
        if self.is_suppressed(rule.id, lineno):
            self.suppressed += 1
            return
        self.findings.append(Finding(
            rule=rule.id,
            severity=severity or rule.severity,
            path=self.relpath,
            line=lineno,
            message=message,
            context=self.line(lineno),
        ))


@dataclass
class Project:
    """Cross-file state for rules with a whole-project ``finish`` phase."""

    root: Path
    findings: list[Finding] = field(default_factory=list)

    @property
    def tests_dir(self) -> Path:
        return self.root / "tests"

    def report(
        self, rule, relpath: str, lineno: int, message: str, context: str,
        severity: Severity | None = None,
    ) -> None:
        self.findings.append(Finding(
            rule=rule.id,
            severity=severity or rule.severity,
            path=relpath,
            line=lineno,
            message=message,
            context=context,
        ))


@dataclass
class LintResult:
    findings: list[Finding]
    files_checked: int
    suppressed: int


class LintEngine:
    """Run a rule set over files/directories in a single AST pass each.

    rules:
        Rule *instances*; defaults to one of each registered rule
        (:func:`repro.analysis.rules.default_rules`).
    root:
        Project root used for relative paths in reports and
        for cross-file checks (REPRO-TWIN's ``tests/`` scan). Defaults
        to the current working directory.
    """

    def __init__(self, rules=None, root: Path | str | None = None) -> None:
        if rules is None:
            from repro.analysis.rules import default_rules

            rules = default_rules()
        self.rules = list(rules)
        self.root = Path(root) if root is not None else Path.cwd()

    # -- discovery ---------------------------------------------------------

    def discover(self, paths: list[Path | str]) -> list[Path]:
        """Expand files/directories into a sorted list of ``.py`` files."""
        files: set[Path] = set()
        for raw in paths:
            path = Path(raw)
            if not path.is_absolute():
                path = self.root / path
            if path.is_dir():
                files.update(
                    p for p in path.rglob("*.py")
                    if "__pycache__" not in p.parts
                )
            else:
                files.add(path)
        return sorted(files)

    def _relpath(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()

    def make_context(
        self, source: str, path: Path | str, module: str | None = None
    ) -> FileContext:
        path = Path(path)
        relpath = self._relpath(path)
        comments = _scan_comments(source)
        tree = ast.parse(source)  # SyntaxError propagates to the caller
        return FileContext(
            path=path,
            relpath=relpath,
            source=source,
            lines=source.splitlines(),
            tree=tree,
            module=module if module is not None else module_name(relpath),
            comments=comments,
            noqa=_noqa_map(comments),
        )

    # -- checking ----------------------------------------------------------

    def _check_context(self, ctx: FileContext) -> None:
        for rule in self.rules:
            rule.begin_file(ctx)
        for node in ast.walk(ctx.tree):
            for rule in self.rules:
                rule.visit(node, ctx)
        for rule in self.rules:
            rule.end_file(ctx)

    def check_source(
        self, source: str, path: str = "<memory>",
        module: str | None = None, finish: bool = True,
    ) -> list[Finding]:
        """Lint one in-memory source blob (the unit-test entry point)."""
        ctx = self.make_context(source, path, module=module)
        self._check_context(ctx)
        findings = list(ctx.findings)
        if finish:
            project = Project(root=self.root)
            for rule in self.rules:
                rule.finish(project)
            findings.extend(project.findings)
        return sorted(findings, key=Finding.sort_key)

    def run(self, paths: list[Path | str]) -> LintResult:
        """Lint files/directories; returns every unsuppressed finding."""
        findings: list[Finding] = []
        suppressed = 0
        files = self.discover(paths)
        for path in files:
            source = path.read_text(encoding="utf-8")
            try:
                ctx = self.make_context(source, path)
            except SyntaxError as exc:
                findings.append(Finding(
                    rule=PARSE_RULE_ID,
                    severity=Severity.ERROR,
                    path=self._relpath(path),
                    line=exc.lineno or 1,
                    message=f"file does not parse: {exc.msg}",
                    context=(exc.text or "").strip(),
                ))
                continue
            self._check_context(ctx)
            findings.extend(ctx.findings)
            suppressed += ctx.suppressed
        project = Project(root=self.root)
        for rule in self.rules:
            rule.finish(project)
        findings.extend(project.findings)
        return LintResult(
            findings=sorted(findings, key=Finding.sort_key),
            files_checked=len(files),
            suppressed=suppressed,
        )
