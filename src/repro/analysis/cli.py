"""Argument wiring for ``python -m repro lint``.

``add_lint_arguments`` attaches the option surface to any argparse
parser (the repro CLI's ``lint`` subcommand reuses it verbatim);
``run_from_args`` executes a parsed namespace and returns the exit
code. Run from the repository root so report paths stay repo-relative
(CI does; ``--root`` overrides).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.engine import LintEngine
from repro.analysis.reporters import LintReport, render_json, render_text

__all__ = ["add_lint_arguments", "main", "run_from_args"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the report to this file (a one-line summary still "
             "goes to stdout)",
    )
    parser.add_argument(
        "--root", default=None,
        help="project root for relative paths and the tests/ scan "
             "(default: current directory)",
    )


def run_from_args(args: argparse.Namespace) -> int:
    root = Path(args.root) if args.root else Path.cwd()
    engine = LintEngine(root=root)
    result = engine.run(args.paths or ["src"])
    report = LintReport(
        findings=result.findings,
        files_checked=result.files_checked,
        suppressed=result.suppressed,
    )
    text = (
        render_json(report) if args.format == "json" else render_text(report)
    )
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.format} lint report to {args.output}")
        print(report.summary_line())
    else:
        print(text, end="")
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST static analysis enforcing repo reproducibility "
                    "discipline (see docs/static_analysis.md)",
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
