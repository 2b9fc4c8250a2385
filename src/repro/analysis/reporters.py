"""Text and JSON reporters for ``repro lint`` results.

Both consume the same :class:`LintReport` view: the findings left after
``noqa`` suppression, and run counters. The exit code is part of the
report so the JSON artifact uploaded by CI is self-describing: ``0``
clean, ``1`` any error-severity finding (warnings never fail).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.analysis.engine import Finding, Severity

__all__ = ["LintReport", "render_json", "render_text"]


@dataclass
class LintReport:
    findings: list[Finding]
    files_checked: int = 0
    suppressed: int = 0

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0

    def summary(self) -> dict:
        return {
            "files_checked": self.files_checked,
            "findings": len(self.findings),
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "suppressed": self.suppressed,
            "exit_code": self.exit_code,
        }

    def summary_line(self) -> str:
        s = self.summary()
        verdict = "clean" if self.exit_code == 0 else "FAILED"
        return (
            f"repro lint: {verdict} — {s['findings']} finding(s) "
            f"({s['errors']} error, {s['warnings']} warning) in "
            f"{s['files_checked']} file(s); "
            f"{s['suppressed']} noqa-suppressed"
        )


def render_text(report: LintReport) -> str:
    lines: list[str] = []
    for finding in report.findings:
        lines.append(
            f"{finding.path}:{finding.line}: {finding.rule} "
            f"{finding.severity.value}: {finding.message}"
        )
        if finding.context:
            lines.append(f"    {finding.context}")
    lines.append(report.summary_line())
    return "\n".join(lines) + "\n"


def render_json(report: LintReport) -> str:
    payload = {
        "summary": report.summary(),
        "findings": [f.as_dict() for f in report.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
