"""Result export: the markdown rendering of eval reports."""

from __future__ import annotations

from collections.abc import Sequence

from repro.eval.metrics import EvalReport

_COLUMNS = (
    "Model", "Acc_pct", "MacroF1_pct",
    "IN_F1_pct", "ID_F1_pct", "BR_F1_pct", "AT_F1_pct",
)


def to_markdown(reports: Sequence[EvalReport]) -> str:
    """GitHub-flavoured markdown table in the paper's column order."""
    header = "| " + " | ".join(_COLUMNS) + " |"
    rule = "|" + "|".join("---" for _ in _COLUMNS) + "|"
    lines = [header, rule]
    for report in reports:
        row = report.as_row()
        cells = [
            str(row[c]) if c == "Model" else f"{row[c]:.1f}" for c in _COLUMNS
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
