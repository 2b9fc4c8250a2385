"""Engine mechanics: noqa suppression scope, parse errors, reporters, CLI."""

import json
import textwrap

import pytest

from repro.analysis.engine import (
    PARSE_RULE_ID,
    LintEngine,
    Severity,
    module_name,
)
from repro.analysis.reporters import LintReport, render_json, render_text
from repro.analysis.rules.clock import WallClockRule
from repro.analysis.rules.rng import RngDisciplineRule


def lint(source: str, rules, module: str = "repro.core.mod"):
    engine = LintEngine(rules=rules)
    return engine.check_source(
        textwrap.dedent(source), path="mod.py", module=module
    )


BOTH_RULES_SOURCE = """\
import random
import time


def f():
    return random.random() + time.time(){noqa}
"""


def test_line_violating_two_rules_yields_two_findings():
    findings = lint(
        BOTH_RULES_SOURCE.format(noqa=""),
        [RngDisciplineRule(), WallClockRule()],
    )
    assert sorted(f.rule for f in findings) == ["REPRO-CLOCK", "REPRO-RNG"]


def test_noqa_silences_exactly_the_named_rule_on_that_line():
    findings = lint(
        BOTH_RULES_SOURCE.format(noqa="  # repro: noqa[REPRO-RNG]"),
        [RngDisciplineRule(), WallClockRule()],
    )
    # REPRO-RNG is silenced; the co-located REPRO-CLOCK finding survives.
    assert [f.rule for f in findings] == ["REPRO-CLOCK"]


def test_noqa_accepts_comma_separated_rule_ids():
    findings = lint(
        BOTH_RULES_SOURCE.format(
            noqa="  # repro: noqa[REPRO-RNG, REPRO-CLOCK]"
        ),
        [RngDisciplineRule(), WallClockRule()],
    )
    assert findings == []


def test_noqa_on_another_line_does_not_suppress():
    source = """\
    import random

    # repro: noqa[REPRO-RNG]
    x = random.random()
    """
    findings = lint(source, [RngDisciplineRule()])
    assert [f.rule for f in findings] == ["REPRO-RNG"]


def test_noqa_inside_a_string_literal_is_not_a_suppression():
    source = """\
    import random

    x = random.random(); s = "# repro: noqa[REPRO-RNG]"
    """
    findings = lint(source, [RngDisciplineRule()])
    assert [f.rule for f in findings] == ["REPRO-RNG"]


def test_suppressions_are_counted(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        "import random\n"
        "x = random.random()  # repro: noqa[REPRO-RNG]\n",
        encoding="utf-8",
    )
    result = LintEngine(
        rules=[RngDisciplineRule()], root=tmp_path
    ).run([target])
    assert result.findings == []
    assert result.suppressed == 1
    assert result.files_checked == 1


def test_syntax_error_becomes_parse_finding(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def f(:\n    pass\n", encoding="utf-8")
    result = LintEngine(rules=[], root=tmp_path).run([target])
    assert [f.rule for f in result.findings] == [PARSE_RULE_ID]
    assert result.findings[0].severity is Severity.ERROR


def test_module_name_inference():
    assert module_name("src/repro/serve/engine.py") == "repro.serve.engine"
    assert module_name("src/repro/perf/export.py") == "repro.perf.export"
    assert module_name("scripts/calibrate.py") is None


def test_findings_are_sorted_by_path_line_rule(tmp_path):
    (tmp_path / "b.py").write_text(
        "import random\nx = random.random()\n", encoding="utf-8"
    )
    (tmp_path / "a.py").write_text(
        "import random\ny = random.choice([1])\n", encoding="utf-8"
    )
    result = LintEngine(
        rules=[RngDisciplineRule()], root=tmp_path
    ).run([tmp_path])
    assert [f.path for f in result.findings] == ["a.py", "b.py"]


# -- reporters ---------------------------------------------------------------


def _report_with_one_finding():
    findings = lint(
        BOTH_RULES_SOURCE.format(noqa=""), [WallClockRule()]
    )
    return LintReport(findings=findings, files_checked=1)


def test_text_reporter_shows_location_rule_and_context():
    text = render_text(_report_with_one_finding())
    assert "mod.py:6: REPRO-CLOCK error:" in text
    assert "return random.random() + time.time()" in text
    assert "FAILED" in text


def test_json_reporter_is_machine_readable():
    payload = json.loads(render_json(_report_with_one_finding()))
    assert payload["summary"]["errors"] == 1
    assert payload["summary"]["exit_code"] == 1
    (finding,) = payload["findings"]
    assert finding["rule"] == "REPRO-CLOCK"
    assert finding["path"] == "mod.py"
    assert finding["line"] == 6


def test_warnings_do_not_fail_the_exit_code():
    finding = lint(BOTH_RULES_SOURCE.format(noqa=""), [WallClockRule()])[0]
    downgraded = LintReport(
        findings=[
            type(finding)(
                rule=finding.rule,
                severity=Severity.WARNING,
                path=finding.path,
                line=finding.line,
                message=finding.message,
                context=finding.context,
            )
        ]
    )
    assert downgraded.exit_code == 0
    assert len(downgraded.warnings) == 1


# -- CLI ---------------------------------------------------------------------


@pytest.fixture
def bad_file(tmp_path):
    target = tmp_path / "bad.py"
    target.write_text(
        "import random\nx = random.random()\n", encoding="utf-8"
    )
    return target


def test_cli_exits_nonzero_on_new_error(bad_file, tmp_path, capsys):
    from repro.analysis.cli import main

    assert main([str(bad_file), "--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "REPRO-RNG" in out
    assert "FAILED" in out


def test_cli_exits_zero_on_clean_tree(tmp_path, capsys):
    from repro.analysis.cli import main

    good = tmp_path / "good.py"
    good.write_text("import numpy as np\nrng = np.random.default_rng(0)\n",
                    encoding="utf-8")
    assert main([str(good), "--root", str(tmp_path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_output_writes_json_report(bad_file, tmp_path, capsys):
    from repro.analysis.cli import main

    report_path = tmp_path / "lint_report.json"
    rc = main([
        str(bad_file), "--root", str(tmp_path),
        "--format", "json", "--output", str(report_path),
    ])
    assert rc == 1
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["summary"]["errors"] == 1
    # The summary line still lands on stdout for CI logs.
    assert "repro lint:" in capsys.readouterr().out


def test_repro_cli_lint_subcommand_is_wired(bad_file, tmp_path, capsys):
    from repro.cli import main as repro_main

    assert repro_main(["lint", str(bad_file), "--root", str(tmp_path)]) == 1
    assert "REPRO-RNG" in capsys.readouterr().out
