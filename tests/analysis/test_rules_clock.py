"""REPRO-CLOCK: true positives and false positives."""

import textwrap

from repro.analysis.engine import LintEngine
from repro.analysis.rules.clock import WallClockRule


def lint(source: str, module: str = "repro.core.mod", path: str = "mod.py"):
    engine = LintEngine(rules=[WallClockRule()])
    return engine.check_source(
        textwrap.dedent(source), path=path, module=module
    )


# -- true positives ----------------------------------------------------------


def test_time_time_is_flagged():
    findings = lint("""\
    import time

    stamp = time.time()
    """)
    assert [f.rule for f in findings] == ["REPRO-CLOCK"]
    assert "time.time()" in findings[0].message


def test_time_module_alias_is_flagged():
    findings = lint("""\
    import time as clk

    stamp = clk.time()
    """)
    assert len(findings) == 1


def test_from_time_import_time_is_flagged():
    findings = lint("""\
    from time import time

    stamp = time()
    """)
    assert len(findings) == 1


def test_datetime_now_and_utcnow_are_flagged():
    findings = lint("""\
    from datetime import datetime

    a = datetime.now()
    b = datetime.utcnow()
    """)
    assert len(findings) == 2


def test_date_today_is_flagged():
    findings = lint("""\
    from datetime import date

    d = date.today()
    """)
    assert len(findings) == 1


def test_datetime_module_attribute_form_is_flagged():
    findings = lint("""\
    import datetime

    a = datetime.datetime.now()
    b = datetime.date.today()
    """)
    assert len(findings) == 2


def test_fixture_paths_without_repro_module_are_not_exempt():
    findings = lint("""\
    import time

    stamp = time.time()
    """, module=None, path="scripts/tool.py")
    assert len(findings) == 1


# -- false positives ---------------------------------------------------------


def test_perf_and_serve_modules_are_allowlisted():
    source = """\
    import time

    stamp = time.time()
    """
    assert lint(source, module="repro.perf.registry") == []
    assert lint(source, module="repro.serve.engine") == []
    # The worker pool reads wall clocks for request latency accounting;
    # pin that it stays covered by the repro.serve allowlist prefix.
    assert lint(source, module="repro.serve.pool") == []


def test_allowlist_applies_via_path_inference():
    source = """\
    import time

    stamp = time.time()
    """
    assert lint(source, module=None, path="src/repro/perf/custom.py") == []


def test_monotonic_clocks_are_always_fine():
    assert lint("""\
    import time

    t0 = time.perf_counter()
    t1 = time.monotonic()
    dt = time.perf_counter() - t0
    """) == []


def test_datetime_constructor_and_parsing_are_clean():
    assert lint("""\
    from datetime import datetime

    a = datetime(2024, 1, 1)
    b = datetime.fromisoformat("2024-01-01T00:00:00")
    c = datetime.combine(a.date(), a.time())
    """) == []


def test_unrelated_time_attribute_is_clean():
    assert lint("""\
    def f(row):
        return row.time()
    """) == []
