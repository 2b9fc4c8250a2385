"""The repo's own sources must satisfy the repro lint rules.

This is the dogfood gate: ``src/`` must be clean (mirroring the CI lint
job, where any finding fails), and the RNG discipline audited for
``tests/`` and ``scripts/`` stays a regression test rather than a
one-off sweep.
"""

from pathlib import Path

from repro.analysis.engine import LintEngine
from repro.analysis.rules.rng import RngDisciplineRule

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_is_clean():
    result = LintEngine(root=REPO_ROOT).run([REPO_ROOT / "src"])
    assert result.findings == [], [f.as_dict() for f in result.findings]


def test_no_legacy_rng_in_tests_or_scripts():
    engine = LintEngine(rules=[RngDisciplineRule()], root=REPO_ROOT)
    result = engine.run([REPO_ROOT / "tests", REPO_ROOT / "scripts"])
    assert result.findings == [], [f.as_dict() for f in result.findings]
