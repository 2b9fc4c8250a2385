"""Benchmark: regenerate Table III (five-baseline comparison).

One benchmark per baseline so training cost is reported per model; a
final aggregation test prints the full table and checks the paper's
headline ordering (PLMs above every non-PLM baseline).
"""

import pytest

from repro.eval.metrics import EvalReport
from repro.eval.runner import evaluate
from repro.experiments.table3_baselines import (
    PAPER_TABLE3,
    Table3Result,
    baseline_kwargs,
    render,
)
from repro.models.registry import TABLE3_ORDER, create_model

_REPORTS: dict[str, EvalReport] = {}


def _train_and_eval(name, dataset, splits):
    model = create_model(name, **baseline_kwargs(name, dataset))
    return evaluate(model, splits)


@pytest.mark.parametrize("name", TABLE3_ORDER)
def test_bench_table3_model(benchmark, build, name):
    dataset = build.dataset
    splits = dataset.splits()
    report = benchmark.pedantic(
        _train_and_eval, args=(name, dataset, splits), rounds=1, iterations=1
    )
    _REPORTS[report.model] = report
    assert 0.0 <= report.accuracy <= 1.0
    assert set(report.class_f1) == {lv for lv in report.class_f1}


def test_bench_table3_summary(benchmark, capsys):
    # Uses the benchmark fixture so --benchmark-only does not skip it;
    # the "benchmark" is just assembling the result table.
    if len(_REPORTS) < len(TABLE3_ORDER):
        pytest.skip("per-model benches did not all run")
    result = benchmark.pedantic(
        lambda: Table3Result(
            reports=[_REPORTS[m] for m in PAPER_TABLE3 if m in _REPORTS]
        ),
        rounds=1,
        iterations=1,
    )
    with capsys.disabled():
        print()
        print(render(result))
        print("PLMs beat non-PLM baselines:", result.plm_beats_others)
    # Paper's headline hierarchy: each PLM above every non-PLM baseline.
    assert result.plm_beats_others
