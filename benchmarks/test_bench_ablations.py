"""Benchmark: design-choice ablations (feature dims, window, voting, MLM)."""

from repro.experiments import ablations


def test_bench_ablation_feature_dimensions(benchmark, bench_scale, capsys):
    rows = benchmark.pedantic(
        ablations.feature_dimension_ablation,
        args=(bench_scale,),
        rounds=1,
        iterations=1,
    )
    assert len(rows) == 4  # all + three single dimensions
    full = rows[0]
    # All features together should not lose to any single dimension badly.
    assert 100 * full.accuracy >= max(100 * r.accuracy for r in rows[1:]) - 10.0
    with capsys.disabled():
        print()
        print(ablations.render(rows))


def test_bench_ablation_window_size(benchmark, bench_scale, capsys):
    rows = benchmark.pedantic(
        ablations.window_size_ablation, args=(bench_scale,), rounds=1, iterations=1
    )
    assert len(rows) == 3
    with capsys.disabled():
        print()
        print(ablations.render(rows))


def test_bench_ablation_voting(benchmark, bench_scale, capsys):
    stats = benchmark.pedantic(
        ablations.voting_ablation, args=(bench_scale,), rounds=1, iterations=1
    )
    # Voting + expert review must produce cleaner labels than solo work.
    assert stats["voted_noise"] <= stats["solo_noise"]
    with capsys.disabled():
        print()
        print("voting ablation:", {k: round(v, 4) for k, v in stats.items()})


def test_bench_ablation_embedding_init(benchmark, bench_scale, capsys):
    rows = benchmark.pedantic(
        ablations.embedding_init_ablation,
        args=(bench_scale,),
        rounds=1,
        iterations=1,
    )
    assert len(rows) == 2
    with capsys.disabled():
        print()
        print(ablations.render(rows))


def test_bench_ablation_pretraining(benchmark, bench_scale, capsys):
    rows = benchmark.pedantic(
        ablations.pretraining_ablation, args=(bench_scale,), rounds=1, iterations=1
    )
    assert len(rows) == 2
    with capsys.disabled():
        print()
        print(ablations.render(rows))
