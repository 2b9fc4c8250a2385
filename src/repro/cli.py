"""Command-line interface: ``python -m repro <command>``.

Commands
--------
build       Build a dataset and write it to JSONL.
stats       Print Table-I-style statistics of a JSONL dataset.
evaluate    Train a baseline on a freshly built dataset and report metrics.
bench       Run one paper experiment (table1..table4, fig1, fig23, fig4,
            kappa, ablations, stability, evolution) at --scale/--seed.
            This is the one entry point to the paper's evaluation.
metrics     Exercise the serving stack, then export telemetry as
            Prometheus exposition text or a JSON snapshot (or render a
            previously saved snapshot with --input).
lint        Run the repo's AST static-analysis rules (REPRO-LOCK,
            REPRO-RNG, REPRO-TWIN, REPRO-CLOCK, REPRO-METRIC,
            REPRO-EXCEPT) over src/ or the given paths.
"""

from __future__ import annotations

import argparse
import sys

from repro import experiments, perf
from repro.core.config import CorpusConfig
from repro.core.dataset import RSD15K
from repro.core.errors import ReproError
from repro.core.pipeline import build_dataset
from repro.core.rng import DEFAULT_SEED

#: ``bench`` experiment name → its module in ``repro.experiments``.
BENCH_EXPERIMENTS = {
    "table1": "table1_distribution",
    "table2": "table2_comparison",
    "table3": "table3_baselines",
    "table4": "table4_scale",
    "fig1": "fig1_posts_per_user",
    "fig23": "fig23_wordclouds",
    "fig4": "fig4_top_users",
    "kappa": "kappa_consistency",
    "ablations": "ablations",
    "stability": "stability",
    "evolution": "evolution_analysis",
}


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", type=float, default=0.1,
        help="corpus fraction (1.0 = paper-sized 14,613 posts)",
    )
    parser.add_argument("--seed", type=int, default=None)


def _config(args) -> CorpusConfig:
    config = CorpusConfig() if args.seed is None else CorpusConfig(seed=args.seed)
    if args.scale != 1.0:
        config = config.scaled(args.scale)
    return config


def cmd_build(args) -> int:
    result = build_dataset(_config(args))
    result.dataset.to_jsonl(args.output)
    print(f"wrote {result.dataset.num_posts} posts "
          f"({result.dataset.num_users} users) to {args.output}")
    print(f"campaign kappa: {result.dataset.kappa:.4f}")
    return 0


def cmd_datacard(args) -> int:
    from repro.core.datacard import render_datacard

    dataset = RSD15K.from_jsonl(args.dataset)
    card = render_datacard(dataset)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(card, encoding="utf-8")
        print(f"wrote datasheet to {args.output}")
    else:
        print(card)
    return 0


def cmd_stats(args) -> int:
    dataset = RSD15K.from_jsonl(args.dataset)
    print(f"posts: {dataset.num_posts}   users: {dataset.num_users}")
    for label, count, pct in dataset.label_distribution().as_rows():
        print(f"  {label:<10} {count:>7}  {pct:5.2f}%")
    counts = sorted(dataset.posts_per_user().values())
    under_20 = sum(1 for c in counts if c < 20) / len(counts)
    print(f"posts/user: median {counts[len(counts) // 2]}, "
          f"max {counts[-1]}, <20: {100 * under_20:.1f}%")
    return 0


def cmd_evaluate(args) -> int:
    from repro.eval.reporting import to_markdown
    from repro.eval.runner import run_jobs
    from repro.experiments.table3_baselines import baseline_kwargs
    from repro.models import create_model

    dataset = build_dataset(_config(args)).dataset
    model = create_model(args.model, **baseline_kwargs(args.model, dataset))
    print(to_markdown(run_jobs([(model, dataset.splits())])))
    return 0


def cmd_bench(args) -> int:
    module = getattr(experiments, BENCH_EXPERIMENTS[args.experiment])
    seed = DEFAULT_SEED if args.seed is None else args.seed
    module.main(args.scale, seed)
    return 0


def _serve_exercise(args):
    """Train a model and push ``--requests`` async requests through an
    engine, so the registry holds real serve counters, gauges, span and
    latency histograms. Returns the closed engine (its stats stay
    readable)."""
    from repro.models import create_model
    from repro.serve import EngineConfig, InferenceEngine

    result = build_dataset(_config(args))
    splits = result.dataset.splits()
    model = create_model(args.model)
    model.fit(splits.train, splits.validation)
    traffic = [splits.test[i % len(splits.test)]
               for i in range(args.requests)]
    engine = InferenceEngine(
        model, EngineConfig(max_batch_size=args.batch_size)
    )
    with engine:
        futures = [engine.submit(w) for w in traffic]
        for future in futures:
            future.result(timeout=60.0)
    return engine


def cmd_metrics(args) -> int:
    import json as _json

    from repro.perf import json_snapshot, render_prometheus, validate_prometheus

    if args.input:
        from pathlib import Path

        snap = _json.loads(Path(args.input).read_text(encoding="utf-8"))
        perf_snapshot = snap.get("perf", snap)
    else:
        engine = _serve_exercise(args)
        snap = json_snapshot(
            perf.get_registry(), extra={"engine_stats": engine.stats()}
        )
        perf_snapshot = snap["perf"]

    if args.format == "prometheus":
        text = render_prometheus(perf_snapshot)
        validate_prometheus(text)
    else:
        text = _json.dumps(snap, indent=2) + "\n"
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.format} metrics to {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_lint(args) -> int:
    from repro.analysis.cli import run_from_args

    return run_from_args(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="RSD-15K reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a dataset, write JSONL")
    _add_scale(p_build)
    p_build.add_argument("--output", default="rsd15k.jsonl")
    p_build.set_defaults(func=cmd_build)

    p_stats = sub.add_parser("stats", help="statistics of a JSONL dataset")
    p_stats.add_argument("dataset")
    p_stats.set_defaults(func=cmd_stats)

    p_card = sub.add_parser(
        "datacard", help="render a datasheet for a JSONL dataset"
    )
    p_card.add_argument("dataset")
    p_card.add_argument("--output", default=None)
    p_card.set_defaults(func=cmd_datacard)

    p_eval = sub.add_parser("evaluate", help="train + evaluate a baseline")
    _add_scale(p_eval)
    p_eval.add_argument(
        "--model", default="xgboost",
        choices=["xgboost", "bilstm", "higru", "roberta", "deberta", "logreg"],
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_bench = sub.add_parser("bench", help="run one paper experiment")
    p_bench.add_argument("experiment", choices=list(BENCH_EXPERIMENTS))
    _add_scale(p_bench)
    p_bench.set_defaults(func=cmd_bench, scale=experiments.BENCH_SCALE)

    p_metrics = sub.add_parser(
        "metrics",
        help="exercise the serving stack and export telemetry "
             "(Prometheus text or JSON snapshot)",
    )
    _add_scale(p_metrics)
    p_metrics.add_argument(
        "--model", default="logreg",
        choices=["xgboost", "bilstm", "higru", "roberta", "deberta", "logreg"],
    )
    p_metrics.add_argument("--requests", type=int, default=96,
                           help="async requests pushed through the engine")
    p_metrics.add_argument("--batch-size", type=int, default=16,
                           help="engine max_batch_size")
    p_metrics.add_argument("--format", default="prometheus",
                           choices=["prometheus", "json"])
    p_metrics.add_argument("--output", default=None,
                           help="write to this file instead of stdout")
    p_metrics.add_argument(
        "--input", default=None,
        help="render a previously saved JSON snapshot instead of "
             "running the serve exercise",
    )
    p_metrics.set_defaults(func=cmd_metrics, scale=0.05)

    from repro.analysis.cli import add_lint_arguments

    p_lint = sub.add_parser(
        "lint",
        help="run the repro static-analysis rules "
             "(see docs/static_analysis.md)",
    )
    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # Bad input (a scale outside (0, 1], a malformed dataset file)
        # is reported like an argparse error, not as a traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    finally:
        # REPRO_PERF=1 appends the span report to any command's output —
        # on error paths too (a failed run is exactly when the profile
        # is needed).
        if perf.enabled():
            print()
            print("perf profile")
            print(perf.render())


if __name__ == "__main__":
    sys.exit(main())
