"""The three workloads: ``build``, ``train`` and ``serve``.

Each workload takes its seed, generates its own inputs from it (a
seeded synthetic corpus), runs set-up ``setup_reps`` times, then repeats
its timed operation for the requested number of seconds. Every set-up
and every repetition is bracketed by the CPU speed probe of
:mod:`speed`, so its time can be reported at the reference speed too.
With tracing on, half the time runs untraced (the baseline for the
tracing overhead) and half runs under :class:`~tracer.Tracer`.

Every function returns a :class:`Result`: ops attempted/failed, the
end-to-end metrics, the per-layer metrics and a human report of the
workload's own headline numbers.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

from repro import perf
from repro.core.config import CorpusConfig, SplitConfig
from repro.core.pipeline import build_dataset
from repro.eval.metrics import EvalReport
from repro.models.registry import TABLE3_ORDER, create_model
from repro.serve import EngineConfig, InferenceEngine, PoolConfig, WorkerPool
from repro.temporal.windows import PostWindow

from speed import normalised, timed_probed
from tracer import Tracer

WORKLOADS = ("build", "train", "serve")

#: Workload sizes. ``full`` is what the benchmark measures; ``toy`` is
#: the same code path at a size the benchmark's own tests can afford.
SIZES = {
    "full": {
        "setup_reps": 3,
        "build_scale": 0.05,
        "warmup_scale": 0.02,
        "train_scale": 0.05,
        "pretrain_steps": 10,
        "pretrain_texts": 1000,
        "epochs": 3,
        "serve_scale": 0.1,
        "rates": (25.0, 50.0, 100.0, 200.0),
        "nominal_rate": 50.0,
        "step_s": 2.0,
        "min_bulk_reps": 3,
    },
    "toy": {
        "setup_reps": 2,
        "build_scale": 0.02,
        "warmup_scale": 0.01,
        "train_scale": 0.02,
        "pretrain_steps": 2,
        "pretrain_texts": 100,
        "epochs": 3,
        "serve_scale": 0.02,
        "rates": (20.0, 40.0),
        "nominal_rate": 20.0,
        "step_s": 0.3,
        "min_bulk_reps": 2,
    },
}

#: Latency limit a serve rate step must meet to count towards max rps.
LATENCY_LIMIT_S = 0.100
#: Sliding serve window length, in posts (the paper's stable window).
WINDOW_POSTS = 5

#: End-to-end metrics, reported by every workload with tracing off.
#: ``op_s`` is the time of one timed operation; each workload estimates
#: it from its repetitions in the way that moved least over seeds on the
#: development host (see README.md).
END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics, reported by every workload with tracing on (0 where
#: the workload leaves the layer idle in its timed part). Times are per
#: timed operation.
PER_LAYER = {
    "corpus.generate_s": "s",
    "corpus.raw_posts": "count",
    "preprocess.clean_s": "s",
    "preprocess.exact_dedup_s": "s",
    "preprocess.near_dedup_s": "s",
    "preprocess.kept_ratio": "fraction",
    "annotation.campaign_s": "s",
    "annotation.kappa": "fraction",
    "core.anonymise_s": "s",
    "core.dataset_s": "s",
    "text.pipeline_fit_s": "s",
    "text.encode_s": "s",
    **{f"models.fit_s.{m}": "s" for m in TABLE3_ORDER},
    **{f"models.fit_self_s.{m}": "s" for m in TABLE3_ORDER},
    "models.mlm_s": "s",
    "models.finetune_s": "s",
    "models.features_s": "s",
    "models.predict_s": "s",
    "boosting.fit_s": "s",
    "nn.forward_s": "s",
    "nn.backward_s": "s",
    "nn.optim_s": "s",
    "nn.batches": "count",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p99_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.batch_forward_ms": "ms",
    "serve.tokenize_hit_ratio": "fraction",
    "serve.pool_windows_per_s": "1/s",
    "serve.generator_lag_ms": "ms",
    "trace.overhead_frac": "fraction",
    "trace.attributed_fraction": "fraction",
    "trace.perf_crosscheck_err": "fraction",
    # The workloads' own headline numbers, from the untraced half.
    "build_s": "s",
    "train_s": "s",
    "macro_f1": "fraction",
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
    "serve_max_rps": "1/s",
    "score_windows_per_s": "1/s",
}

#: Wrapped span → per-layer time metric (summed per timed operation).
LAYER_SPANS = {
    "corpus.generate": "corpus.generate_s",
    "preprocess.clean": "preprocess.clean_s",
    "preprocess.exact_dedup": "preprocess.exact_dedup_s",
    "preprocess.near_dedup": "preprocess.near_dedup_s",
    "annotation.campaign": "annotation.campaign_s",
    "core.anonymise": "core.anonymise_s",
    "core.dataset": "core.dataset_s",
    "text.pipeline_fit": "text.pipeline_fit_s",
    "text.encode": "text.encode_s",
    "models.mlm": "models.mlm_s",
    "models.finetune": "models.finetune_s",
    "models.features": "models.features_s",
    "models.predict": "models.predict_s",
    "boosting.fit": "boosting.fit_s",
    "nn.forward": "nn.forward_s",
    "nn.backward": "nn.backward_s",
    "nn.optim": "nn.optim_s",
}

#: Program ``repro.perf`` span ↔ benchmark wrapper covering the same call.
CROSSCHECK = {"corpus": "corpus.generate", "gbm.fit": "boosting.fit"}
#: Program ``repro.perf`` span → the wrappers it always runs inside:
#: epochs inside fine-tunes; eval passes inside fine-tunes (validation)
#: and predicts.
CONTAINED = {
    "nn.epoch": ("models.finetune",),
    "nn.predict": ("models.finetune", "models.predict"),
}


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, n: int = 1) -> None:
        """Count ``n`` ops; all fail (with a note) when ``ok`` is false."""
        self.attempted += n
        if not ok:
            self.failed += n
            self.notes.append(f"FAILED: {what}")

    def set_op(self, reps: Reps, op_s: float) -> float:
        """Record ``op_s`` and report the raw repetitions. Returns the
        fastest raw repetition, which the workload's own headline
        numbers use."""
        wall = min(reps.walls)
        self.end_to_end["op_s"] = op_s
        self.report.update({
            "op_norm_median_s": (statistics.median(reps.norm), "s"),
            "wall_reps": (len(reps.walls), "count"),
            "wall_min_s": (wall, "s"),
            "wall_median_s": (statistics.median(reps.walls), "s"),
            "wall_max_s": (max(reps.walls), "s"),
            "probe_median_ms": (statistics.median(reps.probes) * 1e3, "ms"),
        })
        return wall

    def record(self, attempted: int, errors: list[str], where: str) -> None:
        """Count ``attempted`` requests, of which ``errors`` failed."""
        self.attempted += attempted
        self.failed += len(errors)
        if errors:
            self.notes.append(f"FAILED: {len(errors)} requests {where}, "
                              f"first: {errors[0]}")


@dataclass
class Reps:
    """Repetitions of a timed operation."""

    walls: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)  # speed around each
    kept: list = field(default_factory=list)

    @property
    def norm(self) -> list[float]:
        return [normalised(w, p) for w, p in zip(self.walls, self.probes)]


def repeat(op, seconds: float, min_reps: int = 1, keep=lambda out: out,
           cpus: set[int] = frozenset()) -> Reps:
    """Run ``op`` until ``seconds`` have passed (at least ``min_reps``).

    Only ``keep(output)`` is retained, computed outside the timed call,
    so a large output does not pile up in memory across repetitions.
    Successive repetitions run on each of ``cpus`` in turn (this thread
    only), starting from the CPU the thread is pinned to, so no run is
    stuck on a CPU another tenant is contending for.
    """
    reps = Reps()
    home = os.sched_getaffinity(0)
    rotation = sorted(cpus, key=lambda cpu: (cpu not in home, cpu)) or [None]
    deadline = time.perf_counter() + seconds
    try:
        while len(reps.walls) < min_reps or time.perf_counter() < deadline:
            cpu = rotation[len(reps.walls) % len(rotation)]
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            out, wall, probe = timed_probed(op)
            reps.walls.append(wall)
            reps.probes.append(probe)
            reps.kept.append(keep(out))
            del out
    finally:
        os.sched_setaffinity(0, home)
    return reps


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (0 for an empty sample)."""
    return float(np.quantile(values, q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def corpus_config(scale: float, seed: int) -> CorpusConfig:
    return dataclasses.replace(CorpusConfig().scaled(scale), seed=seed)


def setup(result: Result, fn, reps: int):
    """Run set-up ``reps`` times and record ``setup_s``, the median
    speed-normalised set-up; returns the last set-up's output."""
    walls, norms, out = [], [], None
    for _ in range(reps):
        out = None  # let the previous set-up's objects go first
        out, wall, probe = timed_probed(fn)
        walls.append(wall)
        norms.append(normalised(wall, probe))
    result.end_to_end["setup_s"] = statistics.median(norms)
    result.report["setup_median_s"] = (statistics.median(walls), "s")
    return out


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op layer times from a traced block of ``ops`` operations."""
    totals = tracer.totals()
    selfs = tracer.self_totals()
    out = {metric: totals.get(span, 0.0) / ops
           for span, metric in LAYER_SPANS.items()}
    for model in TABLE3_ORDER:
        out[f"models.fit_s.{model}"] = totals.get(f"models.fit.{model}", 0.0) / ops
        out[f"models.fit_self_s.{model}"] = (
            selfs.get(f"models.fit.{model}", 0.0) / ops
        )
    out["nn.batches"] = tracer.count("nn.backward") / ops
    return out


def perf_crosscheck(tracer: Tracer) -> tuple[float, list[str]]:
    """Max relative gap between wrapper totals and ``repro.perf`` spans.

    Also checks :data:`CONTAINED`: a program span's total cannot exceed
    that of the wrappers it runs inside.
    """
    spans = perf.snapshot()["spans"]

    def span_total(name: str) -> float:
        return sum(
            s["total_s"] for path, s in spans.items()
            if path == name or path.endswith("/" + name)
        )

    totals = tracer.totals()
    worst, problems = 0.0, []
    for perf_name, wrapper in CROSSCHECK.items():
        program, wrapped = span_total(perf_name), totals.get(wrapper, 0.0)
        if program == 0.0 and wrapped == 0.0:
            continue
        err = abs(wrapped - program) / max(program, 1e-9)
        worst = max(worst, err)
        if err > 0.05:
            problems.append(f"{wrapper} {wrapped:.4f}s vs perf {perf_name} "
                            f"{program:.4f}s")
    for perf_name, wrappers in CONTAINED.items():
        inner = span_total(perf_name)
        outer = sum(totals.get(wrapper, 0.0) for wrapper in wrappers)
        if inner > outer * 1.001 + 1e-4:
            problems.append(f"perf {perf_name} {inner:.4f}s exceeds wrapped "
                            f"{' + '.join(wrappers)} {outer:.4f}s")
    return worst, problems


def traced_block(result: Result, tracer: Tracer, traced: Reps,
                 untraced: Reps, main: int | None = None) -> None:
    """Overhead, attribution and the perf cross-check of a traced block."""
    result.per_layer["trace.overhead_frac"] = (
        statistics.median(traced.norm) / statistics.median(untraced.norm) - 1.0
    )
    result.per_layer["trace.attributed_fraction"] = (
        tracer.attributed_s(main) / sum(traced.walls)
    )
    err, problems = perf_crosscheck(tracer)
    result.per_layer["trace.perf_crosscheck_err"] = err
    result.notes.extend(f"perf cross-check: {p}" for p in problems)


# -- build ---------------------------------------------------------------------


def jsonl_sha256(dataset, scratch: Path) -> str:
    path = scratch / "dataset.jsonl"
    dataset.to_jsonl(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    path.unlink()
    return digest


def run_build(seed: int, seconds: float, trace: bool, size: dict,
              scratch: Path, cpus: set[int]) -> Result:
    """One cold ``build_dataset`` with near-dedup and anonymise on."""
    result = Result()
    # Set-up is a toy build: it pays lazy initialisation (lexicon tables,
    # first numpy calls) so the timed builds are all equally warm.
    setup(result,
          lambda: build_dataset(corpus_config(size["warmup_scale"], seed)),
          size["setup_reps"])
    config = corpus_config(size["build_scale"], seed)

    def op():
        return build_dataset(config)

    def keep(build):
        return jsonl_sha256(build.dataset, scratch), build.report

    budget = seconds / 2 if trace else seconds
    untraced = repeat(op, budget, keep=keep, cpus=cpus)
    builds = list(untraced.kept)
    if trace:
        perf.reset()
        tracer = Tracer()
        with tracer:
            traced = repeat(op, budget, keep=keep, cpus=cpus)
        traced_block(result, tracer, traced, untraced)
        result.per_layer.update(layer_metrics(tracer, len(traced.walls)))
        builds += traced.kept
    digests = [digest for digest, _ in builds]
    for digest in digests:
        result.check(digest == digests[0], "dataset JSONL sha256 differs "
                     "between builds of one seed")
    report = builds[0][1]
    # The build is pure Python, which the speed probe tracks: the median
    # normalised build moved 0.044 (IQR / median) over five seeds, the
    # fastest raw build 0.112.
    wall = result.set_op(untraced, statistics.median(untraced.norm))
    result.per_layer.update({
        "build_s": wall,
        "corpus.raw_posts": float(report.raw_posts),
        "preprocess.kept_ratio": (report.preprocess.output_posts
                                  / report.preprocess.input_posts),
        "annotation.kappa": report.campaign_kappa,
    })
    result.report.update({
        "build_s": (wall, "s"),
        "posts": (report.final_posts, "count"),
        "users": (report.final_users, "count"),
        "kappa": (report.campaign_kappa, "fraction"),
    })
    result.notes.append(f"dataset sha256 {digests[0]}")
    return result


# -- train ----------------------------------------------------------------------


def table3_models(dataset, size: dict) -> list:
    """The five baselines at the fixed training budget, Table III order.

    Every neural model runs exactly ``epochs`` epochs: patience exceeds
    the epoch count, so early stopping never shortens a run and a
    numeric change cannot change the amount of work.
    """
    models = []
    for name in TABLE3_ORDER:
        kwargs = {}
        if name in ("roberta", "deberta"):
            kwargs["pretrain_texts"] = (
                dataset.pretrain_texts[: size["pretrain_texts"]]
            )
            kwargs["pretrain_steps"] = size["pretrain_steps"]
        model = create_model(name, **kwargs)
        if hasattr(model, "trainer"):
            model.trainer = dataclasses.replace(
                model.trainer, epochs=size["epochs"],
                patience=size["epochs"] + 1,
            )
        models.append(model)
    return models


def label_complete_splits(dataset, seed: int):
    """The first user split, from split seed ``seed`` upwards, whose
    training part holds every label of the dataset.

    At the benchmark's scale a split can leave a label out of training
    (1 seed in 16 did), and the gradient-boosting baseline then fails on
    a validation label it never saw.
    """
    for split_seed in range(seed, seed + 100):
        splits = dataset.splits(split_config=SplitConfig(seed=split_seed))
        labels = {int(w.label) for part in (splits.train, splits.validation,
                                            splits.test) for w in part}
        if {int(w.label) for w in splits.train} == labels:
            return splits
    raise ValueError(f"no split of seed {seed}'s dataset trains on every label")


def prediction_digest(predictions: np.ndarray) -> str:
    return hashlib.sha256(
        np.asarray(predictions, dtype=np.int64).tobytes()
    ).hexdigest()


def run_train(seed: int, seconds: float, trace: bool, size: dict,
              scratch: Path, cpus: set[int]) -> Result:
    """Fit + predict of the five Table III baselines at a fixed budget."""
    result = Result()

    def build_splits():
        build = build_dataset(corpus_config(size["train_scale"], seed),
                              near_dedup=False)
        return build.dataset, label_complete_splits(build.dataset, seed)

    dataset, splits = setup(result, build_splits, size["setup_reps"])
    y_test = np.array([int(w.label) for w in splits.test])

    def op():
        out = {}
        for model in table3_models(dataset, size):
            model.fit(splits.train, splits.validation)
            out[model.name.lower()] = model.predict(splits.test)
        return out

    budget = seconds / 2 if trace else seconds
    # Always 3 passes: when a pass took over a third of the budget, the
    # fastest of the 2 that fit read 10% slower (IQR / median 0.10 over
    # ten seeds).
    untraced = repeat(op, budget, min_reps=3, cpus=cpus)
    runs = list(untraced.kept)
    if trace:
        perf.reset()
        tracer = Tracer()
        with tracer:
            traced = repeat(op, budget, cpus=cpus)
        traced_block(result, tracer, traced, untraced)
        result.per_layer.update(layer_metrics(tracer, len(traced.walls)))
        runs += traced.kept
    first = runs[0]
    for run in runs:
        for name, predictions in run.items():
            result.check(
                prediction_digest(predictions) == prediction_digest(first[name]),
                f"{name} test predictions differ between fits of one seed",
            )
    f1 = {
        name: EvalReport.compute(name, y_test, predictions).macro_f1
        for name, predictions in first.items()
    }
    macro = float(np.mean(list(f1.values())))
    # A pass is mostly numpy, which the pure-Python speed probe does not
    # track: over six seeds the fastest raw pass moved 0.038 (IQR /
    # median), the median normalised one 0.056.
    wall = result.set_op(untraced, min(untraced.walls))
    result.per_layer["train_s"] = wall
    result.per_layer["macro_f1"] = macro
    result.report.update({
        "train_s": (wall, "s"),
        "macro_f1": (macro, "fraction"),
        **{f"macro_f1.{name}": (value, "fraction") for name, value in f1.items()},
    })
    return result


# -- serve ----------------------------------------------------------------------


def sliding_windows(dataset) -> list[PostWindow]:
    """One window per post (the post plus up to 4 before it), in post
    timestamp order: the traffic a monitoring service sees."""
    windows = []
    for author, history in dataset.histories().items():
        posts = history.posts
        for i, post in enumerate(posts):
            windows.append(PostWindow(
                author=author,
                posts=tuple(posts[max(0, i - WINDOW_POSTS + 1): i + 1]),
                label=dataset.labels[post.post_id],
            ))
    windows.sort(key=lambda w: (w.latest.created_utc, w.latest.post_id))
    return windows


def latest_windows(windows: list[PostWindow]) -> list[PostWindow]:
    """Each user's newest window, in author order."""
    latest = {w.author: w for w in windows}
    return [latest[a] for a in sorted(latest)]


@dataclass
class Step:
    """One open-loop rate step."""

    rate: float
    latencies: list[float]     # completion − due time, seconds
    lags: list[float]          # submit − due time, seconds
    queue_waits: list[float]
    drain_s: float             # last completion − last due time
    errors: list[str]          # requests that failed or never resolved

    @property
    def generator_behind(self) -> bool:
        return max(self.lags) > 1.0 / self.rate

    @property
    def meets_limit(self) -> bool:
        return (
            not self.errors
            and quantile(self.latencies, 0.99) <= LATENCY_LIMIT_S
            and self.drain_s <= LATENCY_LIMIT_S
        )


def open_loop(engine: InferenceEngine, traffic: list[PostWindow],
              offset: int, rate: float, duration: float) -> Step:
    """Submit ``rate × duration`` windows on a fixed schedule, from this
    thread, and time each one from when it was due."""
    n = max(1, int(round(rate * duration)))
    done = [0.0] * n
    finished = threading.Semaphore(0)

    def on_done(_, i):
        # Runs after the result is set, so completion is timed here and
        # waited for through the semaphore, not through future.result().
        done[i] = time.perf_counter()
        finished.release()

    futures, dues, lags = [], [], []
    start = time.perf_counter() + 0.005
    for i in range(n):
        due = start + i / rate
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        lags.append(time.perf_counter() - due)
        future = engine.submit(traffic[(offset + i) % len(traffic)])
        future.add_done_callback(lambda f, i=i: on_done(f, i))
        futures.append(future)
        dues.append(due)
    deadline = time.perf_counter() + 60.0
    for _ in range(n):
        if not finished.acquire(timeout=max(0.0, deadline - time.perf_counter())):
            break
    ok, errors = [], []
    for i, future in enumerate(futures):
        if not done[i]:
            errors.append("not resolved within 60 s")
        elif future.exception() is not None:
            errors.append(repr(future.exception()))
        else:
            ok.append(i)
    return Step(
        rate=rate,
        latencies=[done[i] - dues[i] for i in ok],
        lags=lags,
        queue_waits=[futures[i].trace.queue_wait_s for i in ok],
        drain_s=max(done) - dues[-1],
        errors=errors,
    )


def sweep(engine, traffic, size: dict,
          result: Result) -> tuple[dict[str, float], int]:
    """Open loop at each fixed rate; latency at the nominal rate and the
    highest rate that meets the limit without a growing backlog, plus
    how many traffic windows the sweep used."""
    offset, best, nominal = 0, 0.0, None
    for rate in size["rates"]:
        step = open_loop(engine, traffic, offset, rate, size["step_s"])
        offset += len(step.lags)
        result.record(len(step.lags), step.errors, f"at {rate:g}/s")
        if step.generator_behind:
            # Reported, not averaged away: this step cannot certify its rate.
            result.notes.append(
                f"generator fell behind at {rate:g}/s: max lag "
                f"{max(step.lags) * 1e3:.1f} ms > gap {1e3 / rate:.1f} ms"
            )
        elif step.meets_limit:
            best = max(best, rate)
        if rate == size["nominal_rate"]:
            nominal = step
    return {
        "serve_p50_ms": quantile(nominal.latencies, 0.5) * 1e3,
        "serve_p99_ms": quantile(nominal.latencies, 0.99) * 1e3,
        "serve_max_rps": best,
    }, offset


def run_serve(seed: int, seconds: float, trace: bool, size: dict,
              scratch: Path, cpus: set[int]) -> Result:
    """User-monitoring traffic on DeBERTa through the inference engine."""
    result = Result()

    def fit():
        build = build_dataset(corpus_config(size["serve_scale"], seed),
                              near_dedup=False)
        splits = build.dataset.splits(split_config=SplitConfig(seed=seed))
        # Serving cost depends on tensor shapes, not on weight values,
        # so one epoch without pretraining stands in for a full fit.
        model = create_model("deberta", pretrain_steps=0, seed=seed)
        model.trainer = dataclasses.replace(model.trainer, epochs=1)
        model.fit(splits.train, splits.validation)
        return model, sliding_windows(build.dataset)

    model, traffic = setup(result, fit, size["setup_reps"])
    bulk = latest_windows(traffic)
    expected = model.predict_proba(bulk).argmax(axis=1)
    engine = InferenceEngine(model, EngineConfig())

    def score():
        return engine.predict_many(bulk).argmax(axis=1)

    try:
        start = time.perf_counter()
        latency, offset = sweep(engine, traffic, size, result)
        result.per_layer.update(latency)
        budget = (seconds / 2 if trace else seconds) - (time.perf_counter() - start)
        untraced = repeat(score, budget, size["min_bulk_reps"], cpus=cpus)
        labels = list(untraced.kept)
        if trace:
            perf.reset()
            tracer = Tracer()
            main = threading.get_ident()
            cache = engine.tokenization_cache.stats()
            batches = engine.stats()
            with tracer:
                # Windows the sweep has not sent: their older posts are
                # cached, their newest post is not.
                step = open_loop(engine, traffic, offset,
                                 size["nominal_rate"], size["step_s"])
            result.record(len(step.lags), step.errors, "in the traced step")
            after = engine.stats()
            hits = after["tokenization_cache"]["hits"] - cache["hits"]
            misses = after["tokenization_cache"]["misses"] - cache["misses"]
            forwards = [s.duration for s in tracer.spans
                        if s.name == "models.predict" and s.thread != main]
            result.per_layer.update({
                "serve.queue_wait_p50_ms": quantile(step.queue_waits, 0.5) * 1e3,
                "serve.queue_wait_p99_ms": quantile(step.queue_waits, 0.99) * 1e3,
                "serve.batch_size_mean": (
                    (after["batched_items"] - batches["batched_items"])
                    / max(1, after["batches"] - batches["batches"])
                ),
                "serve.batch_forward_ms": (
                    statistics.fmean(forwards) * 1e3 if forwards else 0.0
                ),
                "serve.tokenize_hit_ratio": hits / max(1, hits + misses),
                "serve.generator_lag_ms": quantile(step.lags, 0.99) * 1e3,
            })
            tracer.clear()
            perf.reset()
            with tracer:
                traced = repeat(score, 0.0, size["min_bulk_reps"], cpus=cpus)
            traced_block(result, tracer, traced, untraced, main)
            layers = layer_metrics(tracer, len(traced.walls))
            layers.pop("nn.batches")
            result.per_layer.update(layers)
            labels += traced.kept
    finally:
        engine.close()
    for got in labels:
        result.check(np.array_equal(got, expected), "bulk labels differ from "
                     "argmax of model.predict_proba", n=len(bulk))
    if trace:
        result.per_layer["serve.pool_windows_per_s"] = pool_throughput(
            model, bulk, expected, size, cpus, result
        )
    # The bulk pass is numpy-bound, which the pure-Python speed probe does
    # not track: the fastest raw pass moved 0.022 (IQR / median) over five
    # seeds, the median normalised one 0.135.
    rate = len(bulk) / result.set_op(untraced, min(untraced.walls))
    result.per_layer["score_windows_per_s"] = rate
    result.report.update({
        "serve_p50_ms": (result.per_layer["serve_p50_ms"], "ms"),
        "serve_p99_ms": (result.per_layer["serve_p99_ms"], "ms"),
        "serve_max_rps": (result.per_layer["serve_max_rps"], "1/s"),
        "score_windows_per_s": (rate, "1/s"),
        "traffic_windows": (len(traffic), "count"),
        "bulk_windows": (len(bulk), "count"),
    })
    return result


def pool_throughput(model, bulk, expected, size: dict, cpus: set[int],
                    result: Result) -> float:
    """``WorkerPool.predict_many`` windows/s with one worker per CPU in
    ``cpus`` (the benchmark itself may be pinned to one of them)."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)  # spawned workers inherit the mask
    try:
        with WorkerPool(model, PoolConfig(num_workers=len(cpus))) as pool:
            pool.predict_many(bulk)  # waits for the workers to come up
            reps = repeat(lambda: pool.predict_many(bulk).argmax(axis=1),
                          0.0, size["min_bulk_reps"])
    finally:
        os.sched_setaffinity(0, pinned)
    for got in reps.kept:
        result.check(np.array_equal(got, expected),
                     "pool labels differ from the model's", n=len(bulk))
    return len(bulk) / min(reps.walls)


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if the worker pool started
    it, and wait for it to exit. The pool's queues must be gone first, or
    the tracker reports their semaphores as leaked."""
    gc.collect()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


RUNNERS = {"build": run_build, "train": run_train, "serve": run_serve}


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str, root: Path, cpus: set[int] | None = None) -> Result:
    """Run one workload; ``cpus`` are the CPUs the worker pool may use
    (default: those this process may use)."""
    scratch = root / ".repobench"
    scratch.mkdir(exist_ok=True)
    cpus = cpus or os.sched_getaffinity(0)
    try:
        result = RUNNERS[workload](seed, seconds, trace, SIZES[size], scratch,
                                   cpus)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        stop_resource_tracker()
    result.end_to_end["peak_rss_mb"] = peak_rss_mb()
    if trace:
        for name in PER_LAYER:
            result.per_layer.setdefault(name, 0.0)
    return result
