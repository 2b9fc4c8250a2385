"""InferenceEngine: batching, caching, lifecycle, output integrity."""

import time

import numpy as np
import pytest

from repro import perf
from repro.core.errors import ModelError
from repro.models import create_model
from repro.serve import EngineConfig, InferenceEngine


@pytest.fixture(scope="module")
def fitted_logreg(small_splits):
    model = create_model("logreg")
    model.fit(small_splits.train, small_splits.validation)
    return model


@pytest.fixture()
def engine(fitted_logreg):
    with InferenceEngine(fitted_logreg, EngineConfig(max_batch_size=8)) as eng:
        yield eng


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(max_batch_size=0)
    with pytest.raises(ValueError):
        EngineConfig(max_wait_s=-1.0)


def test_multiple_workers_match_direct(fitted_logreg, small_splits):
    windows = small_splits.test
    direct = fitted_logreg.predict_proba(windows)
    config = EngineConfig(max_batch_size=2, max_wait_s=0.01)
    with InferenceEngine(fitted_logreg, config) as eng:
        futures = [eng.submit(w) for w in windows]
        rows = np.vstack([f.result(timeout=10.0) for f in futures])
    np.testing.assert_allclose(rows, direct, atol=1e-12)


def test_requires_fitted_model():
    with pytest.raises(ModelError):
        InferenceEngine(create_model("logreg"))


def test_predict_many_matches_predict_proba(engine, fitted_logreg, small_splits):
    windows = small_splits.test
    direct = fitted_logreg.predict_proba(windows)
    batched = engine.predict_many(windows)
    np.testing.assert_allclose(batched, direct, atol=1e-12)
    np.testing.assert_array_equal(
        batched.argmax(axis=1), direct.argmax(axis=1)
    )


def test_predict_many_empty(engine):
    assert engine.predict_many([]).shape[0] == 0


def test_predict_labels(engine, fitted_logreg, small_splits):
    labels = engine.predict_labels(small_splits.test)
    expected = fitted_logreg.predict_proba(small_splits.test).argmax(axis=1)
    np.testing.assert_array_equal(labels, expected)


def test_async_submit_matches_direct(engine, fitted_logreg, small_splits):
    windows = small_splits.test[:6]
    futures = [engine.submit(w) for w in windows]
    rows = np.vstack([f.result(timeout=10.0) for f in futures])
    direct = fitted_logreg.predict_proba(windows)
    np.testing.assert_allclose(rows, direct, atol=1e-12)


def test_predict_one(engine, fitted_logreg, small_splits):
    window = small_splits.test[0]
    row = engine.predict_one(window, timeout=10.0)
    np.testing.assert_allclose(
        row, fitted_logreg.predict_proba([window])[0], atol=1e-12
    )


def test_micro_batching_coalesces(fitted_logreg, small_splits):
    windows = small_splits.test[:8]
    config = EngineConfig(max_batch_size=16, max_wait_s=0.05)
    with InferenceEngine(fitted_logreg, config) as eng:
        futures = [eng.submit(w) for w in windows]
        for future in futures:
            future.result(timeout=10.0)
        stats = eng.stats()
    assert stats["batched_items"] == len(windows)
    assert stats["batches"] < len(windows)  # some coalescing happened
    assert stats["mean_batch_size"] > 1.0


def test_stats_shape(engine, small_splits):
    engine.predict_many(small_splits.test[:4])
    stats = engine.stats()
    assert stats["batches"] >= 1
    assert stats["batched_items"] >= 4
    assert stats["tokenization_cache"] is None  # logreg has no pipeline


def test_closed_engine_rejects_work(fitted_logreg, small_splits):
    eng = InferenceEngine(fitted_logreg)
    eng.close()
    with pytest.raises(RuntimeError):
        eng.predict_many(small_splits.test[:1])
    with pytest.raises(RuntimeError):
        eng.submit(small_splits.test[0])
    eng.close()  # idempotent


def test_error_propagates_to_futures(fitted_logreg):
    with InferenceEngine(fitted_logreg) as eng:
        future = eng.submit("not a window")
        with pytest.raises(Exception):
            future.result(timeout=10.0)


class TestTracing:
    def test_async_request_is_traced_with_lifecycle_events(
        self, fitted_logreg, small_splits
    ):
        from repro.perf.tracing import LIFECYCLE_EVENTS

        with InferenceEngine(fitted_logreg) as eng:
            future = eng.submit(small_splits.test[0])
            future.result(timeout=10.0)
            traces = eng.recent_traces()
        assert len(traces) == 1
        trace = traces[0]
        assert future.trace.trace_id == trace["trace_id"]
        names = [e["name"] for e in trace["events"]]
        assert names == list(LIFECYCLE_EVENTS)
        times = [e["t_ms"] for e in trace["events"]]
        assert times == sorted(times)
        assert trace["total_ms"] > 0
        assert trace["metadata"]["batch_size"] == 1

    def test_slow_request_hits_ring_and_jsonl(
        self, fitted_logreg, small_splits, tmp_path, monkeypatch
    ):
        """A deliberately slow request must surface in the trace ring
        buffer AND the slow-request JSONL with all six lifecycle events
        in order."""
        import json
        import time as _time

        from repro.perf.tracing import LIFECYCLE_EVENTS

        real_predict = fitted_logreg.predict_proba

        def slow_predict(windows):
            _time.sleep(0.05)
            return real_predict(windows)

        monkeypatch.setattr(fitted_logreg, "predict_proba", slow_predict)
        log = tmp_path / "slow_requests.jsonl"
        config = EngineConfig(
            slow_threshold_s=0.02, slow_log_path=str(log)
        )
        with InferenceEngine(fitted_logreg, config) as eng:
            future = eng.submit(small_splits.test[0])
            future.result(timeout=10.0)
            ring = eng.recent_traces()
            stats = eng.stats()

        assert stats["traces"]["slow"] == 1
        assert len(ring) == 1
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(entries) == 1
        entry = entries[0]
        assert entry["trace_id"] == ring[0]["trace_id"]
        names = [e["name"] for e in entry["events"]]
        assert names == list(LIFECYCLE_EVENTS)
        times = [e["t_ms"] for e in entry["events"]]
        assert times == sorted(times)
        assert entry["total_ms"] >= 20.0

    def test_latency_observations_feed_registry(
        self, fitted_logreg, small_splits
    ):
        perf.reset()
        with InferenceEngine(fitted_logreg) as eng:
            futures = [eng.submit(w) for w in small_splits.test[:4]]
            for f in futures:
                f.result(timeout=10.0)
        snap = perf.snapshot()
        lat = snap["observations"]["serve.request.latency_seconds"]
        assert lat["hist"]["count"] == 4
        assert "serve.request.queue_wait_seconds" in snap["observations"]
        assert "serve.queue_depth" in snap["gauges"]
        assert "serve.in_flight_batches" in snap["gauges"]
        perf.reset()

    def test_ring_buffer_is_bounded(self, fitted_logreg, small_splits):
        config = EngineConfig(trace_ring_size=4)
        with InferenceEngine(fitted_logreg, config) as eng:
            futures = [
                eng.submit(small_splits.test[i % len(small_splits.test)])
                for i in range(10)
            ]
            for f in futures:
                f.result(timeout=10.0)
            traces = eng.recent_traces()
            stats = eng.stats()
        assert len(traces) == 4
        assert stats["traces"]["finished"] == 10


def test_tokenization_cache_is_the_pipelines(small_splits, small_dataset):
    from repro.models.neural_common import TrainerConfig
    from repro.models.plm import PLMConfig
    from repro.models.roberta import RobertaRiskModel

    model = RobertaRiskModel(
        config=PLMConfig(dim=16, num_layers=1, num_heads=2, ffn_hidden=32,
                         max_len=64),
        trainer=TrainerConfig(epochs=1, batch_size=8, patience=2, seed=0),
        pretrain_texts=small_dataset.pretrain_texts[:200],
        pretrain_steps=1,
        seed=0,
    )
    model.fit(small_splits.train, small_splits.validation)
    perf.reset()
    with InferenceEngine(model) as eng:
        assert eng.tokenization_cache is model.pipeline.post_cache
        eng.predict_many(small_splits.test)
        first = eng.stats()["tokenization_cache"]
        assert set(first) >= {"hits", "misses", "size"}
        eng.predict_many(small_splits.test)  # second pass hits the cache
        second = eng.stats()["tokenization_cache"]
    assert second["hits"] > first["hits"]
    assert second["misses"] == first["misses"]
    gauges = perf.snapshot()["gauges"]
    perf.reset()
    for key in ("size", "hits", "misses"):
        assert gauges[f"serve.tokenize_cache.{key}"] == second[key]
    model.predict_proba(small_splits.test[:4])  # the engine is closed
    assert model.pipeline.post_cache.stats()["hits"] > second["hits"]


@pytest.mark.perf_smoke
def test_engine_throughput_beats_per_window(fitted_logreg, small_splits):
    """Batched ``predict_many`` beats one ``predict_proba`` per window
    on the same cycled traffic, with the same answers."""
    windows = small_splits.test
    traffic = [windows[i % len(windows)] for i in range(128)]
    speedups = []
    with InferenceEngine(fitted_logreg, EngineConfig(max_batch_size=32)) as eng:
        eng.predict_many(traffic[:1])  # first-touch costs outside the clock
        # Best of three: single-shot wall-clock ratios flake under CPU
        # contention; the batching advantage itself is stable.
        for _ in range(3):
            start = time.perf_counter()
            before = np.vstack(
                [fitted_logreg.predict_proba([w]) for w in traffic]
            )
            before_s = time.perf_counter() - start
            start = time.perf_counter()
            after = eng.predict_many(traffic)
            after_s = time.perf_counter() - start
            np.testing.assert_array_equal(
                before.argmax(axis=1), after.argmax(axis=1)
            )
            assert float(np.abs(before - after).max()) < 1e-9
            speedups.append(before_s / after_s)
    assert max(speedups) > 1.2


@pytest.mark.perf_smoke
def test_serve_counters_flow_through_perf(fitted_logreg, small_splits):
    windows = small_splits.test[:8]
    perf.reset()
    with InferenceEngine(fitted_logreg) as eng:
        eng.predict_many(windows)
    report = perf.report()

    def total(counter):
        return sum(
            stat["count"] for path, stat in report.items()
            if path.rsplit("/", 1)[-1] == counter
        )

    assert total("serve.requests") == len(windows)
    assert total("serve.batches") >= 1
    assert any(path.endswith("serve.predict_many") for path in report)
