"""Tests for the hierarchical perf span/counter registry."""

import threading

import pytest

from repro import perf
from repro.perf import PerfRegistry


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestRegistry:
    def test_span_records_time_and_calls(self):
        clock = FakeClock()
        reg = PerfRegistry(clock=clock)
        with reg.span("build"):
            clock.now += 2.0
        with reg.span("build"):
            clock.now += 1.0
        stat = reg.stats()["build"]
        assert stat.total_s == pytest.approx(3.0)
        assert stat.calls == 2

    def test_nested_spans_use_slash_paths(self):
        clock = FakeClock()
        reg = PerfRegistry(clock=clock)
        with reg.span("build"):
            with reg.span("corpus"):
                clock.now += 1.0
            with reg.span("preprocess"):
                clock.now += 0.5
        paths = set(reg.stats())
        assert paths == {"build", "build/corpus", "build/preprocess"}
        assert reg.stats()["build"].total_s == pytest.approx(1.5)

    def test_stack_unwinds_on_exception(self):
        reg = PerfRegistry()
        with pytest.raises(RuntimeError):
            with reg.span("outer"):
                raise RuntimeError("boom")
        with reg.span("other"):
            pass
        assert "other" in reg.stats()  # not "outer/other"

    def test_counters_nest_under_active_span(self):
        reg = PerfRegistry()
        with reg.span("dedup"):
            reg.count("pairs", 3)
            reg.count("pairs", 2)
        assert reg.stats()["dedup/pairs"].count == 5

    def test_reset_clears_everything(self):
        reg = PerfRegistry()
        with reg.span("a"):
            reg.count("b")
        reg.reset()
        assert reg.stats() == {}

    def test_report_and_render(self):
        clock = FakeClock()
        reg = PerfRegistry(clock=clock)
        with reg.span("fit"):
            clock.now += 1.25
            reg.count("rounds", 4)
        report = reg.report()
        assert report["fit"]["total_s"] == pytest.approx(1.25)
        assert report["fit"]["calls"] == 1
        assert report["fit/rounds"]["count"] == 4
        rendered = reg.render()
        assert "fit" in rendered
        assert "count=4" in rendered

    def test_render_empty(self):
        assert "no spans" in PerfRegistry().render()


class TestThreadSafety:
    """N threads hammering nested spans/counters: exact aggregates, no
    cross-thread path corruption (each thread nests on its own stack)."""

    def test_concurrent_spans_and_counters_exact(self):
        reg = PerfRegistry()
        threads_n, iters = 8, 200
        start = threading.Barrier(threads_n)

        def worker():
            start.wait()
            for _ in range(iters):
                with reg.span("outer"):
                    with reg.span("inner"):
                        reg.count("ticks", 2)

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        stats = reg.stats()
        # Exactly the three expected paths — no orphaned/interleaved ones
        # like "outer/outer/inner" from another thread's stack.
        assert set(stats) == {"outer", "outer/inner", "outer/inner/ticks"}
        assert stats["outer"].calls == threads_n * iters
        assert stats["outer/inner"].calls == threads_n * iters
        assert stats["outer/inner/ticks"].count == 2 * threads_n * iters

    def test_thread_stacks_are_independent(self):
        reg = PerfRegistry()
        release = threading.Event()
        entered = threading.Event()

        def holder():
            with reg.span("held"):
                entered.set()
                release.wait(timeout=10.0)

        t = threading.Thread(target=holder)
        t.start()
        entered.wait(timeout=10.0)
        # While the other thread has an open span, this thread's spans
        # must not nest under it.
        with reg.span("main"):
            pass
        release.set()
        t.join()
        paths = set(reg.stats())
        assert "main" in paths
        assert "held/main" not in paths


class TestModuleLevelApi:
    def test_default_registry_roundtrip(self):
        perf.reset()
        with perf.span("test-span"):
            perf.count("ticks")
        try:
            assert perf.report()["test-span"]["calls"] == 1
            assert perf.report()["test-span/ticks"]["count"] == 1
        finally:
            perf.reset()

    def test_enabled_reads_env(self, monkeypatch):
        monkeypatch.delenv(perf.PERF_ENV, raising=False)
        assert not perf.enabled()
        monkeypatch.setenv(perf.PERF_ENV, "0")
        assert not perf.enabled()
        monkeypatch.setenv(perf.PERF_ENV, "1")
        assert perf.enabled()
