"""Thread-safe span/counter/gauge registry with per-thread shards.

Recording is designed for the multi-threaded serving engine: each
thread nests spans on its own :mod:`threading.local` stack and
accumulates stats into its own *shard* dict, so the hot path takes no
lock at all — the registry lock is only held to register a new shard
(once per thread) and to merge shards into a snapshot at report time.
Gauges are last-write-wins values shared across threads and therefore
sit behind the lock (they are set at sampling frequency, not on the
per-call hot path).

Every span path accumulates a fixed-log-bucket
:class:`~repro.perf.histogram.Histogram` of its durations alongside
the exact total/calls, so reports include p50/p90/p99/max per path
without any change at the ~30 existing ``perf.span`` call sites.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.perf.histogram import Histogram

__all__ = ["PERF_ENV", "PerfRegistry", "PerfStat", "enabled"]

PERF_ENV = "REPRO_PERF"


def enabled() -> bool:
    """True when ``REPRO_PERF`` asks for a report (any non-empty, non-0)."""
    value = os.environ.get(PERF_ENV, "")
    return value not in ("", "0", "false", "no")


@dataclass
class PerfStat:
    """Accumulated statistics of one span/counter/observation path."""

    path: str
    total_s: float = 0.0
    calls: int = 0
    count: int = 0
    hist: Histogram | None = None

    @property
    def depth(self) -> int:
        return self.path.count("/")

    def as_dict(self) -> dict:
        out: dict = {}
        if self.calls:
            out["total_s"] = self.total_s
            out["calls"] = self.calls
        if self.count:
            out["count"] = self.count
        if self.hist is not None and self.hist.count:
            out["hist"] = self.hist.as_dict()
        return out

    def merge(self, other: "PerfStat") -> None:
        self.total_s += other.total_s
        self.calls += other.calls
        self.count += other.count
        if other.hist is not None:
            if self.hist is None:
                self.hist = Histogram()
            self.hist.merge(other.hist)


class PerfRegistry:
    """Nested span timers, counters, observations and gauges.

    Span/counter paths are slash-joined under the calling thread's
    active span stack. ``stats()``/``report()`` merge the per-thread
    shards into one snapshot; the shards themselves are never exposed.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._shards: list[dict[str, PerfStat]] = []
        self._gauges: dict[str, float] = {}

    # -- per-thread state --------------------------------------------------

    @property
    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _shard(self) -> dict[str, PerfStat]:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = {}
            self._local.shard = shard
            with self._lock:
                self._shards.append(shard)
        return shard

    def _path(self, name: str) -> str:
        return "/".join([*self._stack, name])

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Time a block; nested spans record under the active span's path."""
        stack = self._stack
        path = self._path(name)
        stack.append(name)
        start = self._clock()
        try:
            yield
        finally:
            elapsed = self._clock() - start
            stack.pop()
            shard = self._shard()
            stat = shard.get(path)
            if stat is None:
                stat = shard[path] = PerfStat(path, hist=Histogram())
            elif stat.hist is None:
                stat.hist = Histogram()
            stat.total_s += elapsed
            stat.calls += 1
            stat.hist.observe(elapsed)

    def count(self, name: str, n: int = 1) -> None:
        """Increment a counter under the currently active span path."""
        path = self._path(name)
        shard = self._shard()
        stat = shard.get(path)
        if stat is None:
            stat = shard[path] = PerfStat(path)
        stat.count += n

    def observe(self, name: str, value: float) -> None:
        """Record one sample into ``name``'s histogram (no timing).

        For values that are measured elsewhere — e.g. the serving
        engine feeds per-request end-to-end latency and queue wait
        here from its trace timestamps.
        """
        path = self._path(name)
        shard = self._shard()
        stat = shard.get(path)
        if stat is None:
            stat = shard[path] = PerfStat(path, hist=Histogram())
        elif stat.hist is None:
            stat.hist = Histogram()
        stat.hist.observe(value)

    def gauge(self, name: str, value: float) -> None:
        """Set a last-write-wins gauge (queue depth, cache occupancy...)."""
        with self._lock:
            self._gauges[name] = float(value)

    def reset(self) -> None:
        """Clear all shards and gauges (the calling thread's stack too)."""
        with self._lock:
            for shard in self._shards:
                shard.clear()
            self._gauges.clear()
        self._stack.clear()

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict[str, PerfStat]:
        """Merged snapshot of every thread's shard."""
        with self._lock:
            shards = list(self._shards)
        merged: dict[str, PerfStat] = {}
        for shard in shards:
            # list() defends against the owning thread inserting
            # concurrently; per-key merge races only ever miss the very
            # latest in-flight update, never corrupt totals.
            for path, stat in list(shard.items()):
                into = merged.get(path)
                if into is None:
                    merged[path] = into = PerfStat(path)
                into.merge(stat)
        return merged

    def gauges(self) -> dict[str, float]:
        with self._lock:
            return dict(self._gauges)

    def report(self) -> dict:
        """Machine-readable report: ``{path: {total_s, calls, count, hist}}``.

        Gauges are appended as ``{gauge: value}`` entries under their
        own names.
        """
        out = {
            path: stat.as_dict()
            for path, stat in sorted(self.stats().items())
        }
        for name, value in sorted(self.gauges().items()):
            out.setdefault(name, {})["gauge"] = value
        return out

    def snapshot(self) -> dict:
        """Structured export snapshot, grouped by instrument kind.

        ``spans`` are timed paths (with duration histograms),
        ``counters`` monotonic counts, ``observations`` value
        histograms fed via :meth:`observe`, ``gauges`` last-write-wins
        values. This is what the Prometheus renderer and the
        ``python -m repro metrics`` JSON output consume.
        """
        spans: dict[str, dict] = {}
        counters: dict[str, int] = {}
        observations: dict[str, dict] = {}
        for path, stat in sorted(self.stats().items()):
            if stat.calls:
                entry = {"total_s": stat.total_s, "calls": stat.calls}
                if stat.hist is not None and stat.hist.count:
                    entry["hist"] = stat.hist.as_dict()
                    entry["buckets"] = stat.hist.cumulative_buckets()
                spans[path] = entry
            if stat.count:
                counters[path] = stat.count
            if not stat.calls and not stat.count and stat.hist is not None \
                    and stat.hist.count:
                observations[path] = {
                    "hist": stat.hist.as_dict(),
                    "buckets": stat.hist.cumulative_buckets(),
                }
        return {
            "spans": spans,
            "counters": counters,
            "observations": observations,
            "gauges": self.gauges(),
        }

    def render(self) -> str:
        """Monospace tree of every recorded path."""
        stats = self.stats()
        gauges = self.gauges()
        if not stats and not gauges:
            return "(no spans recorded)"
        lines = []
        for path, stat in sorted(stats.items()):
            indent = "  " * stat.depth
            label = f"{indent}{path.rsplit('/', 1)[-1]}"
            parts = []
            if stat.calls:
                parts.append(f"{stat.calls:>5}x {stat.total_s:9.3f}s")
            if stat.count:
                parts.append(f"count={stat.count}")
            if stat.hist is not None and stat.hist.count > 1:
                pct = stat.hist.percentiles()
                parts.append(
                    f"p50={pct['p50_s'] * 1e3:.2f}ms "
                    f"p99={pct['p99_s'] * 1e3:.2f}ms"
                )
            lines.append(f"{label:<42} {'  '.join(parts)}")
        for name, value in sorted(gauges.items()):
            lines.append(f"{name:<42} gauge={value:g}")
        return "\n".join(lines)
