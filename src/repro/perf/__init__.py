"""Telemetry subsystem: spans, counters, gauges, histograms, export.

A process-wide :class:`PerfRegistry` records named timing *spans* (via a
context manager), monotonic *counters*, last-write-wins *gauges* and
explicit histogram *observations*. Spans nest per thread: a span opened
while another is active on the same thread is recorded under the
parent's slash-separated path, so the report reads like a profile of
the pipeline::

    build                      1  12.41s
    build/corpus               1   4.20s
    build/preprocess           1   2.96s
    build/preprocess/near-dup  1   1.10s

Every span path also accumulates a fixed-log-bucket latency histogram
(p50/p90/p99/max per path — :mod:`repro.perf.histogram`); explicit
observations (such as the serving engine's per-request latency) get the
same histograms, and everything exports as Prometheus exposition text
or a JSON snapshot (:mod:`repro.perf.export`, ``python -m repro
metrics``).

The registry is always on — a span costs two ``perf_counter`` calls and
a few dict/array updates on a lock-free per-thread shard — so library
code can instrument unconditionally. Reporting is opt-in: the CLI
prints the report after every command (including failed ones) when the
``REPRO_PERF`` environment variable is set. See
``docs/observability.md`` and ``docs/performance.md``.
"""

from __future__ import annotations

from repro.perf.export import (
    json_snapshot,
    render_prometheus,
    validate_prometheus,
)
from repro.perf.histogram import Histogram
from repro.perf.registry import PERF_ENV, PerfRegistry, PerfStat, enabled

__all__ = [
    "Histogram",
    "PERF_ENV",
    "PerfRegistry",
    "PerfStat",
    "count",
    "enabled",
    "gauge",
    "get_registry",
    "json_snapshot",
    "observe",
    "render",
    "render_prometheus",
    "report",
    "reset",
    "snapshot",
    "span",
    "validate_prometheus",
]

_REGISTRY = PerfRegistry()


def get_registry() -> PerfRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def span(name: str):
    return _REGISTRY.span(name)


def count(name: str, n: int = 1) -> None:
    _REGISTRY.count(name, n)


def gauge(name: str, value: float) -> None:
    _REGISTRY.gauge(name, value)


def observe(name: str, value: float) -> None:
    _REGISTRY.observe(name, value)


def reset() -> None:
    _REGISTRY.reset()


def report() -> dict:
    return _REGISTRY.report()


def snapshot() -> dict:
    return _REGISTRY.snapshot()


def render() -> str:
    return _REGISTRY.render()

