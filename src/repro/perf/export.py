"""Telemetry export: Prometheus exposition text and JSON snapshots.

The renderer consumes the structured snapshot from
:meth:`repro.perf.registry.PerfRegistry.snapshot` and emits
Prometheus text exposition format (version 0.0.4 — what every scraper
accepts):

* counters  → ``repro_<path>_total``
* gauges    → ``repro_<path>``
* spans     → histogram family ``repro_<path>_seconds`` with
  cumulative ``_bucket{le="..."}`` lines plus ``_sum``/``_count``
* observations (explicit :func:`repro.perf.observe` histograms, whose
  paths already carry their unit, e.g. ``serve.request.latency_seconds``)
  → histogram family ``repro_<path>``

Paths are sanitised ``[^a-zA-Z0-9_] → _`` and prefixed ``repro_``, so
``serve.batch`` becomes ``repro_serve_batch_seconds``; the raw path
goes into ``# HELP`` with backslash and newline escaped as the text
format requires, so every path renders valid exposition. No labels are
emitted — one flat time series per path keeps the scrape config
trivial.

:func:`validate_prometheus` is a strict line-format checker used by the
test suite and CI to guarantee the rendering stays scrapeable: TYPE
before samples, parseable values, ``le``-sorted cumulative buckets
ending at ``+Inf``, and ``_count`` consistent with the ``+Inf`` bucket.
"""

from __future__ import annotations

import math
import re

__all__ = [
    "json_snapshot",
    "render_prometheus",
    "validate_prometheus",
]

_PREFIX = "repro"
_SAN = re.compile(r"[^a-zA-Z0-9_]")

_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE_RE = re.compile(
    rf"^({_METRIC_NAME})"
    r"(?:\{((?:[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"\n]*\",?)*)\})?"
    r" (\S+)(?: (\S+))?$"
)
_HELP_RE = re.compile(rf"^# HELP ({_METRIC_NAME}) (.*)$")
_TYPE_RE = re.compile(
    rf"^# TYPE ({_METRIC_NAME}) (counter|gauge|histogram|summary|untyped)$"
)


def _name(path: str, suffix: str = "") -> str:
    return f"{_PREFIX}_{_SAN.sub('_', path)}{suffix}"


def _help(name: str, text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace("\n", "\\n")
    return f"# HELP {name} {escaped}"


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def _le(bound: float) -> str:
    return "+Inf" if bound == math.inf else f"{bound:.6g}"


def _histogram_lines(
    name: str, path: str, buckets: list, sum_s: float, count: int
) -> list[str]:
    lines = [
        _help(name, f"Latency histogram of {path}"),
        f"# TYPE {name} histogram",
    ]
    for bound, cumulative in buckets:
        lines.append(f'{name}_bucket{{le="{_le(bound)}"}} {cumulative}')
    lines.append(f"{name}_sum {_fmt(sum_s)}")
    lines.append(f"{name}_count {count}")
    return lines


def render_prometheus(snapshot: dict) -> str:
    """Render a registry snapshot as Prometheus exposition text."""
    lines: list[str] = []
    for path, value in sorted(snapshot.get("counters", {}).items()):
        name = _name(path, "_total")
        lines.append(_help(name, f"Counter {path}"))
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {value}")
    for path, value in sorted(snapshot.get("gauges", {}).items()):
        name = _name(path)
        lines.append(_help(name, f"Gauge {path}"))
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_fmt(value)}")
    for path, entry in sorted(snapshot.get("spans", {}).items()):
        name = _name(path, "_seconds")
        buckets = entry.get("buckets")
        if buckets:
            lines.extend(
                _histogram_lines(
                    name, path,
                    [(b, c) for b, c in buckets],
                    entry["total_s"], entry["calls"],
                )
            )
        else:
            lines.append(_help(f"{name}_total", f"Total seconds in span {path}"))
            lines.append(f"# TYPE {name}_total counter")
            lines.append(f"{name}_total {_fmt(entry['total_s'])}")
    for path, entry in sorted(snapshot.get("observations", {}).items()):
        name = _name(path)
        hist = entry["hist"]
        lines.extend(
            _histogram_lines(
                name, path,
                [(b, c) for b, c in entry["buckets"]],
                hist["sum_s"], hist["count"],
            )
        )
    return "\n".join(lines) + "\n" if lines else ""


def json_snapshot(registry, extra: dict | None = None) -> dict:
    """One JSON-serialisable object with everything a scraper would see.

    ``perf`` holds the registry snapshot (spans/counters/observations/
    gauges); ``extra`` entries ride along at the top level (the
    reserved ``perf`` key is rejected).
    """
    if extra and "perf" in extra:
        raise ValueError("json_snapshot: reserved key in extra: 'perf'")
    out: dict = {"perf": registry.snapshot()}
    if extra:
        out.update(extra)
    return out


def _parse_value(raw: str, lineno: int) -> float:
    try:
        if raw == "+Inf":
            return math.inf
        if raw == "-Inf":
            return -math.inf
        return float(raw)
    except ValueError:
        raise ValueError(f"line {lineno}: unparseable sample value {raw!r}")


def validate_prometheus(text: str) -> dict:
    """Validate exposition text; return ``{metric_family: [(labels, value)]}``.

    Raises :class:`ValueError` with the offending line number on the
    first violation. Deliberately strict about the properties a scraper
    relies on rather than a full grammar: names, TYPE-before-sample,
    float-parseable values, and histogram bucket coherence.
    """
    types: dict[str, str] = {}
    samples: dict[str, list[tuple[dict, float]]] = {}
    # The format separates lines by "\n" only; str.splitlines would
    # also break a HELP text at "\r" or "\x1e".
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if _HELP_RE.match(line) or _TYPE_RE.match(line):
                m = _TYPE_RE.match(line)
                if m:
                    if m.group(1) in types:
                        raise ValueError(
                            f"line {lineno}: duplicate TYPE for {m.group(1)}"
                        )
                    types[m.group(1)] = m.group(2)
                continue
            raise ValueError(f"line {lineno}: malformed comment {line!r}")
        m = _SAMPLE_RE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name, labels_raw, value_raw, _timestamp = m.groups()
        value = _parse_value(value_raw, lineno)
        family = re.sub(r"_(bucket|sum|count|total)$", "", name)
        declared = types.get(name) or types.get(family)
        if declared is None:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no preceding # TYPE"
            )
        labels = dict(
            part.split("=", 1) for part in labels_raw.split(",") if part
        ) if labels_raw else {}
        labels = {k: v.strip('"') for k, v in labels.items()}
        samples.setdefault(family if declared == "histogram" else name,
                           []).append((labels, value))

    # Histogram coherence: buckets sorted by le, cumulative, end at +Inf,
    # and _count agrees with the +Inf bucket.
    for family, ftype in types.items():
        if ftype != "histogram":
            continue
        fam_samples = samples.get(family, [])
        buckets = [
            (s[0]["le"], s[1]) for s in fam_samples if "le" in s[0]
        ]
        if not buckets:
            raise ValueError(f"histogram {family} has no _bucket samples")
        bounds = [math.inf if b == "+Inf" else float(b) for b, _ in buckets]
        if bounds != sorted(bounds):
            raise ValueError(f"histogram {family} buckets not le-sorted")
        if bounds[-1] != math.inf:
            raise ValueError(f"histogram {family} missing le=\"+Inf\" bucket")
        counts = [c for _, c in buckets]
        if counts != sorted(counts):
            raise ValueError(f"histogram {family} buckets not cumulative")
        count_samples = [
            s[1] for s in fam_samples if not s[0] and s[1] is not None
        ]
        # fam_samples holds buckets, _sum and _count; recover _count by
        # matching the +Inf bucket value among unlabelled samples.
        if counts[-1] not in count_samples:
            raise ValueError(
                f"histogram {family}: _count does not match +Inf bucket"
            )
    return samples

