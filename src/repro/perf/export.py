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
``serve.batch`` becomes ``repro_serve_batch_seconds``. No labels are
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
    "merge_snapshots",
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
        f"# HELP {name} Latency histogram of {path}",
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
        lines.append(f"# HELP {name} Counter {path}")
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {value}")
    for path, value in sorted(snapshot.get("gauges", {}).items()):
        name = _name(path)
        lines.append(f"# HELP {name} Gauge {path}")
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
            lines.append(f"# HELP {name}_total Total seconds in span {path}")
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


def json_snapshot(registry, tracer=None, extra: dict | None = None) -> dict:
    """One JSON-serialisable object with everything a scraper would see.

    ``perf`` holds the registry snapshot (spans/counters/observations/
    gauges); ``traces`` the tracer's ring stats and recent traces when a
    tracer is supplied. ``extra`` entries ride along at the top level
    (reserved keys rejected).
    """
    if extra:
        reserved = {"perf", "traces"} & set(extra)
        if reserved:
            raise ValueError(
                f"json_snapshot: reserved keys in extra: {sorted(reserved)}"
            )
    out: dict = {"perf": registry.snapshot()}
    if tracer is not None:
        out["traces"] = {
            "stats": tracer.stats(),
            "recent": tracer.recent(limit=32),
        }
    if extra:
        out.update(extra)
    return out


def _quantiles_from_buckets(
    buckets: list, count: int, min_s: float, max_s: float
) -> dict[str, float]:
    """Re-estimate p50/p90/p99 from merged cumulative buckets.

    Same linear-interpolation-in-the-crossing-bucket scheme as
    :meth:`repro.perf.histogram.Histogram.quantile`, but over the
    coarsened export buckets (5/decade → bounds ~58% apart, worst-case
    relative error ~29%; exact count/sum/min/max are unaffected).
    Estimates are clamped to the exactly-tracked [min, max].
    """
    out: dict[str, float] = {}
    for q, key in ((0.50, "p50_s"), (0.90, "p90_s"), (0.99, "p99_s")):
        rank = q * count
        prev_bound = 0.0
        prev_cum = 0
        value = max_s
        for bound, cum in buckets:
            if cum >= rank and cum > prev_cum:
                hi = max_s if bound == math.inf else bound
                frac = (rank - prev_cum) / (cum - prev_cum)
                value = prev_bound + (hi - prev_bound) * frac
                break
            if bound != math.inf:
                prev_bound = bound
            prev_cum = cum
        out[key] = min(max(value, min_s), max_s)
    return out


def _merge_hist_entry(into: dict, entry: dict, path: str) -> None:
    """Accumulate one span/observation entry's hist+buckets into ``into``."""
    hist = entry.get("hist")
    if hist:
        agg = into.setdefault(
            "hist",
            {"count": 0, "sum_s": 0.0, "min_s": math.inf, "max_s": -math.inf},
        )
        agg["count"] += hist["count"]
        agg["sum_s"] += hist["sum_s"]
        agg["min_s"] = min(agg["min_s"], hist.get("min_s", math.inf))
        agg["max_s"] = max(agg["max_s"], hist.get("max_s", -math.inf))
    buckets = entry.get("buckets")
    if buckets:
        merged = into.get("buckets")
        if merged is None:
            into["buckets"] = [[b, c] for b, c in buckets]
        else:
            if len(merged) != len(buckets) or any(
                m[0] != b for m, (b, _) in zip(merged, buckets)
            ):
                raise ValueError(
                    f"merge_snapshots: bucket layouts differ for {path!r} — "
                    f"snapshots come from different histogram versions"
                )
            # Cumulative counts are sums of per-bucket counts, so they
            # merge element-wise just like the raw buckets would.
            for m, (_, c) in zip(merged, buckets):
                m[1] += c


def _finalize_hist(into: dict) -> None:
    hist = into.get("hist")
    if not hist:
        return
    count = hist["count"]
    hist["mean_s"] = hist["sum_s"] / count if count else 0.0
    if count and into.get("buckets"):
        hist.update(
            _quantiles_from_buckets(
                into["buckets"], count, hist["min_s"], hist["max_s"]
            )
        )


def merge_snapshots(
    snapshots: list[dict], gauge_prefixes: list[str | None] | None = None
) -> dict:
    """Merge registry snapshots from several processes into one.

    The output has the same shape as
    :meth:`repro.perf.registry.PerfRegistry.snapshot` — it renders and
    validates as Prometheus text unchanged. Counters, span totals/calls
    and histogram count/sum/min/max merge exactly; cumulative buckets
    add element-wise (identical fixed bounds across processes), and
    p50/p90/p99 are re-estimated from the merged buckets.

    Gauges are last-write-wins values and summing them would be wrong
    (two workers each holding ``queue_depth=3`` is not depth 6), so by
    default later snapshots simply overwrite earlier ones. Pass
    ``gauge_prefixes`` — one per snapshot, ``None`` to leave names
    untouched — to namespace instead: the worker pool uses
    ``pool.worker0``, ``pool.worker1``, … so per-worker gauges survive
    side by side.
    """
    snapshots = list(snapshots)
    if gauge_prefixes is not None and len(gauge_prefixes) != len(snapshots):
        raise ValueError(
            f"merge_snapshots: {len(gauge_prefixes)} gauge prefixes for "
            f"{len(snapshots)} snapshots"
        )
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    observations: dict[str, dict] = {}
    gauges: dict[str, float] = {}
    for i, snap in enumerate(snapshots):
        for path, value in snap.get("counters", {}).items():
            counters[path] = counters.get(path, 0) + value
        for path, entry in snap.get("spans", {}).items():
            into = spans.setdefault(path, {"total_s": 0.0, "calls": 0})
            into["total_s"] += entry["total_s"]
            into["calls"] += entry["calls"]
            _merge_hist_entry(into, entry, path)
        for path, entry in snap.get("observations", {}).items():
            _merge_hist_entry(observations.setdefault(path, {}), entry, path)
        prefix = gauge_prefixes[i] if gauge_prefixes else None
        for name, value in snap.get("gauges", {}).items():
            gauges[f"{prefix}.{name}" if prefix else name] = value
    for into in spans.values():
        _finalize_hist(into)
    for into in observations.values():
        _finalize_hist(into)
    return {
        "spans": spans,
        "counters": counters,
        "observations": observations,
        "gauges": gauges,
    }


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
    for lineno, line in enumerate(text.splitlines(), start=1):
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

