"""Prometheus rendering + validation, JSON snapshots, registry snapshot."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import (
    PerfRegistry,
    json_snapshot,
    render_prometheus,
    validate_prometheus,
)


def exercised_registry() -> PerfRegistry:
    reg = PerfRegistry()
    with reg.span("serve.batch"):
        reg.count("serve.batched_items", 8)
    with reg.span("serve.batch"):
        pass
    reg.count("serve.requests", 8)
    reg.gauge("serve.queue_depth", 3)
    reg.gauge("serve.tokenize_cache.size", 120)
    for v in (0.001, 0.002, 0.05):
        reg.observe("serve.request.latency_seconds", v)
    return reg


class TestSnapshot:
    def test_kinds_are_separated(self):
        snap = exercised_registry().snapshot()
        assert "serve.batch" in snap["spans"]
        assert snap["counters"]["serve.requests"] == 8
        assert snap["gauges"]["serve.queue_depth"] == 3.0
        obs = snap["observations"]["serve.request.latency_seconds"]
        assert obs["hist"]["count"] == 3
        assert obs["buckets"][-1][0] == math.inf

    def test_span_has_histogram_quantiles(self):
        snap = exercised_registry().snapshot()
        entry = snap["spans"]["serve.batch"]
        assert entry["calls"] == 2
        assert {"p50_s", "p90_s", "p99_s", "max_s"} <= set(entry["hist"])


class TestRenderPrometheus:
    @pytest.mark.perf_smoke
    def test_renders_and_validates(self):
        text = render_prometheus(exercised_registry().snapshot())
        families = validate_prometheus(text)
        # Counters, gauges, span histogram and observation histogram
        # all present under sanitised names.
        assert "repro_serve_requests_total" in families
        assert "repro_serve_queue_depth" in families
        assert "repro_serve_batch_seconds" in families
        assert "repro_serve_request_latency_seconds" in families

    def test_histogram_bucket_coherence(self):
        text = render_prometheus(exercised_registry().snapshot())
        families = validate_prometheus(text)
        buckets = [
            v for labels, v in families["repro_serve_request_latency_seconds"]
            if "le" in labels
        ]
        assert buckets[-1] == 3  # +Inf bucket sees every sample

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus(PerfRegistry().snapshot()) == ""

    def test_sanitises_path_characters(self):
        reg = PerfRegistry()
        reg.count("build/preprocess/dedup.near")
        text = render_prometheus(reg.snapshot())
        assert "repro_build_preprocess_dedup_near_total" in text
        validate_prometheus(text)

    @pytest.mark.parametrize(
        "path, help_text",
        [("a\nb", "Counter a\\nb"), ("a\\b", "Counter a\\\\b")],
        ids=["newline", "backslash"],
    )
    def test_escapes_help_text(self, path, help_text):
        text = render_prometheus({"counters": {path: 1}})
        assert text.splitlines()[0] == f"# HELP repro_a_b_total {help_text}"
        validate_prometheus(text)

    def test_paths_that_sanitise_alike_get_distinct_names(self):
        families = validate_prometheus(
            render_prometheus({"counters": {"a.b": 1, "a_b": 2}})
        )
        assert sorted(v for samples in families.values() for _, v in samples) \
            == [1, 2]

    def test_gauge_and_observation_on_one_path(self):
        reg = PerfRegistry()
        reg.gauge("x", 1)
        reg.observe("x", 0.1)
        families = validate_prometheus(render_prometheus(reg.snapshot()))
        assert len(families) == 2

    def test_sample_names_of_different_kinds_do_not_clash(self):
        reg = PerfRegistry()
        reg.observe("h", 0.1)
        text = render_prometheus({
            # a span total with no histogram renders as a counter
            "spans": {"x": {"total_s": 1.5, "calls": 2}},
            "counters": {"x_seconds": 3},
            "gauges": {"h_count": 2.0, "h_bucket": 5.0, "other": 1.0},
            "observations": reg.snapshot()["observations"],
        })
        samples = [line.split(" ")[0] for line in text.splitlines()
                   if not line.startswith("#")]
        assert len(samples) == len(set(samples))
        assert len(validate_prometheus(text)) == 6
        assert "repro_other 1.0" in text.splitlines()

    def test_added_span_totals_render_valid(self):
        """Totals from another process add calls and seconds, not
        histogram samples, so the histogram stays self-consistent."""
        reg = PerfRegistry()
        with reg.span("fit"):
            pass
        reg.add_span("fit", 2, 1.5)
        reg.add_span("worker_only", 1, 0.5)
        snap = reg.snapshot()
        assert snap["spans"]["fit"]["calls"] == 3
        assert snap["spans"]["fit"]["hist"]["count"] == 1
        families = validate_prometheus(render_prometheus(snap))
        assert families["repro_worker_only_seconds_total"] == [({}, 0.5)]

    @pytest.mark.parametrize("kind", ["count", "gauge", "span", "observe"])
    @given(path=st.text(max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_every_path_renders_valid(self, kind, path):
        reg = PerfRegistry()
        if kind == "span":
            with reg.span(path):
                pass
        else:
            getattr(reg, kind)(path, 1)
        validate_prometheus(render_prometheus(reg.snapshot()))


class TestValidator:
    def test_rejects_sample_without_type(self):
        with pytest.raises(ValueError, match="no preceding # TYPE"):
            validate_prometheus("repro_thing_total 3\n")

    def test_rejects_malformed_sample(self):
        with pytest.raises(ValueError, match="malformed"):
            validate_prometheus(
                "# TYPE 9bad counter\n9bad{x=1} nope\n"
            )

    def test_rejects_unparseable_value(self):
        with pytest.raises(ValueError, match="unparseable"):
            validate_prometheus(
                "# TYPE repro_x counter\nrepro_x abc\n"
            )

    def test_rejects_unsorted_histogram_buckets(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.1"} 2\n'
            'repro_h_bucket{le="0.01"} 1\n'
            'repro_h_bucket{le="+Inf"} 2\n'
            "repro_h_sum 0.2\n"
            "repro_h_count 2\n"
        )
        with pytest.raises(ValueError, match="not le-sorted"):
            validate_prometheus(text)

    def test_rejects_missing_inf_bucket(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.1"} 2\n'
            "repro_h_sum 0.2\n"
            "repro_h_count 2\n"
        )
        with pytest.raises(ValueError, match="\\+Inf"):
            validate_prometheus(text)

    def test_rejects_count_bucket_mismatch(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="+Inf"} 2\n'
            "repro_h_sum 0.2\n"
            "repro_h_count 5\n"
        )
        with pytest.raises(ValueError, match="_count"):
            validate_prometheus(text)

    def test_accepts_inf_values(self):
        families = validate_prometheus(
            "# TYPE repro_g gauge\nrepro_g +Inf\n"
        )
        assert families["repro_g"][0][1] == math.inf


class TestJsonSnapshot:
    def test_includes_perf_and_extra(self):
        snap = json_snapshot(exercised_registry(), extra={"run": "test"})
        assert snap["run"] == "test"
        assert set(snap) == {"perf", "run"}
        assert "spans" in snap["perf"]

    def test_reserved_extra_keys_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            json_snapshot(PerfRegistry(), extra={"perf": {}})

    def test_serialisable(self):
        import json

        snap = json_snapshot(exercised_registry())
        json.dumps(snap)  # must not raise
