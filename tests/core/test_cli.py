"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core.rng import DEFAULT_SEED
from repro.experiments.common import BENCH_SCALE


class TestParser:
    def test_build_defaults(self):
        args = build_parser().parse_args(["build"])
        assert args.scale == 0.1
        assert args.output == "rsd15k.jsonl"

    def test_evaluate_model_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--model", "nope"])

    def test_bench_choices(self):
        args = build_parser().parse_args(["bench", "table1"])
        assert args.experiment == "table1"
        assert args.scale == BENCH_SCALE
        assert args.seed is None
        args = build_parser().parse_args(
            ["bench", "stability", "--scale", "0.05", "--seed", "3"]
        )
        assert (args.experiment, args.scale, args.seed) == ("stability", 0.05, 3)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "table1", "--profile"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_metrics_defaults(self):
        args = build_parser().parse_args(["metrics"])
        assert args.format == "prometheus"
        assert args.scale == 0.05
        assert args.requests == 96
        assert args.input is None


class TestCommands:
    def test_build_stats_datacard(self, tmp_path, capsys):
        out = tmp_path / "ds.jsonl"
        code = main(["build", "--scale", "0.02", "--output", str(out)])
        assert code == 0
        assert out.exists()
        code = main(["stats", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "posts:" in printed
        assert "Ideation" in printed
        card_path = tmp_path / "DATASHEET.md"
        code = main(["datacard", str(out), "--output", str(card_path)])
        assert code == 0
        assert "Dataset card" in card_path.read_text()

    def test_datacard_to_stdout(self, tmp_path, capsys):
        out = tmp_path / "ds.jsonl"
        main(["build", "--scale", "0.02", "--output", str(out)])
        capsys.readouterr()
        assert main(["datacard", str(out)]) == 0
        assert "## Composition" in capsys.readouterr().out

    def test_perf_env_prints_report(self, tmp_path, capsys, monkeypatch):
        from repro import perf
        from repro.experiments import table1_distribution

        monkeypatch.setenv("REPRO_PERF", "1")
        out = tmp_path / "ds.jsonl"
        assert main(["build", "--scale", "0.02", "--output", str(out)]) == 0
        assert "perf profile" in capsys.readouterr().out

        calls = []

        def fake_main(scale, seed):
            calls.append((scale, seed))
            with perf.span("fake-experiment"):
                pass

        monkeypatch.setattr(table1_distribution, "main", fake_main)
        assert main(["bench", "table1"]) == 0
        printed = capsys.readouterr().out
        assert printed.count("perf profile") == 1
        assert "fake-experiment" in printed
        assert calls == [(BENCH_SCALE, DEFAULT_SEED)]

    def test_perf_report_printed_on_error_path(self, capsys, monkeypatch):
        """A failing command must still print the REPRO_PERF report —
        failed runs are exactly the ones that need debugging."""
        from repro import perf
        from repro.experiments import table1_distribution

        monkeypatch.setenv("REPRO_PERF", "1")

        def exploding_main(scale, seed):
            with perf.span("doomed-experiment"):
                pass
            raise RuntimeError("mid-command failure")

        monkeypatch.setattr(table1_distribution, "main", exploding_main)
        with pytest.raises(RuntimeError, match="mid-command failure"):
            main(["bench", "table1"])
        printed = capsys.readouterr().out
        assert printed.count("perf profile") == 1
        assert "doomed-experiment" in printed

    @pytest.mark.parametrize("argv, shown", [
        (["build", "--scale", "2"], "2.0"),
        (["bench", "table1", "--scale", "0"], "0.0"),
    ])
    def test_bad_scale_is_a_usage_error(self, argv, shown, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PERF", "1")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro: error: scale must be in (0, 1], got {shown}\n"
        assert captured.out.count("perf profile") == 1


class TestBench:
    def test_kappa(self, capsys):
        assert main(["bench", "kappa", "--scale", "0.05"]) == 0
        printed = capsys.readouterr().out
        assert "Annotation consistency (paper §II-C1)" in printed
        assert "  Fleiss' kappa : 0." in printed
        assert "(paper: 0.7206)" in printed
        assert "inspections   : all passed" in printed

    def test_evolution_at_seed(self, capsys):
        from repro.experiments import evolution_analysis

        assert main([
            "bench", "evolution", "--scale", "0.05", "--seed", "15000",
        ]) == 0
        printed = capsys.readouterr().out
        matrix = evolution_analysis.render(evolution_analysis.run(0.05, 15000))
        assert printed == (
            "Risk-evolution analysis (dataset capability, extension)\n"
            f"{matrix}\n"
        )
        assert "from \\ to" in matrix


class TestTelemetryCommands:
    def test_metrics_prometheus_covers_serve_metrics(self, tmp_path, capsys):
        from repro.perf import validate_prometheus

        out = tmp_path / "metrics.prom"
        code = main([
            "metrics", "--scale", "0.02", "--requests", "16",
            "--batch-size", "8", "--output", str(out),
        ])
        assert code == 0
        text = out.read_text()
        families = validate_prometheus(text)
        # serve counters, gauges and histograms all exported
        assert "repro_serve_requests_total" in families
        assert "repro_serve_queue_depth" in families
        assert "repro_serve_batch_seconds" in families
        assert "repro_serve_request_latency_seconds" in families

    def test_metrics_json_then_input_rerender(self, tmp_path, capsys):
        from repro import perf
        from repro.perf import validate_prometheus

        snap_path = tmp_path / "snapshot.json"
        perf.reset()  # the registry is process-wide; count this run only
        code = main([
            "metrics", "--scale", "0.02", "--requests", "16",
            "--format", "json", "--output", str(snap_path),
        ])
        assert code == 0
        import json

        snap = json.loads(snap_path.read_text())
        assert "perf" in snap
        latency = snap["perf"]["observations"]["serve.request.latency_seconds"]
        assert latency["hist"]["count"] == 16  # one per async request
        capsys.readouterr()
        # Re-render the saved snapshot to Prometheus without a rebuild.
        assert main(["metrics", "--input", str(snap_path)]) == 0
        text = capsys.readouterr().out
        assert "repro_serve_requests_total" in text
        validate_prometheus(text)
