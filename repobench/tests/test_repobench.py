"""Toy-size runs of every workload: metrics emitted, corruption caught.

Run from the repository root::

    python3 -m pytest repobench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads
from repro.core.dataset import RSD15K
from repro.models.bilstm import TimeAwareBiLSTM
from repro.serve import InferenceEngine
from tracer import Tracer, layer_wrappers, resolve
from workloads import END_TO_END, PER_LAYER, WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def toy(workload: str, tmp_path: Path, trace: bool = True):
    return workloads.run(workload, seed=3, seconds=0.01, trace=trace,
                         size="toy", root=tmp_path)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted(workload, tmp_path):
    result = toy(workload, tmp_path)
    assert result.attempted > 0
    assert result.failed == 0, result.notes
    assert set(result.end_to_end) == set(END_TO_END)
    assert all(v > 0 for v in result.end_to_end.values())
    assert set(result.per_layer) == set(PER_LAYER)
    assert 0.5 < result.per_layer["trace.attributed_fraction"] <= 1.0
    # The scratch directory is removed again.
    assert not (tmp_path / ".repobench").exists()


def test_layers_idle_outside_their_workload(tmp_path):
    build = toy("build", tmp_path).per_layer
    assert build["corpus.generate_s"] > 0 and build["core.anonymise_s"] > 0
    assert build["nn.forward_s"] == 0 and build["serve_p99_ms"] == 0
    serve = toy("serve", tmp_path).per_layer
    assert serve["nn.forward_s"] > 0 and serve["text.encode_s"] > 0
    assert serve["nn.backward_s"] == 0 and serve["corpus.generate_s"] == 0


def test_corrupt_dataset_fails_build_check(tmp_path, monkeypatch):
    original = RSD15K.to_jsonl
    calls = []

    def corrupt(self, path):
        original(self, path)
        calls.append(path)
        if len(calls) == 2:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write("{}\n")

    monkeypatch.setattr(RSD15K, "to_jsonl", corrupt)
    result = toy("build", tmp_path)
    assert result.failed >= 1
    assert any("sha256" in note for note in result.notes)


def test_corrupt_predictions_fail_train_check(tmp_path, monkeypatch):
    original = TimeAwareBiLSTM._predict
    calls = []

    def corrupt(self, windows):
        out = np.array(original(self, windows))
        calls.append(1)
        if len(calls) == 2:
            out[0] = (out[0] + 1) % 4
        return out

    monkeypatch.setattr(TimeAwareBiLSTM, "_predict", corrupt)
    result = toy("train", tmp_path)
    assert result.failed == 1
    assert any("bilstm" in note for note in result.notes)


def test_corrupt_scores_fail_serve_check(tmp_path, monkeypatch):
    original = InferenceEngine.predict_many

    def corrupt(self, windows):
        return original(self, windows)[:, ::-1]

    monkeypatch.setattr(InferenceEngine, "predict_many", corrupt)
    result = toy("serve", tmp_path, trace=False)
    assert result.failed > 0
    assert any("bulk labels" in note for note in result.notes)


def test_tracer_self_time_and_restore():
    tracer = Tracer()

    def inner():
        return 1

    def outer():
        return inner() + traced_inner()

    traced_inner = tracer.wrap(inner, "inner")
    traced_outer = tracer.wrap(outer, "outer")
    assert traced_outer() == 2
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == 0 and outer_span.parent is None
    assert outer_span.self_s == pytest.approx(
        outer_span.duration - inner_span.duration
    )
    targets = layer_wrappers()
    before = [resolve(owner).__dict__[attr] for owner, attr, _ in targets]
    with Tracer():
        pass
    after = [resolve(owner).__dict__[attr] for owner, attr, _ in targets]
    assert before == after


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def run_cli(cwd: Path, *args: str):
    return subprocess.run(
        [sys.executable, str(cwd / "repobench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_cli_prints_result_last():
    out = run_cli(ROOT, "--workload", "build", "--seed", "2", "--seconds",
                  "0.01", "--trace", "0", "--size", "toy")
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == set(END_TO_END)
    assert "manifest" in out.stdout


def test_cli_fails_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "repobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_cli(tmp_path, "--workload", "build", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
