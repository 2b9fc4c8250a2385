"""Repo benchmark: ``build``, ``train`` and ``serve`` workloads.

Usage (from the repository root)::

    python3 repobench/run.py --workload build --seed 1 --seconds 12 --trace 0
    python3 repobench/run.py --workload all --seed 1 --seconds 12 --trace 1

Prints a run manifest, a human report of every metric with its unit,
and, as the last line of standard output, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics (measured with
tracing off); with ``--trace 1`` they are the per-layer metrics of a
traced run. ``--workload all`` runs the three workloads in turn and
prefixes each metric with its workload's name. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("build", "train", "serve")
sys.path.insert(0, str(HERE))

from speed import pin_to_fastest_cpu  # noqa: E402  (imports no numpy)


def blas_threads() -> int:
    """Cap the BLAS pool at the CPUs this process may use (set before
    numpy is imported, inherited by worker processes)."""
    cpus = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(requested), cpus) if requested.isdigit() else cpus
    os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, threads))
    return max(1, threads)


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def manifest(args, threads: int, cpus: list[int], pinned: int | None) -> dict:
    import numpy as np

    from workloads import SIZES

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    size = SIZES[args.size]
    scales = {"build": size["build_scale"], "train": size["train_scale"],
              "serve": size["serve_scale"]}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "scale": scales.get(args.workload, scales),
        "nproc": len(cpus),
        "pinned_cpu": pinned,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
        "git_sha": git_sha(),
    }


def parse(argv: list[str]):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: the same code at test size")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"repobench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    cpus = sorted(os.sched_getaffinity(0))
    pinned = pin_to_fastest_cpu()
    threads = blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import END_TO_END, PER_LAYER, run

    print("manifest " + json.dumps(manifest(args, threads, cpus, pinned),
                                   sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in names:
        result = run(workload, args.seed, args.seconds, bool(args.trace),
                     args.size, ROOT, set(cpus))
        values = result.per_layer if args.trace else result.end_to_end
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
        print(f"[{workload}] attempted {result.attempted} "
              f"failed {result.failed}")
        for name, (value, unit) in result.report.items():
            if name not in units:
                print(f"[{workload}] {name} = {value:.6g} {unit}")
        for name in units:
            print(f"[{workload}] {name} = {values[name]:.6g} {units[name]}")
        for note in result.notes:
            print(f"[{workload}] {note}")
        attempted += result.attempted
        failed += result.failed
        correct = correct and result.failed == 0 and result.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
