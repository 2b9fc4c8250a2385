"""CPU speed probe, for pinning and for speed-normalised times.

On a shared host the same code runs up to 1.5× slower for tens of
seconds at a time, and the slowdown is in CPU time too, so no choice of
clock hides it. A fixed pure-Python loop timed right before and right
after each repetition measures how fast the CPU ran then; dividing the
repetition's time by it removes most of that drift. This module imports
nothing heavy, so it can run before numpy loads.
"""

from __future__ import annotations

import os
import time

#: Probe time at the reference speed. A normalised time is the seconds
#: the operation would take on a CPU where the probe takes exactly this
#: long (a quiet vCPU of the 2-CPU development host takes 8–11 ms).
PROBE_REF_S = 0.010


def probe_s() -> float:
    """Best of three runs of a fixed pure-Python loop (≈10 ms each)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def normalised(wall: float, probe: float) -> float:
    """``wall`` seconds, rescaled to the reference speed."""
    return wall * PROBE_REF_S / probe


def timed_probed(fn):
    """``(fn(), wall seconds, mean probe seconds before and after)``."""
    before = probe_s()
    start = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - start
    return out, wall, (before + probe_s()) / 2


def pin_to_fastest_cpu() -> int | None:
    """Pin this process to the CPU the probe finds least contended.

    On a shared host one vCPU can run 40% slower than its sibling for
    minutes at a time. Must run before numpy loads, so that BLAS threads
    inherit the pin.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    speed = {cpu: float("inf") for cpu in cpus}
    for _ in range(2):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(speed[cpu], probe_s())
    fastest = min(cpus, key=speed.__getitem__)
    os.sched_setaffinity(0, {fastest})
    return fastest
