"""Host speed, measured alongside the operations, so that reported times do
not drift with it.

On a shared VM the same operation runs up to 1.8 times slower for stretches
of seconds to minutes, and fixed pure-Python work slows with it. So a fixed
piece of such work, `reference()`, runs just before and just after each timed
sample, and each sample is also reported scaled to a fixed host speed:

    scaled = wall * REF_S / mean(reference time before, reference time after)

REF_S is about what `reference()` took in a fast stretch on a 2-vCPU Xeon
VM (CPython 3.11), so a scaled time reads as the wall time on that host at
that speed. `reference()` calls nothing in fordc, so no change
to fordc moves it, and it must never change itself: it is the unit of every
scaled time.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

REF_S = 0.070


def reference() -> int:
    """Interpreter work of the kinds fordc does: integer arithmetic in a
    loop, deep recursion over tuple chains (unary numerals), and a tree of
    small objects walked with dict lookups by name."""
    acc = 0
    for i in range(300_000):
        acc += i * i % 7

    def plus(a, b):
        return b if a[0] == "zero" else ("suc", plus(a[1], b))

    def length(t):
        n = 0
        while t[0] == "suc":
            n += 1
            t = t[1]
        return n

    for k in range(100):
        a = ("zero",)
        for _ in range(150 + k):
            a = ("suc", a)
        acc += length(plus(a, a))

    names: dict[str, int] = {}

    def build(depth, i):
        if depth == 0:
            name = f"v{i}"
            names[name] = len(names)
            return (name, None, None)
        return (None, build(depth - 1, 2 * i), build(depth - 1, 2 * i + 1))

    def walk(t):
        name, left, right = t
        return names[name] if name is not None else walk(left) + walk(right)

    tree = build(14, 1)
    return acc + walk(tree) + walk(tree)


def reference_s() -> float:
    """Wall time of one `reference()`, from a collected heap."""
    gc.collect()
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def pin_to_one_cpu():
    """Keep this process, and the children it starts, on one CPU, so that
    the reference and the samples it scales run on the same CPU. The two
    vCPUs of a shared VM change speed independently."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Samples:
    """Wall times, each with its time scaled to REF_S host speed."""

    def __init__(self):
        self.wall: list[float] = []
        self.scaled: list[float] = []

    def add(self, seconds: float, ref_before: float) -> float:
        """Record a sample timed just after a reference that took
        `ref_before`; runs the reference after it and returns its time,
        which is the next sample's `ref_before`."""
        ref_after = reference_s()
        self.wall.append(seconds)
        self.scaled.append(seconds * 2 * REF_S / (ref_before + ref_after))
        return ref_after

    def __len__(self) -> int:
        return len(self.wall)

    def median(self) -> float:
        return statistics.median(self.scaled)

    def wall_median(self) -> float:
        return statistics.median(self.wall)
