"""Timings in reference seconds: wall time corrected for the machine's speed.

On a shared host, other tenants slow this machine's cores by up to 2x, in
stretches from under a second to minutes. They do not take the CPU away:
CPU time grows with wall time and steal time stays near zero. So no
statistic of a run's wall times can tell a slower program from a slower
machine, and over ten runs the same code spread by more than a quarter.

The benchmark therefore times a fixed piece of pure-Python work, the
reference loop, right before and right after every timed sample. The loop
uses the standard library only and none of the program. Each sample is
reported in reference seconds: its wall time over the mean of the two
reference times around it, times ``REFERENCE_S``. ``REFERENCE_S`` is the
loop's time at full speed on the machine the benchmark was built on (a
2-vCPU x86 VM, Python 3.11). A change to the program moves the sample. A
slower machine moves the sample and the reference alike.
"""

from __future__ import annotations

import gc
import json
import random
import time
from statistics import mean
from typing import Any, Callable

#: The reference loop's wall time at full speed, in seconds: the fastest of
#: 300 loops on the machine the benchmark was built on was 0.0270 s.
REFERENCE_S = 0.027

#: A reference time measured at most this long ago still counts as taken
#: right before the next sample.
FRESH_S = 0.05


def reference_loop() -> int:
    """A fixed mix of the work the program does: dicts, lists, JSON, sorting
    and integer arithmetic, all in the interpreter."""
    rng = random.Random(1)
    table = {f"k{i}": [rng.random() for _ in range(8)] for i in range(3000)}
    parsed = json.loads(json.dumps(table, sort_keys=True))
    ordered = sorted((row[0], key) for key, row in parsed.items())
    total = 0
    for i in range(60000):
        total += i & 7
    return len(ordered) + total


def reference_seconds() -> float:
    gc.collect()
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def middle_mean(values: list[float]) -> float:
    """Mean of the middle half of ``values`` (all of them when fewer than 4)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return mean(ordered[cut : len(ordered) - cut])


class Pace:
    """Times samples and scales each to reference seconds."""

    def __init__(self) -> None:
        self.references: list[float] = []
        self._last_end = float("-inf")

    def _reference(self) -> float:
        seconds = reference_seconds()
        self.references.append(seconds)
        self._last_end = time.perf_counter()
        return seconds

    def time(self, fn: Callable[[], Any]) -> tuple[float, float, Any]:
        """Run ``fn`` between two reference loops.

        Returns its wall time, that time in reference seconds, and what
        ``fn`` returned. The reference after one sample serves as the one
        before the next when nothing else ran in between.
        """
        if time.perf_counter() - self._last_end < FRESH_S:
            before = self.references[-1]
        else:
            before = self._reference()
        gc.collect()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        after = self._reference()
        return elapsed, elapsed * REFERENCE_S / ((before + after) / 2), result
