"""CPU-speed reference for the benchmark's timings.

The benchmark was tuned on shared virtual CPUs whose speed drifts by up to
about 1.7x over seconds to minutes (a fixed CPU loop, same process, same
input).  Raw wall times then say more about the host than about the
program.  So every process that times package code also times a fixed
pure-Python reference loop (``kernel``: dicts, string slices, big integers
and ``Fraction`` sums; nothing from the package) from a SIGALRM handler
every ``INTERVAL_S`` of wall time, and records when each loop ran and how
long it took.

``Speedometer.scaled(a, b)`` reports a measured interval [a, b] as

    (b - a - reference-loop time inside it) * mean(REF_S / k_i)

over the loop timings k_i taken inside the interval; a short interval,
with fewer than ``NEAREST`` timings inside, uses the median of REF_S / k_i
over its ``NEAREST`` nearest timings instead.  That is the interval's
time at the CPU speed at which the loop takes ``REF_S`` (about the
median speed of the machine the benchmark was tuned on).  The loop only
measures the CPU; a faster or slower program moves every scaled time just
as it moves the raw one.

``perf_counter`` reads CLOCK_MONOTONIC on Linux, which all processes share,
so timings taken in a child interpreter scale intervals measured here.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.04
NEAREST = 5
PRIME = 5
PAUSE_TICKS = 3
REF_S = 0.001  # about the loop's median time within runs on the tuning machine

_clock = time.perf_counter


def kernel() -> int:
    """A fixed, deterministic pure-Python loop of about 1 ms."""
    table: dict[str, int] = {}
    x = 3 ** 200
    f = Fraction(0)
    w = "ab" * 40
    for i in range(1, 850):
        key = w[i % 37:i % 37 + 12]
        table[key] = table.get(key, 0) + x % (i + 7)
        x = (x * 3 + i) >> 1 | (1 << 600)
        if i % 8 == 0:
            f += Fraction(i, i + 3)
    return len(table) + f.denominator % 7


class Speedometer:
    """Reference-loop timings (start, duration), kept in start order."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def tick(self, signum=None, frame=None) -> None:
        start = _clock()
        kernel()
        self.samples.append((start, _clock() - start))

    def ticks(self, count: int) -> None:
        for _ in range(count):
            self.tick()

    def start(self) -> None:
        """Take PRIME timings now, then one every INTERVAL_S."""
        self.ticks(PRIME)
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    @contextlib.contextmanager
    def paused(self):
        """No timings while the body runs (used around ops that load every CPU).

        A few timings are taken right before and right after the body, so
        that its nearest timings are close to it in time.
        """
        self.stop()
        self.ticks(PAUSE_TICKS)
        try:
            yield
        finally:
            self.ticks(PAUSE_TICKS)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def speed(self) -> float:
        """Mean speed factor REF_S / k over all timings so far."""
        return sum(REF_S / d for _, d in self.samples) / len(self.samples)

    def merge(self, samples) -> None:
        self.samples = sorted(self.samples + [tuple(s) for s in samples])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.samples, fh)

    def scaled(self, a: float, b: float) -> float:
        """The interval [a, b] in seconds at reference speed, loop time excluded."""
        starts = [s for s, _ in self.samples]
        lo, hi = bisect.bisect_left(starts, a), bisect.bisect_left(starts, b)
        inside = self.samples[lo:hi]
        busy = b - a - sum(d for _, d in inside)
        if len(inside) >= NEAREST:
            return busy * sum(REF_S / d for _, d in inside) / len(inside)
        mid = (a + b) / 2
        window = self.samples[max(0, lo - NEAREST):hi + NEAREST]
        nearest = sorted(window, key=lambda s: abs(s[0] - mid))[:NEAREST]
        return busy * statistics.median(REF_S / d for _, d in nearest)
