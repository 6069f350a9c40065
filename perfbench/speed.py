"""Machine speed, sampled with a fixed reference kernel, for rescaling times.

On shared virtual machines (measured on a 2-vCPU KVM guest of a
4th-generation Xeon) the speed of one vCPU changes by up to 1.9x for seconds
to minutes at a time: identical solves took 125 ms in one stretch and 255 ms
in the next, which no run length or median can average away.  Interpreted,
small-array code such as the solver's hot loop slows with the machine almost
exactly, so each time the benchmark reports is rescaled to a fixed reference
speed: the raw time times the machine's relative speed while it was taken.
The relative speed is ``NOMINAL_S / d`` for the duration ``d`` of the
reference kernel, averaged over samples taken at even intervals; it is about
1 when the machine runs at full speed.  Raw times are kept beside the
rescaled ones in every result.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: reference-kernel iterations per sample, 0.25 to 0.6 ms
REF_ITERS = 100
#: duration of one sample at the reference speed: the 5th percentile on a
#: 2-vCPU KVM guest of a 4th-generation Xeon, that is the machine at full speed
NOMINAL_S = 0.25e-3
#: interval between samples during a pass; the samples cost under 1% of it
INTERVAL_S = 0.05


def reference_kernel() -> float:
    """Fixed Python and small-array work, independent of the program measured."""
    a = np.ones(8)
    acc = 0.0
    for _ in range(REF_ITERS):
        a = a * 1.0000001 + 0.5
        acc += float(a @ a) ** 0.5
    return acc


def sample() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class Speedometer:
    """Samples the reference kernel every ``interval`` seconds (from SIGALRM) while active."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples = []  # (start, duration)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append((t0, sample()))

    def rescale(self, t0: float, t1: float) -> tuple:
        """``(raw, rescaled)`` seconds of the interval, without the sampling time.

        An interval too short to hold a sample takes the relative speed of the
        nearest one.
        """
        inside = [d for t, d in self.samples if t0 <= t < t1]
        raw = (t1 - t0) - sum(inside)
        if not inside:
            inside = [min(self.samples, key=lambda s: abs(s[0] - t0))[1]] if self.samples else [NOMINAL_S]
        return raw, raw * statistics.mean(NOMINAL_S / d for d in inside)
