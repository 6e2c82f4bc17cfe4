"""Reference kernel: how fast this machine runs Python at this moment.

The benchmark shares a machine whose speed swings by up to 1.6x over
stretches of several seconds, longer than a run.  Timing this fixed kernel
between jobs measures that speed, and every time the benchmark reports is
scaled to the reference speed: ``raw * NOMINAL_MS / kernel_ms``, with the
kernel time averaged over the samples just before and just after the timed
interval.  A program change moves the job's time and leaves the kernel's
alone, so the ratio tracks the program.  The raw times are printed too.

The kernel does what the program spends its time on: dict updates keyed
by exponent tuples, modular products in small slotted objects, and
``Fraction`` sums.  It imports nothing from cliffbundle.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

#: Kernel time in ms at the reference speed (the fast state of the 2-core
#: x86-64 machine the benchmark was defined on, Python 3.11).
NOMINAL_MS = 0.30
CALLS_PER_SAMPLE = 3


class _Residue:
    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def __mul__(self, other):
        return _Residue(self.value * other.value, self.p)


def kernel():
    f = {(i, j, 4 - i - j): _Residue(i * 7 + j * 3 + 1, 101)
         for i in range(5) for j in range(5 - i)}
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in f.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            prev = out.get(e)
            out[e] = (c1 * c2).value if prev is None else (prev + (c1 * c2).value) % 101
    acc = Fraction(0)
    for k in range(1, 20):
        acc += Fraction(k, k + 1)
    return out, acc


def sample() -> float:
    """Kernel time in ms: the median of a few back-to-back calls."""
    times = []
    for _ in range(CALLS_PER_SAMPLE):
        t0 = time.perf_counter_ns()
        kernel()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e6


def scale(before_ms: float, after_ms: float) -> float:
    """Factor that converts a raw time measured between the two samples."""
    return NOMINAL_MS / ((before_ms + after_ms) / 2)
