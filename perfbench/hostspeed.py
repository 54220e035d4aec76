"""Durations in reference seconds, corrected for the host's changing speed.

A shared VM runs the same pure-Python code up to about 2x slower at some
times than at others, in episodes that last from seconds to minutes.  No
length of run averages that out.  So the benchmark times a fixed reference
task between blocks of jobs and reports each block's duration in *reference
seconds*:

    reference_s = measured_s * REFERENCE_TASK_S / mean(task time before, task time after)

The reference task is Fraction arithmetic on dict-keyed sparse polynomials,
the kind of work ``hsprolong`` does, but written here and sharing no code
with the program, so no change to the program changes it.
``REFERENCE_TASK_S`` is a fixed constant, about the task's time on a 2-CPU
x86_64 VM with CPython 3.11 at its fastest, so reference seconds are close to
the seconds such a host gives when it is not slowed down.  A program that
does twice the work still takes twice the reference seconds.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_TASK_S = 0.0018
BLOCK_S = 0.05  # measured seconds between two samples of the task

_A = {(i, j): Fraction(i - j + 1, i + 2) for i in range(5) for j in range(4)}
_B = {(i, j): Fraction(j + 1, i + 3) for i in range(4) for j in range(5)}


def reference_task() -> dict:
    """A fixed sparse product plus a fixed Fraction accumulation."""
    out: dict = {}
    for (a1, a2), x in _A.items():
        for (b1, b2), y in _B.items():
            key = (a1 + b1, a2 + b2)
            value = out.get(key, 0) + x * y
            if value:
                out[key] = value
            else:
                out.pop(key, None)
    for i in range(1, 150):
        key = (i * 7) % 23
        out[key] = out.get(key, 0) + Fraction(i, 3) * Fraction(5, i + 2)
    return out


def sample() -> float:
    """Seconds the reference task takes now."""
    t0 = time.perf_counter()
    reference_task()
    return time.perf_counter() - t0


class HostClock:
    """Turns measured seconds into reference seconds, block by block.

    ``record`` collects measured durations; after every ``BLOCK_S`` of them
    the reference task is timed again, and the block is converted with the
    mean of the task times before and after it.  ``take`` converts what is
    left and returns the reference seconds of everything recorded since the
    last ``take``, in order.
    """

    def __init__(self):
        self.last = sample()
        self.samples = [self.last]
        self.pending: list = []
        self.done: list = []

    def record(self, measured_s: float) -> None:
        self.pending.append(measured_s)
        if sum(self.pending) >= BLOCK_S:
            self._convert()

    def take(self) -> list:
        self._convert()
        out, self.done = self.done, []
        return out

    def _convert(self) -> None:
        if not self.pending:
            return
        now = sample()
        self.samples.append(now)
        factor = REFERENCE_TASK_S / ((self.last + now) / 2)
        self.last = now
        self.done.extend(t * factor for t in self.pending)
        self.pending = []
