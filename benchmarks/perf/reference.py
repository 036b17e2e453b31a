"""The reference kernel: how fast is this machine right now?

The sandbox this benchmark runs in slows down by up to 1.7x for minutes
at a time.  Process CPU time rises with wall time when it does, so it is
the machine that is slower, not the scheduler taking the CPU away, and no
statistic over the samples of one 20 s run can see past it: over ten runs
of one commit the medians spread by 0.3 and the minima by 0.2-0.3.  A
fixed piece of plain interpreter work slows down by the same factor (over
300 s its 20 s medians ran from 111 to 187 while the ratio of a
``simulate()`` call's 20 s median to it stayed within 6 %).  So a run
samples this kernel between its operations and reports its end-to-end
times at *reference speed*: multiplied by ``REFERENCE_S`` over the median
of the samples.  The kernel calls nothing of the repo, so no change to the
repo can move it.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

#: What :func:`kernel` takes on this box when nothing disturbs it.
REFERENCE_S = 0.0100


def kernel() -> int:
    table, acc = {}, 0
    for i in range(30000):
        acc += (i * 7) ^ (acc >> 3)
        table[i & 1023] = acc
    return acc


def pace() -> float:
    """The factor that turns a time measured now into the time it would
    have taken at reference speed: ``REFERENCE_S`` over the kernel's
    median of three runs."""
    taken = []
    for _ in range(3):
        start = perf_counter()
        kernel()
        taken.append(perf_counter() - start)
    return REFERENCE_S / median(taken)


class Stopwatch:
    """Times consecutive pieces of work, each at reference speed: scaled
    by the mean of the machine's pace right before and right after the
    piece.  (The pace changes within a second, so one factor for a few
    seconds of work is off by more than the work's own noise: over ten
    runs, set-up timed piece by piece spread 0.04, with one factor 0.11
    and as measured 0.09.)"""

    def __init__(self) -> None:
        self.paces = [pace()]
        self.start = perf_counter()

    def lap(self) -> float:
        seconds = perf_counter() - self.start
        self.paces.append(pace())
        self.start = perf_counter()
        return seconds * (self.paces[-2] + self.paces[-1]) / 2
