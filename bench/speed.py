"""Correction of measured times for the speed of a shared machine.

On a shared virtual machine other tenants slow the CPU by 20-40%, in
stretches from tens of milliseconds to minutes, and the slowdown holds both
for the library's jobs and for any other pure-Python code running at that
moment.  So the benchmark times a fixed reference unit of work right before
and after each job, and, from a timer signal, every ``INTERVAL_S`` while the
job runs, and reports the job's time at a nominal speed:

    corrected = (measured - time spent in the reference units) * NOMINAL_S / reference

where ``reference`` is the mean time of the unit around and during the job,
leaving out the slowest fifth of the units (a unit the hypervisor or the
kernel stopped for a few milliseconds reads many times its time, and would
swamp the mean), and ``NOMINAL_S`` a fixed, typical time of the unit.  The unit has the same
shape as the library's inner loops (ring operations called as methods in a
``zip`` loop over list rows) and calls nothing in the library, so no change
to the library moves it.
"""

from __future__ import annotations

import signal
import statistics
import time

# The unit's median time, measured once on its own on a shared 2-vCPU x86-64
# virtual machine, Python 3.11.7.  It fixes only the scale of corrected
# times.
NOMINAL_S = 0.00035

# Seconds between reference units timed while a job runs; with a unit of
# about 0.35 ms they take about 7% of the job's time, which is subtracted.
INTERVAL_S = 0.005

# Units timed in each gap between jobs.
EDGE_UNITS = 4


class _Ring:
    def is_zero(self, a):
        return a == 0

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b


_ROWS = [[(i * 7 + j * 3) % 5 - 2 for j in range(10)] for i in range(10)]
_COLS = list(zip(*_ROWS))


def unit_s() -> float:
    """Seconds one reference unit takes now: a 10x10 integer matrix product,
    written like ``Matrix.mul``."""
    rg = _Ring()
    t0 = time.perf_counter()
    out = []
    for arow in _ROWS:
        row = []
        for bcol in _COLS:
            acc = 0
            for a, b in zip(arow, bcol):
                if not rg.is_zero(a) and not rg.is_zero(b):
                    acc = rg.add(acc, rg.mul(a, b))
            row.append(acc)
        out.append(row)
    return time.perf_counter() - t0


def edge_units() -> list[float]:
    return [unit_s() for _ in range(EDGE_UNITS)]


class Sampler:
    """Times the work done inside ``with``, and, when ``active``, a reference
    unit every ``INTERVAL_S`` meanwhile.

    Afterwards ``samples`` holds the unit times, ``spent`` the time they and
    their signal handler took, and ``seconds`` the time the work took
    without ``spent``.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.samples: list[float] = []
        self.seconds = 0.0
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(unit_s())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = time.perf_counter()
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            # Disarm before reading the clock, so every tick falls inside
            # the measured interval.
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = time.perf_counter() - self._t0 - self.spent
        if self.active:
            signal.signal(signal.SIGALRM, self._previous)


def corrected(seconds: float, units: list[float]) -> float:
    """``seconds`` at the nominal speed, given unit times around and during it."""
    kept = sorted(units)[: len(units) - len(units) // 5]
    return seconds * NOMINAL_S / statistics.fmean(kept)
