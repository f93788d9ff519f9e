"""Host-speed pacing: a step's wall time converted to seconds at a fixed
reference speed of the machine.

The benchmark runs on shared hosts whose cores run identical work at
speeds up to 1.6x apart, in phases of ten seconds to several minutes.  A
run's raw wall time measures the phase it met as much as the program.  So
every timed step is bracketed by a short reference kernel that does the
same kind of work as the step, does not touch fpcredit and never changes
with it, and the step's time is scaled by how much slower than nominal
the kernel ran just before and just after it:

    paced seconds = step seconds x NOMINAL_S[kind] / mean(kernel before, kernel after)

A change to fpcredit moves the step's time and leaves the kernels alone,
so it moves the paced time by the same share; a slow phase of the host
slows both and cancels out.  Kinds of work differ in how much a slow
phase hurts them, so each has its own kernel:

- "scalar": interpreted Python calling numpy on tiny arrays and scipy's
  brentq on a Python objective, the shape of a CDS bootstrap and of the
  SBTV step-1 search under the postponed payoff;
- "grid": survival and CDS legs in numpy on a daily grid of 3,650 dates,
  the shape of the fits under the exact payoff;
- "array": numpy on arrays of 200,000 numbers, the shape of the Monte
  Carlo simulation and its fixed point;
- "process": a fresh interpreter that imports numpy and the scipy modules
  fpcredit uses, the shape of the set-up a desk user pays.
"""

from __future__ import annotations

import math
import subprocess
import sys
from time import perf_counter

import numpy as np
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtr

# About each kernel's time in a fast phase of a 2-vCPU shared x86-64 host
# (Python 3.11, numpy 2.4, scipy 1.17).  They only set the scale of the
# paced seconds: any fixed value gives the same spreads and ratios.
NOMINAL_S = {"scalar": 0.012, "grid": 0.0075, "array": 0.006, "process": 0.5}


def _scalar_kernel() -> float:
    total = 0.0
    for i in range(20_000):
        total += (i * 0.5) % 7.0
    a = np.linspace(0.0, 1.0, 8)
    for _ in range(1_000):
        a = np.exp(-a) * 0.5 + np.sqrt(a + 1.0)
    for _ in range(4):
        for j in range(60):
            c = 0.01 * (j + 1)
            total += brentq(lambda h: math.exp(-5.0 * h) * (1.0 + c) - 0.5 - c * math.log1p(h),
                            1e-9, 5.0, xtol=1e-14)
    return total + float(a.sum())


_DAYS = np.linspace(1.0 / 365.0, 10.0, 3_650)


def _grid_kernel() -> float:
    total = 0.0
    df = np.exp(-0.03 * _DAYS)
    for j in range(40):
        v = (0.2 + 0.001 * j) ** 2 * _DAYS
        d = (-0.5 - 0.5 * v) / np.sqrt(v)
        q = ndtr(-d) - 0.5 * np.exp(np.minimum(log_ndtr(d + np.sqrt(v)), 0.0))
        protection = np.cumsum(df[1:] * -np.diff(q))
        annuity = np.cumsum(df * q / 365.0)
        for n in (365, 1_095, 1_825, 2_555, 3_649):
            total += protection[n - 1] / annuity[n - 1]
    return total


# The array kernel writes into buffers allocated once, so that its time does
# not depend on whether the allocator serves 1.6 MB from the heap or from
# fresh pages, which varies with what the process allocated before.
_Z, _X, _PEAK = (np.empty(200_000) for _ in range(3))
_LOW = np.empty(200_000, dtype=bool)


def _array_kernel() -> float:
    np.random.default_rng(1).standard_normal(out=_Z)
    np.multiply(_Z, 0.01, out=_X)
    np.cumsum(_X, out=_X)
    np.maximum.accumulate(_X, out=_PEAK)
    np.exp(np.negative(_PEAK, out=_PEAK), out=_PEAK)
    return float(_PEAK.sum()) + float(np.count_nonzero(np.less(_X, -1.0, out=_LOW)))


def _process_kernel() -> None:
    subprocess.run([sys.executable, "-c", "import numpy, scipy.optimize, scipy.special"],
                   capture_output=True, check=True, timeout=120)


KERNELS = {"scalar": _scalar_kernel, "grid": _grid_kernel, "array": _array_kernel,
           "process": _process_kernel}
# A kernel's time is the fastest of this many runs.  The grid and array
# kernels are short (under 10 ms) beside the steps they pace (2-5 s), so
# three runs cost little and keep one interrupted run from skewing a step.
RUNS = {"scalar": 1, "grid": 3, "array": 3, "process": 1}


class Pace:
    """Times the reference kernels around timed steps.

    The kernel run after a step also serves as the one before the next
    step of the same kind, so back-to-back steps cost one kernel each.
    """

    def __init__(self):
        self._last: tuple[str, float] | None = None  # (kind, seconds) of the latest kernel

    def _time(self, kind: str) -> float:
        best = float("inf")
        for _ in range(RUNS[kind]):
            start = perf_counter()
            KERNELS[kind]()
            best = min(best, perf_counter() - start)
        return best

    def before(self, kind: str) -> float:
        """The kernel's time just before a step of this kind."""
        if self._last is not None and self._last[0] == kind:
            return self._last[1]
        return self._time(kind)

    def paced(self, kind: str, before_s: float, seconds: float) -> float:
        """A step's `seconds`, measured after `before`, at the nominal speed."""
        after_s = self._time(kind)
        self._last = (kind, after_s)
        return seconds * NOMINAL_S[kind] / ((before_s + after_s) / 2.0)
