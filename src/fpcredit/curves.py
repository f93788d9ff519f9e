"""Deterministic discount curves, payment schedules and year-fraction helpers.

Conventions used everywhere in this library:

- Times are year fractions measured from the valuation date; calendar dates
  only appear at the I/O boundary.
- Discounting is deterministic: ``P(0, t)`` is either a flat continuously
  compounded rate or a log-linear interpolation between pillars.
- Every piecewise-constant term structure (volatility, intensity, a pillar
  curve's forward rate) integrates to a `Clock`, piecewise linear in t.
- Premium schedules use equal accruals ``1/frequency`` (idealized ACT/365
  grid); calendar and holiday logic is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_finite

VALID_FREQUENCIES = (1, 2, 4, 12)
MAX_TENOR_YEARS = 100


@dataclass(frozen=True, eq=False)
class Clock:
    """The integral c(t) from 0 of a piecewise-constant rate: linear between
    the knots (`knot_t`, `knot_c`), which start at (0, 0), and at `tail_rate`
    beyond the last one."""

    knot_t: np.ndarray
    knot_c: np.ndarray
    tail_rate: float

    @classmethod
    def from_rates(cls, bucket_ends, rates) -> Clock:
        """The clock running at rates[i] up to bucket_ends[i], and at rates[-1] beyond."""
        knot_t = np.concatenate(([0.0], bucket_ends))
        with np.errstate(over="ignore"):
            knot_c = np.concatenate(([0.0], np.cumsum(np.array(rates) * np.diff(knot_t))))
        if knot_c[-1] == np.inf:
            raise DomainError("rates too large: their integral over the buckets overflows")
        return cls(knot_t, knot_c, float(rates[-1]))

    def __call__(self, t):
        """c(t) for scalar or array t >= 0; a float for scalar or 0-d t."""
        if np.any(np.asarray(t) < 0):
            raise DomainError("time must be non-negative")
        return _linear(t, self.knot_t, self.knot_c, lambda dt: self.tail_rate * dt)

    def inverse(self, c):
        """A time t with c(t) = c, for scalar or array c >= 0; inf past a zero tail rate."""
        return _linear(c, self.knot_c, self.knot_t, lambda dc: dc / self.tail_rate)


def _linear(x, xs, ys, tail):
    """np.interp through the knots (xs, ys), and ys[-1] + tail(x - xs[-1]) beyond them."""
    x_arr = np.asarray(x, dtype=float)
    y = np.interp(x_arr, xs, ys)
    beyond = x_arr > xs[-1]
    if np.any(beyond):
        with np.errstate(all="ignore"):  # only the entries beyond the knots are kept
            y = np.where(beyond, ys[-1] + tail(x_arr - xs[-1]), y)
    return float(y) if y.ndim == 0 else y


@dataclass(frozen=True)
class DiscountCurve:
    """Zero-coupon discount factors P(0, t).

    Construct either with a flat continuously compounded ``flat_rate`` or
    with ``pillars`` as a list of ``(t, df)`` pairs; pillar curves are
    interpolated log-linearly (piecewise-constant forward rates) and
    extrapolated beyond the last pillar with the last segment's forward.
    An implicit pillar (0, 1) is always present.
    """

    flat_rate: float | None = None
    pillars: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if (self.flat_rate is None) == (self.pillars is None):
            raise DomainError("provide exactly one of flat_rate or pillars")
        if self.flat_rate is not None:
            require_finite(self, "flat_rate")
        else:
            try:
                pts = tuple((float(t), float(df)) for t, df in self.pillars)
            except (TypeError, ValueError):
                raise DomainError(f"pillars must be (t, df) pairs of numbers, "
                                  f"got {self.pillars!r}") from None
            object.__setattr__(self, "pillars", pts)
            require_finite(self, "pillars")
            times = [t for t, _ in pts]
            dfs = [df for _, df in pts]
            if not times or any(t <= 0 for t in times) or times != sorted(set(times)):
                raise DomainError("pillar times must be non-empty, positive and strictly "
                                  "increasing")
            if any(df <= 0 or df > 1 for df in dfs):
                raise DomainError("pillar discount factors must lie in (0, 1]")
            # the clock of the forward rate is -log P(0, t)
            knot_t = np.concatenate(([0.0], times))
            knot_c = np.concatenate(([0.0], -np.log(dfs)))
            last_forward = (knot_c[-1] - knot_c[-2]) / (knot_t[-1] - knot_t[-2])
            object.__setattr__(self, "_clock", Clock(knot_t, knot_c, float(last_forward)))

    def rate_integral(self, t):
        """-log P(0, t) for scalar or array t >= 0: the flat rate times t, or the
        pillar clock (the integral of the forward rate)."""
        t_arr = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):  # an overflowing integral is +-inf
            out = self._rate_integral(t_arr)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def discount(self, t):
        """P(0, t) = exp(-rate_integral(t)) for scalar or array t >= 0."""
        t_arr = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):  # an overflowing integral discounts to 0 or inf
            out = np.exp(-self._rate_integral(t_arr))
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def _rate_integral(self, t_arr):
        if self.flat_rate is None:
            return self._clock(t_arr)
        if np.any(t_arr < 0):
            raise DomainError("discount time must be non-negative")
        return self.flat_rate * t_arr

    def forward_integral(self, t1: float, t2: float) -> float:
        """Integral of the instantaneous short rate over [t1, t2], i.e. log(P(0,t1)/P(0,t2))."""
        return self.rate_integral(t2) - self.rate_integral(t1)


@dataclass(frozen=True)
class PaymentSchedule:
    """Strictly increasing payment times with their accrual fractions.

    ``dates[i-1]`` is the 1-based payment time T_i, with T_0 = ``start``.
    ``next_payment_index(t)`` is the index function beta: the 1-based index
    of the first payment date strictly after t.
    """

    start: float
    dates: np.ndarray
    accruals: np.ndarray

    def __post_init__(self):
        dates = np.asarray(self.dates, dtype=float)
        if dates.size == 0 or not np.all(np.isfinite(dates)) or np.any(np.diff(dates) <= 0) \
                or not -math.inf < self.start < dates[0]:
            raise DomainError("payment dates must be finite, strictly increasing and after start")
        object.__setattr__(self, "dates", dates)
        acc = np.asarray(self.accruals, dtype=float)
        if acc.shape != dates.shape or np.any(acc <= 0):
            raise DomainError("accruals must be positive and match dates")
        object.__setattr__(self, "accruals", acc)

    @property
    def end(self) -> float:
        return float(self.dates[-1])

    def next_payment_index(self, t):
        """beta(t): 1-based index of the first payment date strictly after t, as
        an intp array of t's shape; n + 1 past the last of the n dates, and at NaN.

        Right-continuous and non-decreasing; beta(T_i) = i + 1.  It counts the
        dates after each t into the narrowest unsigned count that holds n, which
        beats a binary search per t on the short schedules of the ERS contracts.
        Only the dates between the least and the greatest t (NaN sorts past every
        date) take a pass over t: those below are after no t, those above after all.
        """
        t_arr = np.asarray(t, dtype=float)
        n = self.dates.size
        lo, hi = np.searchsorted(self.dates, (np.fmin.reduce(t_arr, axis=None, initial=np.inf),
                                              np.max(t_arr, initial=-np.inf)), side="right")
        after = np.full(t_arr.shape, n - hi, dtype=np.min_scalar_type(n))
        is_after = np.empty(t_arr.shape, dtype=bool)
        for d in self.dates[lo:hi]:
            after += np.less(t_arr, d, out=is_after)
        return np.subtract(n + 1, after, dtype=np.intp)


def period_count(start: float, end: float, frequency: int) -> int:
    """The number of periods of 1/frequency from start to end, a whole number to 1e-9."""
    n = round((end - start) * frequency)
    if n < 1 or abs(start + n * (1.0 / frequency) - end) > 1e-9:
        raise DomainError("tenor must be an integer number of periods")
    return n


def make_schedule(start: float, end: float, frequency: int) -> PaymentSchedule:
    """Evenly spaced payment grid with accruals 1/frequency; final date equals end."""
    if not -math.inf < start < end < math.inf:
        raise DomainError("schedule start and end must be finite, with end after start")
    if end - start > MAX_TENOR_YEARS:
        raise DomainError(f"schedule longer than {MAX_TENOR_YEARS} years: {end - start!r}")
    if frequency not in VALID_FREQUENCIES:
        raise DomainError(f"frequency must be one of {VALID_FREQUENCIES}")
    step = 1.0 / frequency
    n = period_count(start, end, frequency)
    dates = start + step * np.arange(1, n + 1)
    dates[-1] = end
    return PaymentSchedule(start=start, dates=dates, accruals=np.full(n, step))
