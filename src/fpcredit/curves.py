"""Deterministic discount curves, payment schedules and year-fraction helpers.

Conventions used everywhere in this library:

- Times are year fractions measured from the valuation date; calendar dates
  only appear at the I/O boundary.
- Discounting is deterministic: ``P(0, t)`` is either a flat continuously
  compounded rate or a log-linear interpolation between pillars.
- Premium schedules use equal accruals ``1/frequency`` (idealized ACT/365
  grid); calendar and holiday logic is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, require_finite

VALID_FREQUENCIES = (1, 2, 4, 12)


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
            if any(t <= 0 for t in times) or times != sorted(set(times)):
                raise DomainError("pillar times must be positive and strictly increasing")
            if any(df <= 0 or df > 1 for df in dfs):
                raise DomainError("pillar discount factors must lie in (0, 1]")
            knot_t = np.concatenate(([0.0], np.array(times)))
            knot_logdf = np.concatenate(([0.0], np.log(dfs)))
            object.__setattr__(self, "_knot_t", knot_t)
            object.__setattr__(self, "_knot_logdf", knot_logdf)

    def discount(self, t):
        """P(0, t) for scalar or array t >= 0."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0):
            raise DomainError("discount time must be non-negative")
        if self.flat_rate is not None:
            with np.errstate(over="ignore"):  # an overflowing rate * t discounts to 0 or inf
                out = np.exp(-self.flat_rate * t_arr)
        else:
            knot_t = self._knot_t
            knot_logdf = self._knot_logdf
            logdf = np.interp(t_arr, knot_t, knot_logdf)
            # flat-forward extrapolation beyond the last pillar
            if knot_t.size >= 2:
                last_fwd = (knot_logdf[-1] - knot_logdf[-2]) / (knot_t[-1] - knot_t[-2])
                beyond = t_arr > knot_t[-1]
                logdf = np.where(beyond, knot_logdf[-1] + last_fwd * (t_arr - knot_t[-1]), logdf)
            out = np.exp(logdf)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def forward_integral(self, t1: float, t2: float) -> float:
        """Integral of the instantaneous short rate over [t1, t2], i.e. log(P(0,t1)/P(0,t2))."""
        return math.log(self.discount(t1) / self.discount(t2))


@dataclass(frozen=True)
class PaymentSchedule:
    """Strictly increasing payment times with their accrual fractions.

    ``dates[i-1]`` is the 1-based payment time T_i, with T_0 = ``start``.
    ``next_payment_index(t)`` is the index function beta: the 1-based index
    of the first payment date strictly after t.
    """

    start: float
    dates: np.ndarray
    accruals: np.ndarray = field(default=None)

    def __post_init__(self):
        dates = np.asarray(self.dates, dtype=float)
        if dates.size == 0 or not np.all(np.isfinite(dates)) or np.any(np.diff(dates) <= 0) \
                or not -math.inf < self.start < dates[0]:
            raise DomainError("payment dates must be finite, strictly increasing and after start")
        object.__setattr__(self, "dates", dates)
        if self.accruals is None:
            prev = np.concatenate(([self.start], dates[:-1]))
            object.__setattr__(self, "accruals", dates - prev)
        else:
            acc = np.asarray(self.accruals, dtype=float)
            if acc.shape != dates.shape or np.any(acc <= 0):
                raise DomainError("accruals must be positive and match dates")
            object.__setattr__(self, "accruals", acc)

    @property
    def end(self) -> float:
        return float(self.dates[-1])

    def next_payment_index(self, t):
        """beta(t): 1-based index of the first payment date strictly after t.

        Right-continuous and non-decreasing; beta(T_i) = i + 1.
        """
        return np.searchsorted(self.dates, np.asarray(t, dtype=float), side="right") + 1

    def previous_date(self, t):
        """T_{beta(t)-1}: the last schedule time (start included) at or before t."""
        idx = np.searchsorted(self.dates, np.asarray(t, dtype=float), side="right")
        padded = np.concatenate(([self.start], self.dates))
        return padded[idx]


def make_schedule(start: float, end: float, frequency: int) -> PaymentSchedule:
    """Evenly spaced payment grid with accruals 1/frequency; final date equals end."""
    if not -math.inf < start < end < math.inf:
        raise DomainError("schedule start and end must be finite, with end after start")
    if frequency not in VALID_FREQUENCIES:
        raise DomainError(f"frequency must be one of {VALID_FREQUENCIES}")
    step = 1.0 / frequency
    n = round((end - start) * frequency)
    if n < 1 or abs(start + n * step - end) > 1e-9:
        raise DomainError("tenor must be an integer number of periods")
    dates = start + step * np.arange(1, n + 1)
    dates[-1] = end
    return PaymentSchedule(start=start, dates=dates, accruals=np.full(n, step))
