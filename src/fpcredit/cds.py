"""Running CDS pricing under any calibrated survival model.

Prices are per unit notional from the protection buyer's viewpoint, with
positive = value received by the buyer.  Under this sign convention the
fair spread makes the price zero and a higher running spread lowers the
buyer's value.

Both legs are prefix sums over the payment dates: entry i values the same
contract cut at the (i+1)-th date, so one grid, the longest pillar's, prices
every pillar of a calibration fit.  `leg_grid` computes once per schedule,
curve and convention the times where survival is read and the discounted
leg weights; `LegGrid.legs` applies them to a survival vector.  `cds_legs`
does both, and `cds_price` and `fair_spread` read its last entry.
Two payoff conventions are implemented:

- ``postponed`` (the default): protection paid at the first schedule date
  after default, no accrual term; survival is read at the payment dates only.
- ``exact``: premium accrual and protection paid at the default time.  By
  parts over each period [a, b], with D the discount factor and f its
  piecewise-constant forward, this is the postponed leg plus corrections
  int f D (Q(a) - Q) dt (protection) and int D (1 - f (t - a)) (Q - Q(b)) dt
  (accrual), linear in survival Q at ``GAUSS_NODES`` Gauss-Legendre nodes per
  piece between payment dates, curve pillars and the model's knots; the
  first period is also halved ``FIRST_PERIOD_HALVINGS`` times toward t = 0,
  where a first-passage density is flat to all orders.  Q is smooth inside
  each piece: `cds_legs` passes the model's volatility or hazard knots to
  `leg_grid`, and a model-free grid (no knots) prices every model whose
  knots are payment dates, as those of the calibrators are.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .curves import DiscountCurve, PaymentSchedule
from .errors import (ConfigurationError, DegenerateInputError, DomainError,
                     require_finite)
from .survival import survival

GAUSS_NODES = 8
FIRST_PERIOD_HALVINGS = 8
_gauss_legendre = functools.lru_cache(np.polynomial.legendre.leggauss)  # nodes on [-1, 1]


@dataclass(frozen=True)
class CdsContract:
    """Spot-starting running CDS: premium schedule, spread per year, recovery."""

    schedule: PaymentSchedule
    spread: float
    recovery: float

    def __post_init__(self):
        require_finite(self, "spread", "recovery")
        if self.spread < 0:
            raise DomainError("running spread must be non-negative")
        if not 0 <= self.recovery < 1:
            raise DomainError("recovery must lie in [0, 1)")
        if self.schedule.start != 0.0:
            raise DomainError("only spot-starting CDS (T_a = 0) are supported")

    @property
    def lgd(self) -> float:
        return 1.0 - self.recovery

    def value(self, protection, premium) -> float:
        """Buyer value from the legs' per-date prefix sums, read at the last date."""
        return self.lgd * float(protection[-1]) - self.spread * float(premium[-1])


@dataclass(frozen=True)
class LegGrid:
    """Survival read `times`: the start, the payment dates, then any quadrature nodes.
    Per payment date, the `discount` factor paid on default when postponed, the
    `premium` D(T_i) * accrual and the index `ends` of its period's last node.  Per
    node, its 0-based `period` and its protection and accrual `weights` rows."""

    times: np.ndarray
    discount: np.ndarray
    premium: np.ndarray
    period: np.ndarray
    weights: np.ndarray
    ends: np.ndarray

    def legs(self, q) -> tuple[np.ndarray, np.ndarray]:
        """Per-payment-date prefix sums of both legs, from survival q read at `times`."""
        at_dates, nodes = q[:self.premium.size + 1], q[self.premium.size + 1:]
        protection = (self.discount * (at_dates[:-1] - at_dates[1:])).cumsum()
        premium = (self.premium * at_dates[1:]).cumsum()
        if nodes.size:  # exact: the by-parts correction of each period
            gaps = (at_dates[self.period] - nodes, nodes - at_dates[self.period + 1])
            correction = (self.weights * gaps).cumsum(axis=1)[:, self.ends]
            protection, premium = correction + (protection, premium)
        return protection, premium

    def rows(self, payments) -> np.ndarray:
        """The legs as weights on survival: `legs(q)[i][payments] == rows(payments)[i] @ q`
        to round-off, one row per given payment index, for both legs i."""
        n = self.premium.size
        coefficients = np.zeros((2, self.times.size))  # of the whole schedule's legs
        coefficients[0, :n] = self.discount
        coefficients[0, 1:n] -= self.discount[:-1]
        coefficients[1, 1:n + 1] = self.premium
        if self.period.size:  # exact: the by-parts correction of each period
            coefficients[0, :n] += np.bincount(self.period, self.weights[0], n)
            coefficients[1, 1:n + 1] -= np.bincount(self.period, self.weights[1], n)
            coefficients[:, n + 1:] = -self.weights[0], self.weights[1]
        payments = np.arange(n)[payments]
        # the columns up to each payment's date; at that date, protection's is -D(T_i)
        rows = np.where(self.times <= self.times[payments + 1, None], coefficients[:, None], 0.0)
        rows[0, np.arange(payments.size), payments + 1] = -self.discount[payments]
        return rows


def leg_grid(schedule: PaymentSchedule, curve: DiscountCurve,
             convention: str = "postponed", knots=()) -> LegGrid:
    """The survival read times and the discounted leg weights of one schedule.
    Exact pieces are also split at `knots`, the times where survival may bend;
    without them one grid prices every model whose knots are payment dates."""
    dates = schedule.dates
    df = np.asarray(curve.discount(dates), dtype=float)
    premium = df * schedule.accruals
    annuity = premium.sum()
    if annuity <= 1e-300:
        raise DegenerateInputError("zero premium annuity: every discount factor of the "
                                   "schedule is 0, so no spread can be fitted or priced")
    if annuity == np.inf:
        raise DomainError("infinite premium annuity: the discount factors overflow")
    at_dates = np.concatenate(([schedule.start], dates))
    if convention == "postponed":
        return LegGrid(at_dates, df, premium, *(np.zeros(0, int),) * 3)
    if convention != "exact":
        raise ConfigurationError(f"unknown convention {convention!r}")
    bends = [t for t, _ in curve.pillars or ()] + list(knots)  # where D or Q may bend
    halvings = (dates[0] - schedule.start) * 0.5 ** np.arange(1, FIRST_PERIOD_HALVINGS + 1)
    cuts = np.union1d(np.concatenate((dates, schedule.start + halvings)),
                      [t for t in bends if schedule.start < t < dates[-1]])
    left = np.concatenate(([schedule.start], cuts[:-1]))
    x, w = _gauss_legendre(GAUSS_NODES)
    width, period = 0.5 * (cuts - left)[:, None], np.searchsorted(dates, left, side="right")
    nodes = left[:, None] + width * (x + 1.0)  # one row per piece
    d = np.maximum(curve.discount(np.concatenate((left[:1], cuts, nodes.ravel()))),
                   np.finfo(float).tiny)  # so f stays finite where D underflows
    forward = np.log(d[:cuts.size] / d[1:cuts.size + 1])[:, None] / (2.0 * width)
    weight = width * w * d[cuts.size + 1:].reshape(nodes.shape)
    accrual = weight * (1.0 - forward * (nodes - at_dates[period][:, None]))
    period = np.repeat(period, x.size)
    return LegGrid(np.concatenate((at_dates, nodes.ravel())), df, premium, period,
                   np.stack((weight * forward, accrual)).reshape(2, -1),
                   np.searchsorted(period, np.arange(dates.size), side="right") - 1)


def cds_legs(schedule: PaymentSchedule, curve: DiscountCurve, model,
             convention: str = "postponed") -> tuple[np.ndarray, np.ndarray]:
    """Per-payment-date prefix sums (protection per unit LGD, premium per unit
    spread); the premium includes the accrual paid at default when exact."""
    knots = getattr(getattr(model, "vols", model), "bucket_ends", ())
    grid = leg_grid(schedule, curve, convention, knots)
    return grid.legs(survival(model, grid.times))


def cds_price(contract: CdsContract, curve: DiscountCurve, model,
              convention: str = "postponed") -> float:
    """Buyer value: LGD * protection leg - R * (premium annuity + premium accrual)."""
    return contract.value(*cds_legs(contract.schedule, curve, model, convention))


def fair_spread(schedule: PaymentSchedule, curve: DiscountCurve, model, recovery: float,
                convention: str = "postponed") -> float:
    """The unique R with zero price; closed form since the price is affine in R."""
    protection, premium = cds_legs(schedule, curve, model, convention)
    if premium[-1] <= 1e-300:
        raise DegenerateInputError("zero premium annuity: fair spread undefined")
    return (1.0 - recovery) * float(protection[-1]) / float(premium[-1])
