"""Running CDS pricing under any calibrated survival model.

Prices are per unit notional from the protection buyer's viewpoint, with
positive = value received by the buyer.  Under this sign convention the
fair spread makes the price zero and a higher running spread lowers the
buyer's value.

Both legs are prefix sums over the payment dates: entry i values the same
contract cut at the (i+1)-th date, so the quarterly schedules of shorter
pillars are prefixes of a longer one.  `leg_grid` computes once per
schedule, curve and convention the times where survival is read and the
discounted leg weights; `LegGrid.legs` applies them to a survival vector.
`cds_legs` does both, and `cds_price` and `fair_spread` read its last entry.
Two payoff conventions are implemented:

- ``exact``: premium accrual and protection paid at the default time,
  with the Stieltjes integrals discretized on a grid of
  ``GRID_STEPS_PER_YEAR`` steps, subdivided per accrual period so that
  every payment date is a grid node (per-step survival differences times
  the step-midpoint discount factor).
- ``postponed``: protection paid at the first schedule date after default
  and the accrual term dropped.  This is the convention used for all
  calibrations here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import DiscountCurve, PaymentSchedule
from .errors import (ConfigurationError, DegenerateInputError, DomainError,
                     require_finite)
from .survival import survival

GRID_STEPS_PER_YEAR = 365


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
    """Survival read `times`; per step between them, the discount factor paid on
    default and the accrual-at-default weight (zero when postponed) as the rows
    of `steps`; per payment date, its index `ends` in `times` and its `premium`."""

    times: np.ndarray
    steps: np.ndarray
    premium: np.ndarray
    ends: np.ndarray

    def legs(self, q) -> tuple[np.ndarray, np.ndarray]:
        """Per-payment-date prefix sums of both legs, from survival q read at `times`."""
        dq = q[:-1] - q[1:]  # probability of default in each step
        protection, accrual = (self.steps * dq).cumsum(axis=1)[:, self.ends - 1]
        return protection, (self.premium * q[self.ends]).cumsum() + accrual


def leg_grid(schedule: PaymentSchedule, curve: DiscountCurve,
             convention: str = "postponed") -> LegGrid:
    """The survival read times and the discounted leg weights of one schedule."""
    dates = schedule.dates
    df = np.asarray(curve.discount(dates), dtype=float)
    premium = df * schedule.accruals
    annuity = premium.sum()
    if annuity <= 1e-300:
        raise DegenerateInputError("zero premium annuity: every discount factor of the "
                                   "schedule is 0, so no spread can be fitted or priced")
    if annuity == np.inf:
        raise DomainError("infinite premium annuity: the discount factors overflow")
    if convention == "postponed":
        return LegGrid(np.concatenate(([schedule.start], dates)),
                       np.stack((df, np.zeros_like(df))), premium, np.arange(1, dates.size + 1))
    if convention == "exact":
        nodes = [np.array([schedule.start])]
        prev = schedule.start
        for d in dates:
            n_sub = max(1, round((d - prev) * GRID_STEPS_PER_YEAR))
            nodes.append(np.linspace(prev, d, n_sub + 1)[1:])
            prev = d
        times = np.concatenate(nodes)
        mid = 0.5 * (times[:-1] + times[1:])
        df_mid = np.asarray(curve.discount(mid), dtype=float)
        return LegGrid(times, np.stack((df_mid, df_mid * (mid - schedule.previous_date(mid)))),
                       premium, np.cumsum([n.size for n in nodes])[1:] - 1)
    raise ConfigurationError(f"unknown convention {convention!r}")


def cds_legs(schedule: PaymentSchedule, curve: DiscountCurve, model,
             convention: str = "postponed") -> tuple[np.ndarray, np.ndarray]:
    """Per-payment-date prefix sums (protection per unit LGD, premium per unit
    spread); the premium includes the accrual paid at default when exact."""
    grid = leg_grid(schedule, curve, convention)
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
