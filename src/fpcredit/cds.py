"""Running CDS pricing under any calibrated survival model.

Prices are per unit notional from the protection buyer's viewpoint, with
positive = value received by the buyer.  Under this sign convention the
fair spread makes the price zero and a higher running spread lowers the
buyer's value.

One routine, `cds_legs`, values both legs as prefix sums over the payment
dates, so entry i is the value of the same contract cut at the (i+1)-th
date: the quarterly schedules of shorter pillars are prefixes of a longer
one.  `cds_price` and `fair_spread` read the last entry.  Two payoff
conventions are implemented:

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


def _exact_grid(schedule: PaymentSchedule):
    """Default grid from the start to the last payment date, and the index of
    each payment date among its nodes."""
    nodes = [np.array([schedule.start])]
    prev = schedule.start
    for d in schedule.dates:
        n_sub = max(1, round((d - prev) * GRID_STEPS_PER_YEAR))
        nodes.append(np.linspace(prev, d, n_sub + 1)[1:])
        prev = d
    return np.concatenate(nodes), np.cumsum([n.size for n in nodes])[1:] - 1


def cds_legs(schedule: PaymentSchedule, curve: DiscountCurve, model,
             convention: str = "postponed") -> tuple[np.ndarray, np.ndarray]:
    """Per-payment-date prefix sums (protection per unit LGD, premium per unit spread).

    The premium is the premium annuity plus, under the exact convention,
    the accrual paid at default.
    """
    dates = schedule.dates
    df = np.asarray(curve.discount(dates), dtype=float)
    if convention == "postponed":
        q = survival(model, np.concatenate(([schedule.start], dates)))
        protection = np.cumsum(df * (q[:-1] - q[1:]))
        return protection, np.cumsum(df * schedule.accruals * q[1:])
    if convention == "exact":
        grid, ends = _exact_grid(schedule)
        q = survival(model, grid)
        dq = q[:-1] - q[1:]  # probability of default in each step
        mid = 0.5 * (grid[:-1] + grid[1:])
        df_mid = np.asarray(curve.discount(mid), dtype=float)
        protection = np.cumsum(df_mid * dq)[ends - 1]
        accrual = np.cumsum(df_mid * (mid - schedule.previous_date(mid)) * dq)[ends - 1]
        return protection, np.cumsum(df * schedule.accruals * q[ends]) + accrual
    raise ConfigurationError(f"unknown convention {convention!r}")


def cds_price(contract: CdsContract, curve: DiscountCurve, model,
              convention: str = "postponed") -> float:
    """Buyer value: LGD * protection leg - R * (premium annuity + premium accrual)."""
    protection, premium = cds_legs(contract.schedule, curve, model, convention)
    return contract.lgd * float(protection[-1]) - contract.spread * float(premium[-1])


def fair_spread(schedule: PaymentSchedule, curve: DiscountCurve, model, recovery: float,
                convention: str = "postponed") -> float:
    """The unique R with zero price; closed form since the price is affine in R."""
    protection, premium = cds_legs(schedule, curve, model, convention)
    if premium[-1] <= 1e-300:
        raise DegenerateInputError("zero premium annuity: fair spread undefined")
    return (1.0 - recovery) * float(protection[-1]) / float(premium[-1])
