"""Independent reference implementations that the tests check the library against."""

import math

import numpy as np

from fpcredit import DiscountCurve, DomainError, ErsContract


def ers_npv_at_default_termwise(tau: float, s_tau: float, ers: ErsContract,
                                curve: DiscountCurve, spread: float) -> float:
    """Term-by-term evaluation of the residual NPV definition, discounted to 0.

    Explicit floating legs at the curve's forward LIBORs, explicit present
    value of the continuous dividend stream, and the discounted expected
    terminal stock price.  Used as the independent oracle for the
    simplified three-term form.
    """
    if tau > ers.maturity:
        raise DomainError("default after maturity: residual NPV undefined")
    sched = ers.schedule
    k, s0 = ers.stock_count, ers.s0
    p0 = curve.discount
    p_tau = p0(tau)
    total = 0.0
    prev = sched.start
    for t_i, alpha in zip(sched.dates, sched.accruals):
        if t_i > tau:
            libor = (p0(prev) / p0(t_i) - 1.0) / alpha
            # P(tau, T_i) = P(0, T_i) / P(0, tau)
            total += s0 * (p0(t_i) / p_tau) * alpha * (libor + spread)
        prev = t_i
    t_b = ers.maturity
    # expected terminal stock under the risk-neutral measure, seen from tau
    growth = curve.forward_integral(tau, t_b) - ers.dividend_yield * (t_b - tau)
    exp_s_tb = s_tau * math.exp(growth)
    pv_dividends = s_tau * (1.0 - math.exp(-ers.dividend_yield * (t_b - tau)))
    total += (s0 - exp_s_tb) * (p0(t_b) / p_tau)
    total -= pv_dividends
    return k * p_tau * total


def regression_control_variate(payoff, defaulted, default_prob):
    """Control-variate estimate of E[payoff] and its standard error, with the
    default indicator as the control and its coefficient fitted by the sample
    regression cov(payoff, indicator) / var(indicator)."""
    indicator = defaulted.astype(float)
    beta = float(np.cov(payoff, indicator, ddof=1)[0, 1]) / float(np.var(indicator, ddof=1))
    adjusted = payoff - beta * (indicator - default_prob)
    return float(np.mean(adjusted)), float(np.std(adjusted, ddof=1) / math.sqrt(payoff.size))
