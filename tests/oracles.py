"""Independent reference implementations that the tests check the library against,
hand-built inputs, and the library's residual NPV at default in the oracle's form."""

import math

import numpy as np
from scipy.optimize import least_squares

from fpcredit import (DegenerateInputError, DiscountCurve, DomainError, ErsContract,
                      PathRecords, mc)
from fpcredit.calibration import STEP1_TOL


def npv_three_term(tau, s_tau, ers: ErsContract, curve: DiscountCurve, spread: float):
    """The library's discounted residual swap value at default, P(0,tau) * NPV(tau):
    fixed + per_spread * spread from `mc._npv_terms`, the three-term form the
    pricer uses, for a scalar or an array of defaults with the equity S_tau at
    each.  Not an oracle: the tests check it against `ers_npv_at_default_termwise`."""
    taus = np.atleast_1d(tau)
    (fixed, per_spread), _ = mc._npv_terms(taus, curve.discount(taus) * s_tau, ers, curve)
    out = fixed + per_spread * spread
    return float(out[0]) if np.isscalar(tau) else out


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


def fixed_point_by_breakpoints(fixed, per_spread, c):
    """Every root X >= 0 of X = c * sum_i (fixed_i + per_spread_i * X)^+, by
    brute force over all the pieces between the sorted breakpoints
    -fixed_i / per_spread_i.

    On each piece the active terms are a prefix of the breakpoint order, so
    each piece's linear equation is solved from cumulative sums; a root is a
    solution that lies on its own piece.
    """
    kinks = np.where(fixed > 0, -np.inf, np.inf)  # per_spread = 0: always or never active
    pos = per_spread > 0
    kinks[pos] = -fixed[pos] / per_spread[pos]
    order = np.argsort(kinks)
    ends = kinks[order]
    fixed_sum = np.concatenate(([0.0], np.cumsum(fixed[order])))
    slope_sum = np.concatenate(([0.0], np.cumsum(per_spread[order])))
    with np.errstate(divide="ignore", invalid="ignore"):
        x = c * fixed_sum / (1.0 - c * slope_sum)
    lo = np.maximum(np.concatenate(([-np.inf], ends)), 0.0)
    hi = np.concatenate((ends, [np.inf]))
    return x[(lo <= x) & (x <= hi)]


def fair_spread_fresh_arrays(paths: PathRecords, ers: ErsContract, curve: DiscountCurve):
    """`mc.ers_fair_spread_from_paths` as it ran with a fresh array for every
    step: the same Newton solve on the active set, from X = 0 until X stops
    rising, with no stop on an unchanged active count, then the controlled
    estimate at the root.
    A dict of the result's numbers and solver diagnostics, or the same
    DegenerateInputError."""
    tau, discounted_s_tau = paths.tau, paths.discounted_s_tau
    sched = ers.schedule
    discounts = curve.discount(np.append(sched.start, sched.dates))
    tails = np.append(np.cumsum((discounts[1:] * sched.accruals)[::-1])[::-1], 0.0)
    ks0 = ers.stock_count * ers.s0
    idx = sched.next_payment_index(tau) - 1
    per_spread = (ks0 * tails).take(idx)
    fixed = (ks0 * discounts).take(idx) - ers.stock_count * discounted_s_tau
    annuity = float(tails[0])
    if annuity <= 1e-300:
        raise DegenerateInputError("zero premium annuity: fair ERS spread undefined")
    denom = ers.stock_count * ers.s0 * annuity
    n, w = max(fixed.size, 1), paths.default_prob_closed_form * ers.lgd
    slack = denom - per_spread
    x, trace = 0.0, []
    while True:
        value = fixed + per_spread * x
        positive = value > 0
        active = positive.astype(float)
        gap = (1.0 - w) * n * denom + w * (float(np.einsum("i,i", active, slack))
                                            + (n - np.count_nonzero(positive)) * denom)
        if gap == 0:
            raise DegenerateInputError("fair ERS spread undefined: the adjustment grows "
                                       "one-for-one with the spread")
        x_new = w * float(np.einsum("i,i", active, fixed)) / gap
        if not x_new > x:
            break
        trace.append((x_new - x) * 1e4)
        x = x_new
    trace.append(0.0)
    # n*denom * (1 - slope of f at the root), taken on the active set there:
    # the root's standard error is n times the adjustment's over it
    positive = value > 0
    root_gap = (1.0 - w) * n * denom + w * (float(np.einsum("i,i", positive.astype(float), slack))
                                            + (n - np.count_nonzero(positive)) * denom)
    payoff = ers.lgd * np.maximum(value, 0.0)
    n_paths, k = paths.n_paths, payoff.size
    if k == 0:
        cva, se, plain_se = 0.0, 0.0, 0.0
    else:
        beta = float(np.mean(payoff))
        cva = paths.default_prob_closed_form * beta
        se = math.sqrt(float(np.sum((payoff - beta) ** 2)) / (n_paths - 1)) / math.sqrt(n_paths)
        m = beta * k / n_paths
        plain_ss = float(np.sum((payoff - m) ** 2)) + (n_paths - k) * m * m
        plain_se = math.sqrt(plain_ss / (n_paths - 1)) / math.sqrt(n_paths)
    return {"fair_spread_bp": x * 1e4, "std_error_bp": se * n / root_gap * 1e4, "cva_value": cva,
            "cva_std_error": se, "iterations": len(trace), "delta_x_trace_bp": trace,
            "variance_reduction_factor": plain_se / se if se > 0 else 1.0}


def early_default_paths(ers: ErsContract, default_prob: float, n: int = 1_000) -> PathRecords:
    """Every path defaults before the first payment date, some with the
    residual swap value below 0 at spread 0.  With default_prob = 1 and zero
    recovery the fair-spread equation has no root."""
    rng = np.random.default_rng(5)
    tau = rng.uniform(0.0, ers.schedule.dates[0], n)
    return PathRecords(n_paths=n, tau=tau, discounted_s_tau=rng.uniform(5.0, 25.0, n),
                       default_prob_closed_form=default_prob)


def firm_bm_at_default_dense(rng, v_star, x0, nu, knot_v, sigmas):
    """The firm's calendar-time Brownian motion W1 at default, from the 3-d
    Brownian bridge itself: `mc._firm_bm_at_default` draws only its norm, on
    the live paths only.  Here the bridge's three coordinates are kept on
    every defaulted path, and each bucket end adds 0 to the W1 of the paths
    that defaulted before it.  x0 is one start per path.

    In the variance clock W1 runs as b(v) = x(v) - x0 + nu*v, and
    dW1 = db / sigma inside a vol bucket.  `knot_v` holds 0, the bucket-end
    variances and the maturity's; `sigmas` the vol of each piece between
    them.  At the bucket ends before v*, x is the norm of a 3-d Brownian
    bridge from (x0, 0, 0) to the origin on [0, v*]; at v* it is 0.
    """
    b_end = nu * v_star - x0
    y = np.zeros((v_star.size, 3))
    y[:, 0] = x0
    b_prev = np.zeros(v_star.size)
    w1 = np.zeros(v_star.size)
    v_prev = 0.0
    for v_k, sigma in zip(knot_v[1:-1], sigmas):
        live = v_k < v_star
        shrink = (v_star[live] - v_k) / (v_star[live] - v_prev)
        sd = np.sqrt((v_k - v_prev) * shrink)
        y[live] = (y[live] * shrink[:, None]
                   + sd[:, None] * rng.standard_normal((shrink.size, 3)))
        b_k = b_end.copy()
        b_k[live] = np.linalg.norm(y[live], axis=1) - x0[live] + nu * v_k
        w1 += (b_k - b_prev) / sigma
        b_prev, v_prev = b_k, v_k
    return w1 + (b_end - b_prev) / sigmas[-1]


def trf_polish(residuals, jacobian, x0, lower, upper):
    """scipy's trust-region reflective least squares (TRF) from x0 inside the box:
    (cost, x), cost = |r|^2 / 2, with xtol, ftol and gtol at STEP1_TOL.  Put in
    place of `calibration._polish`, it makes SBTV step 1 TRF alone from each ranked
    start, as step 1 ran before its own polish.  A trial point with non-finite
    residuals makes TRF shrink its region; a Jacobian whose gradient J^T r is not
    finite raises FloatingPointError, as the polish does, since TRF's SVD would
    stop on it."""
    def checked(x):
        jac = jacobian(x)
        if not np.isfinite(residuals(x) @ jac).all():
            raise FloatingPointError
        return jac

    res = least_squares(residuals, x0, jac=checked, bounds=(lower, upper), method="trf",
                        xtol=STEP1_TOL, ftol=STEP1_TOL, gtol=STEP1_TOL)
    return res.cost, res.x
