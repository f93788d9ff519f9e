"""Bootstrap calibrators: piecewise intensity, barrier-model volatilities,
and the two-step scenario-barrier fit.

All three calibrators run one bootstrap loop, `_bootstrap`: walk the quote
strip from the shortest tenor outwards and, for each pillar, solve a 1D
root-finding problem in that pillar's bucket parameter so the pillar CDS
reprices to zero at its quoted spread, holding earlier buckets fixed.  Each
model is a "clock" (cumulative variance, or cumulative hazard) that grows
at a constant rate inside a bucket, and a kernel that maps the clock to
survival and its derivative in one call; the root-finder moves only the last
bucket's clock and builds no model object.  A pillar's price is linear in
survival, a weight row of the fit's one leg grid (`_strip_legs`) dotted with
the kernel, and so is its slope with the kernel's derivative: each root is a
safeguarded Newton search inside the bracket (`_newton_in_bracket`).  The
models differ in the kernel, the clock rate, the bracket and the reported
parameters.  The scenario model needs a preliminary best-fit of (H2, p1,
sigma_bar) on the first three quotes before its volatility bootstrap: a
bounded least-squares fit with the analytic Jacobian of the closed-form
kernel, on the same grid, each start polished by a Levenberg-Marquardt
iteration kept in the box by projection (`_polish`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cds import CdsContract, leg_grid
from .curves import DiscountCurve, make_schedule, period_count
from .errors import CalibrationError, DomainError
from .quotes import CdsQuoteStrip
from .survival import (At1pParams, HazardCurve, SbtvParams,
                       VolatilityTermStructure, first_passage, mixture_survival,
                       survival)

PRICE_TOL = 1e-12
SIGMA_LO, SIGMA_HI = 1e-4, 5.0
LAMBDA_LO, LAMBDA_HI = 0.0, 10.0
CDS_FREQUENCY = 4
STEP1_POLISH_STARTS = 4
STEP1_TOL = 1e-12  # an exact step-1 fit's cost: the polishes stop at the first start there
STEP1_ITERATIONS = 200  # steps per polish, a safety net: on the traffic every polish stops by 101
H2_GAP = 1e-6  # step 1 keeps H2 this far from H1 and from 1


@dataclass
class CalibrationReport:
    """Everything needed to audit and reproduce one calibration run."""

    model: str
    parameters: dict
    repricing_errors_bp: list[float]
    pillar_survivals: list[float]
    diagnostics: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @property
    def exact(self) -> bool:
        return max(abs(e) for e in self.repricing_errors_bp) < 0.01

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "parameters": self.parameters,
            "repricing_errors_bp": self.repricing_errors_bp,
            "pillar_survivals": self.pillar_survivals,
            "exact": self.exact,
            "warnings": self.warnings,
            "diagnostics": self.diagnostics,
            "config": self.config,
        }


def pillar_contract(tenor: float, spread_bp: float, recovery: float) -> CdsContract:
    schedule = make_schedule(0.0, tenor, CDS_FREQUENCY)
    return CdsContract(schedule=schedule, spread=spread_bp * 1e-4, recovery=recovery)


def bootstrap_intensity(strip: CdsQuoteStrip, curve: DiscountCurve,
                        convention: str = "postponed") -> tuple[HazardCurve, CalibrationReport]:
    """Sequentially solve each bucket's constant intensity so the pillar CDS reprices."""
    return _bootstrap(strip, _strip_legs(strip, curve, convention), "intensity", HazardCurve,
                      _hazard_survival, lambda lam: (lam, 1.0), (LAMBDA_LO, LAMBDA_HI))


def calibrate_at1p(strip: CdsQuoteStrip, curve: DiscountCurve, h_over_v0: float = 0.4,
                   b: float = 0.0, convention: str = "postponed") -> tuple[At1pParams, CalibrationReport]:
    """Bootstrap one volatility bucket per quote with the barrier fixed exogenously."""
    if not 0 < h_over_v0 < 1:
        raise DomainError("H/V0 must lie in (0, 1)")
    if not math.isfinite(b):
        raise DomainError(f"b must be a finite number, got {b!r}")
    return _bootstrap_vols(strip, _strip_legs(strip, curve, convention), "at1p",
                           ((h_over_v0, 1.0),), b, lambda vols: At1pParams(h_over_v0, b, vols))


def calibrate_sbtv(strip: CdsQuoteStrip, curve: DiscountCurve, h1: float = 0.4,
                   b: float = 0.0, convention: str = "postponed") -> tuple[SbtvParams, CalibrationReport]:
    """Two-step scenario-barrier calibration with two barrier scenarios.

    Step 1 best-fits (H2, p1, sigma_bar) to the first three quotes with a
    flat volatility: a deterministic multi-start bounded least-squares fit of
    the three spread errors in bp, each start polished by Levenberg-Marquardt
    in the box, which stops at the first start that fits them exactly.  Step 2
    freezes (H2, p1) and bootstraps every bucket volatility to an exact fit,
    the first one's root-finder started at sigma_bar.
    """
    if not 0 < h1 < 1:
        raise DomainError("H1/V0 must lie in (0, 1)")
    if not math.isfinite(b):
        raise DomainError(f"b must be a finite number, got {b!r}")
    if not h1 + H2_GAP < 1.0 - H2_GAP:
        raise DomainError(f"H1/V0 must lie below 1 - {2 * H2_GAP} to leave room for H2, got {h1!r}")
    if len(strip.quotes) < 3:
        raise DomainError("SBTV requires at least 3 quotes")
    legs = _strip_legs(strip, curve, convention)
    h2, p1, sigma_bar, step1 = _sbtv_step1(strip, legs, h1, b)
    warnings: list[str] = []
    if step1["rms_bp"] > 5.0:
        warnings.append("step-1 RMS above 5 bp: scenario structure cannot represent this strip")

    scenarios = ((h1, p1), (h2, 1.0 - p1))
    params, report = _bootstrap_vols(strip, legs, "sbtv", scenarios, b,
                                     lambda vols: SbtvParams(scenarios, b, vols), sigma_bar)
    refinement = max(abs(s - sigma_bar) for s in params.vols.sigmas[:3])
    if refinement >= 0.02:
        warnings.append(f"step-2 moved the first volatilities {refinement:.4f} from "
                        "the step-1 flat value; step-1 fit was poor")
    report.diagnostics.update(step1=step1, step2_refinement_of_flat_sigma=refinement)
    report.warnings = warnings + report.warnings
    return params, report


# -- internals ---------------------------------------------------------------

def _strip_legs(strip, curve, convention):
    """The pillars as (date count, spread, LGD) triples, the fit's one leg grid (the
    longest pillar's contract's, cut at the tenors), the pillars' leg rows on it and
    each pillar's own grid as columns of it, up to the grid's date at the pillar's
    payment index, which can lie a round-off past the tenor.  On those columns the rows
    are the own grid's rows to the bit.  A tenor that is not a whole number of quarterly
    periods raises DomainError naming it."""
    ends = []  # grid.times[n]: a pillar's last date
    for tenor in strip.tenors:
        try:
            ends.append(period_count(0.0, tenor, CDS_FREQUENCY))
        except DomainError:
            raise DomainError(f"quote tenor {tenor}y is not a whole number of quarterly "
                              "periods") from None
    longest = pillar_contract(strip.tenors[-1], strip.spreads_bp[-1], strip.recovery)
    pillars = [(n, q.spread_bp * 1e-4, longest.lgd) for n, q in zip(ends, strip.quotes)]
    grid = leg_grid(longest.schedule, curve, convention, strip.tenors)
    columns = [grid.times <= grid.times[n] for n in ends]
    return pillars, grid, grid.rows(np.subtract(ends, 1)), columns


def _hazard_survival(c):
    """Survival exp(-c) at cumulative hazard c, and its derivative in c."""
    q = np.exp(-c)
    return q, -q


def _bootstrap_vols(strip, legs, model_name, scenarios, b, params, start=None):
    """`_bootstrap` of the volatilities of a first-passage model with its barrier
    scenarios fixed; `params(vols)` builds the model.  The clock is the
    cumulative variance, at rate sigma^2 in a bucket."""
    return _bootstrap(strip, legs, model_name,
                      lambda tenors, sigmas: params(VolatilityTermStructure(tenors, sigmas)),
                      lambda cv: mixture_survival(scenarios, b, cv),
                      lambda sigma: (sigma * sigma, 2.0 * sigma), (SIGMA_LO, SIGMA_HI), start)


def _bootstrap(strip, legs, model_name, family, kernel, rate, bracket, start=None):
    """Walk the strip outwards and root-find each pillar's bucket parameter so
    its CDS reprices, earlier buckets frozen.

    Survival and its derivative are `kernel(c)` of a clock c(t) that is
    piecewise linear in t and runs at rate(x)[0] inside a bucket with
    parameter x; rate(x)[1] is the rate's derivative.  A pillar's price is its
    weight row w (`_strip_legs`) dotted with survival on its columns.  The later
    times see c(t_prev) + rate(x) (t - t_prev), t_prev the previous tenor, so a
    price and its slope in x are one kernel call and two dot products.
    `_newton_in_bracket` solves each pillar from the previous bucket's root (the
    first from `start`, if given) and stops at a price within the row's round-off,
    eps sum |w|.  One kernel call reads survival up to t_prev, into a fixed part,
    and the later times at both bracket ends and at that start, if inside.
    `family(tenors, xs)` builds the fitted model, once the walk ends; `bracket`
    bounds each root.  The grid is cut at the model's knots, so a pillar's
    columns are the grid `cds_legs` builds for it; the report reprices all
    pillars and reads their survivals on one read of the grid.
    """
    tenors = strip.tenors
    pillars, grid, rows, columns = legs
    lo_x, hi_x = bracket
    xs: list[float] = []
    knot_t, knot_c = [0.0], [0.0]  # the clock at the bucket ends so far
    iterations, flagged = [], []
    for tenor, (_, spread, lgd), protection, premium, own in zip(tenors, pillars, *rows,
                                                                  columns):
        t_prev, c_prev = knot_t[-1], knot_c[-1]
        times = grid.times[own]
        later = times > t_prev
        weights = (lgd * protection - spread * premium)[own]
        resolution = np.finfo(float).eps * np.abs(weights).sum()  # survival is in [0, 1]
        earlier = ~later
        fixed_weights, weights = weights[earlier], weights[later]
        elapsed = times[later] - t_prev
        slope_weights = weights * elapsed
        x = xs[-1] if xs else start  # the search's start
        probes = bracket if x is None or not lo_x < x < hi_x else (*bracket, x)
        # one kernel call: the clock through the knots up to t_prev, then each probe
        q, dq_dc = kernel(np.concatenate((np.interp(times[earlier], knot_t, knot_c),
                                          *(c_prev + rate(p)[0] * elapsed for p in probes))))
        m = elapsed.size
        q_fixed, *q_probes = np.split(q, q.size - m * np.arange(len(probes), 0, -1))
        fixed = fixed_weights @ q_fixed
        lo, hi, *first = (float(fixed + weights @ q_p) for q_p in q_probes)
        if first:  # the start's price, then its slope
            first.append(rate(x)[1] * float(slope_weights @ dq_dc[-m:]))

        def price_and_slope(x: float):
            clock_rate, rate_slope = rate(x)
            q, dq_dc = kernel(c_prev + clock_rate * elapsed)
            return float(fixed + weights @ q), rate_slope * float(slope_weights @ dq_dc)

        if abs(lo) < PRICE_TOL:
            # the quote is repriced at the bracket floor (no diffusion, no hazard)
            flagged.append(tenor)
            root, steps = lo_x, 0
        elif lo * hi > 0:
            raise CalibrationError(
                f"{model_name}: no bucket parameter in [{lo_x}, {hi_x}] reprices the "
                f"{tenor}y quote (bucket {len(xs) + 1})",
                diagnostics={"tenor": tenor, "price_lo": lo, "price_hi": hi,
                             "fixed_parameters": list(xs)})
        else:
            root, steps = _newton_in_bracket(price_and_slope, bracket, (lo, hi), resolution,
                                             x, first)
            if root < lo_x * 1.01 or root > hi_x * 0.99:
                flagged.append(tenor)
        xs.append(root)
        iterations.append(steps)
        knot_t.append(tenor)
        knot_c.append(c_prev + rate(root)[0] * (tenor - t_prev))
    model = family(tenors, xs)
    warnings = [f"bucket parameter at bracket bound for tenors {flagged}"] if flagged else []
    q = survival(model, grid.times)
    pillar_survivals = [float(q[n]) for n, _, _ in pillars]
    if any(b > a + 1e-12 for a, b in zip(pillar_survivals, pillar_survivals[1:])):
        warnings.append("non-monotone pillar survivals: quote strip admits arbitrage")
    protection, premium = grid.legs(q)
    return model, CalibrationReport(
        model=model_name, parameters=model.to_dict(),
        repricing_errors_bp=[(lgd * float(protection[n - 1]) - spread * float(premium[n - 1]))
                             * 1e4 for n, spread, lgd in pillars],
        pillar_survivals=pillar_survivals,
        diagnostics={"solver": "newton-bisection", "iterations": iterations,
                     "bracket": [lo_x, hi_x]},
        warnings=warnings,
    )


def _newton_in_bracket(price_and_slope, bracket, prices, resolution, x=None, first=None):
    """The root of a price that changes sign on `bracket` = (lo, hi), where it is
    `prices`, by Newton's method safeguarded inside the bracket (rtsafe, Press et al.,
    Numerical Recipes, section 9.4).  `price_and_slope(x)` is the price and its
    derivative at x.  The search starts at x, where `first`, if given, is that price
    and slope, or at the false-position point of the ends when x is None or outside
    the bracket.
    Each evaluation narrows the bracket to the side where the price changes sign; a
    Newton step that would leave the bracket, or that fails to halve the step before
    last, gives way to bisection, so the steps shrink at least geometrically.  The
    search stops at a price within `resolution` of zero, or where neither step can
    move x any further; a zero price at hi returns hi.  Returns the root and the
    number of evaluations, the ends' not counted and the start's counted."""
    (lo, hi), (price_lo, price_hi) = bracket, prices
    if price_hi == 0.0:
        return hi, 0
    if x is None or not lo < x < hi:
        x, first = lo - price_lo * (hi - lo) / (price_hi - price_lo), None
    below, above = (lo, hi) if price_lo < 0.0 else (hi, lo)  # price < 0 at below
    step = before_last = hi - lo
    evaluations = 0
    while True:
        price, slope = first or price_and_slope(x)
        first = None
        evaluations += 1
        if abs(price) <= resolution:
            return x, evaluations
        if price < 0.0:
            below = x
        else:
            above = x
        inside = ((x - below) * slope - price) * ((x - above) * slope - price) < 0.0
        if inside and abs(2.0 * price) <= abs(before_last * slope):
            before_last, step = step, price / slope
            x, last = x - step, x
        else:
            before_last, step = step, 0.5 * (above - below)
            x, last = below + step, below
        if x == last or x == above:
            return x, evaluations


def _sbtv_step1(strip, legs, h1, b):
    """Best-fit (H2, p1, sigma_bar) to the first three quotes, flat volatility.

    The residuals are the three model-minus-quoted spreads in bp.  Their
    sum of squares is evaluated at every point of a fixed 3x3x3 start grid
    (clipped into the box), scored on 12 survival rows in one kernel call: H1 and
    the three H2 against the three sigma_bar, each start mixing two rows' legs
    (`objective_evaluations` counts 27).  A polish (`_polish`: Levenberg-Marquardt,
    projected into the box) is run from the best few, in rank order; ties are
    broken by the smaller H2 so the result is deterministic.  The polishes stop
    once the best cost is at most STEP1_TOL: the three residuals are then zero to
    about 1e-6 bp, and a later polish could beat that only by round-off.  A polish
    that misses a zero falls back on the next start; off the presets the
    best-ranked start sometimes stops in a local minimum where a later one
    reaches the zero.  The three pillars' rows in `legs` (`_strip_legs`), on
    the third one's columns, are a 6-row matrix on survival there, kept
    C-contiguous so its products round as on that pillar's own grid.  A flat
    volatility has cumulative variance s = sigma_bar^2 t, so an evaluation is
    one kernel call on the two scenarios' rows and one product, and builds no
    model.  The
    Jacobian is analytic and makes no kernel call: the mixture is linear in
    p1, the legs are linear in survival, so the Jacobian is the leg matrix
    times the survival's three derivatives, read from the evaluation at its
    point.  There the kernel (`first_passage`) gives dQ/ds and H^a Phi(d2),
    a = 2B - 1, and dQ/dlog H = -2 s dQ/ds / log H - a H^a Phi(d2).

    A start whose spreads are not finite (survival vanishes there, as at a
    large negative b) is not polished.  A polish refuses a trial step whose
    spreads are not finite, and fails its start where it reaches a point whose
    gradient is not finite; CalibrationError is raised when every start fails.
    """
    _, grid, rows, columns = legs
    times = grid.times[columns[2]]
    legs = np.ascontiguousarray(rows[:, :3, columns[2]]).reshape(6, -1)  # 3 protection, 3 premium
    quoted_bp = np.array(strip.spreads_bp[:3])
    lgd = 1.0 - strip.recovery
    log_h = np.array([[math.log(h1)], [0.0]])  # the scenarios' barriers, H2's set per point
    a = 2.0 * b - 1.0
    t = times[1:]  # times[0] is the start, where survival is 1 for every x
    evaluations = 0
    last = None  # (x, then evaluate's outputs at x)

    def evaluate(x):
        """The two scenarios' survival on the grid at x = (h2, p1, sigma_bar), its slopes
        in the variance and in log H2, and the mixture's legs: one kernel call."""
        nonlocal evaluations, last
        if last is None or not np.array_equal(last[0], x):
            evaluations += 1
            log_h[1] = np.log(x[:1])
            s = x[2:] ** 2 * times
            q, dq_ds, second = first_passage(log_h, b, s)
            dq_dlog_h2 = -2.0 * s * dq_ds[1] / log_h[1] - a * second[1]
            pillar_legs = (x[1] * q[0] + (1.0 - x[1]) * q[1]) @ legs.T
            last = (x.copy(), q, dq_ds, dq_dlog_h2, pillar_legs[:3], pillar_legs[3:])
        return last[1:]

    def gaps(protection, premium):
        return _spreads_bp(lgd, protection, premium) - quoted_bp

    def residuals(x) -> np.ndarray:
        return gaps(*evaluate(x)[3:])

    def jacobian(x) -> np.ndarray:
        q, dq_ds, dq_dlog_h2, protection, premium = evaluate(x)
        h2, p1, sigma_bar = x
        directions = np.zeros((3, times.size))  # d survival / d (h2, p1, sigma_bar)
        directions[0, 1:] = (1.0 - p1) / h2 * dq_dlog_h2[1:]
        directions[1] = q[0] - q[1]
        directions[2, 1:] = 2.0 * sigma_bar * t * (p1 * dq_ds[0, 1:] + (1.0 - p1) * dq_ds[1, 1:])
        d_legs = legs @ directions.T  # d (protection, premium) / d (h2, p1, sigma_bar)
        spread_bp = _spreads_bp(lgd, protection, premium)
        return (lgd * 1e4 * d_legs[:3] - spread_bp[:, None] * d_legs[3:]) / premium[:, None]

    lower, upper = np.array([h1 + H2_GAP, 0.0, 1e-3]), np.array([1.0 - H2_GAP, 1.0, 2.0])
    starts = np.clip(list(itertools.product([h1 + 0.15, h1 + 0.3, h1 + 0.45], [0.35, 0.65, 0.95],
                                            [0.10, 0.20, 0.40])), lower, upper)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the starts (H2 slowest, sigma_bar fastest) read 12 distinct survival rows, H1
        # and each H2 at each sigma_bar; a start mixes the legs of its two rows
        log_barriers = np.log(np.concatenate(([h1], starts[::9, 0])))[:, None, None]
        row_legs = first_passage(log_barriers, b, starts[:3, 2, None] ** 2 * times)[0] @ legs.T
        p1 = starts[:9:3, 1, None, None]
        start_legs = (p1 * row_legs[0] + (1.0 - p1) * row_legs[1:, None]).reshape(-1, 6)
        evaluations += len(starts)
        start_gaps = gaps(start_legs[:, :3], start_legs[:, 3:])  # not finite where Q vanishes
        costs = np.sum(start_gaps ** 2, axis=1)
        finite = np.flatnonzero(np.all(np.isfinite(start_gaps), axis=1))
        ranked = [starts[i] for i in sorted(finite, key=lambda i: (costs[i], starts[i, 0]))]
        best = None
        for polishes, x0 in enumerate(ranked[:STEP1_POLISH_STARTS], start=1):
            try:
                cost, x = _polish(residuals, jacobian, x0, lower, upper)
            except FloatingPointError:  # a failed start, like one with non-finite spreads
                continue
            cand = (cost, x[0], x)  # ties broken by smallest H2
            if best is None or cand[:2] < best[:2]:
                best = cand
            if best[0] <= STEP1_TOL:  # an exact fit: a later polish could gain only round-off
                break
    if best is None:
        raise CalibrationError("SBTV step 1: the model spreads are not finite at any start "
                               "or along any polish (survival vanishes or overflows); "
                               "check b and h1")
    cost, _, x = best
    h2, p1, sigma_bar = (float(v) for v in x)
    step1 = {"h2": h2, "p1": p1, "sigma_bar": sigma_bar,
             "objective_bp2": float(2.0 * cost), "rms_bp": math.sqrt(2.0 * cost / 3.0),
             "multi_start_points": len(starts), "polishes": polishes,
             "objective_evaluations": evaluations}
    return h2, p1, sigma_bar, step1


def _spreads_bp(lgd, protection, premium):
    """Fair spreads in bp from the protection and premium legs."""
    return lgd * protection / premium * 1e4


def _polish(residuals, jacobian, x, lower, upper):
    """Least-squares polish of `residuals` r from x inside the box [lower, upper]:
    (cost, x), cost = |r|^2 / 2.

    Levenberg-Marquardt (More, 1978) kept in the box by projection (Kanzow,
    Yamashita & Fukushima, J. Comput. Appl. Math. 172, 2004).  A variable on a bound
    whose gradient g = J^T r points out of the box is held there.  The others take
    the Gauss-Newton step, by least squares, while mu = 0, and then the step that
    solves (J^T J + mu D^2) d = -g, D^2 the diagonal of J^T J (Marquardt's scaling;
    1 for a zero column).  x + d, clipped into the box, is taken if the cost falls.
    The first refused step sets mu to 1e-4; then Nielsen's update: a refused step
    multiplies mu by nu and doubles nu, a taken one multiplies mu by max(1/3,
    1 - (2 rho - 1)^3), rho the cost's fall over the linear model's, and resets nu
    to 2.  The polish stops on a step below 1e-12 (1 + |x|) or a predicted fall
    within STEP1_TOL of the cost (a minimum off the quotes), that step taken unless
    it raises the cost; STEP1_ITERATIONS is a safety net.  A gradient that is not
    finite raises FloatingPointError: no step leaves x, so the start fails.
    """
    r = residuals(x)
    cost = 0.5 * (r @ r)
    mu, nu, jac = 0.0, 2.0, None
    for _ in range(STEP1_ITERATIONS):
        if jac is None:  # at a new point; a refused step keeps J and the free set
            jac = jacobian(x)
            gradient = r @ jac
            if not math.isfinite(gradient.sum()):
                raise FloatingPointError
            free = ~np.where(gradient > 0.0, x <= lower, x >= upper)
            columns, gradient = jac[:, free], gradient[free]
            curvature = columns.T @ columns
            scaling = curvature.diagonal()
            scaling = np.diag(np.where(scaling > 0.0, scaling, 1.0))
            small = (1e-12 * (1.0 + math.sqrt(x @ x))) ** 2
        if mu == 0.0:
            d_free = np.linalg.lstsq(columns, -r)[0]
            predicted = -0.5 * (gradient @ d_free)  # the fall of the cost in the linear model
        else:
            d_free = np.linalg.solve(curvature + mu * scaling, -gradient)
            predicted = 0.5 * (mu * (d_free @ scaling @ d_free) - gradient @ d_free)
        d = np.zeros_like(x)
        d[free] = d_free
        trial = np.minimum(np.maximum(x + d, lower), upper)
        step = trial - x
        r_trial = residuals(trial)
        cost_trial = 0.5 * (r_trial @ r_trial)
        if step @ step <= small or predicted <= STEP1_TOL * cost:
            return (cost_trial, trial) if cost_trial <= cost else (cost, x)
        if cost_trial < cost:
            if mu != 0.0:
                rho = (cost - cost_trial) / predicted
                mu, nu = mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0
            x, r, cost, jac = trial, r_trial, cost_trial, None
        else:
            mu, nu = (mu * nu if mu else 1e-4), 2.0 * nu
    return cost, x
