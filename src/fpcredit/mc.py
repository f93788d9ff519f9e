"""Joint firm-value / equity sampling and counterparty-risk pricing of an
equity return swap (ERS).

Working variable for the firm is x = log(V / H(t)), against the barrier
H(t) = H exp(int_0^t (r - k - B sigma^2) du) with payout rate k.  The rate
and payout drifts cancel between V and the barrier, so in the variance clock
v = int_0^t sigma^2 du, x is a Brownian motion with drift -nu, nu = 1/2 - B,
started at x0 = log(V0 / H); default is its first passage to 0.

The sampler is exact, uses no time grid, and draws the defaulted paths
only, so its time and memory follow the number of defaults.  Under the
first-passage models (AT1P, SBTV):

- With V the variance at maturity, one multinomial draw counts the paths
  that survive and, in each barrier scenario (AT1P has one), the paths that
  default with x(V) below 0 and above it.  By the reflection principle x(V)
  is normal on each piece, and each defaulted path takes it from one uniform.
- Given x(V), x on [0, V] is a Brownian bridge, and Doob's time change makes
  its first-passage variance v* one Wald draw, for every drift.  The default
  time inverts the cumulative-variance clock.
- Given v*, x on [0, v*] is a 3-d Bessel bridge from x0 to 0 whatever the
  drift (Williams' path decomposition).  It is drawn at the vol-bucket ends
  before v* by its radius alone, which gives the firm's Brownian motion at
  default exactly, bucket by bucket.  At each bucket end the bridge runs
  only on the paths that have not defaulted by then.

Under the hazard model one binomial draw counts the defaults, and each takes
its cumulative hazard at default from one uniform and its default time from
the inverse of the hazard clock; there is no firm Brownian motion.  The
equity at default then takes one Gaussian draw per defaulted path.

Firm and equity variates come from separate child streams of the seed, and
none of the draws above depends on the correlation.  The last such draw, of
any model, is kept in one module-level slot, keyed on the model, the
maturity, the path count and the seed, so a correlation sweep that calls
model by model draws each model once, and its paths pair across
correlations by construction.  Each call then only mixes the two Brownian
motions (under the hazard model the equity's alone) and maps them to the
discounted equity at default P(0,tau) S_tau, which needs no curve; its
records and the pricer hold both only on the defaulted paths, and do no
work on the others.  The slot keeps 24 P(default) bytes per path, 16 under
the hazard model, until a call with another key replaces it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri, ndtri_exp

from .curves import DiscountCurve, PaymentSchedule, make_schedule
from .errors import DegenerateInputError, DomainError, require_finite
from .survival import At1pParams, HazardCurve, SbtvParams, first_passage, survival


def _require_integer(obj, *names):
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ErsContract:
    """Equity return swap terms; nominal is stock_count * s0."""

    s0: float
    equity_vol: float
    dividend_yield: float
    schedule: PaymentSchedule
    recovery: float
    rho: float
    stock_count: float = 1.0

    def __post_init__(self):
        require_finite(self, "s0", "equity_vol", "dividend_yield", "recovery", "rho",
                       "stock_count")
        if self.s0 <= 0 or self.stock_count <= 0 or self.equity_vol <= 0:
            raise DomainError("price, stock count and equity volatility must be positive")
        if not -1.0 <= self.rho <= 1.0:
            raise DomainError("correlation must lie in [-1, 1]")
        if not 0 <= self.recovery < 1:
            raise DomainError("recovery must lie in [0, 1)")
        if self.schedule.start != 0.0:  # the three-term NPV form telescopes from T_0 = 0
            raise DomainError(f"only spot-starting ERS (T_0 = 0) are supported, got a "
                              f"schedule starting at {self.schedule.start!r}")

    @property
    def maturity(self) -> float:
        return self.schedule.end

    @property
    def lgd(self) -> float:
        return 1.0 - self.recovery


# A cold sampler call and the pricer peak at 4, 33 and 78 bytes per path at
# 3.7%, 41% and 97% defaults, the kept firm draw included, so this caps a
# run's memory near 0.8 GB.  The firm draw alone peaks at 4, 26 and 55 bytes
# per path there, AT1P or SBTV (tracemalloc, 10^6 paths).
MAX_PATHS = 10_000_000


@dataclass(frozen=True)
class SimulationConfig:
    n_paths: int = 100_000
    rng_seed: int = 20090916

    def __post_init__(self):
        _require_integer(self, "n_paths", "rng_seed")
        if not 2 <= self.n_paths <= MAX_PATHS:
            raise DomainError(f"n_paths must lie in [2, {MAX_PATHS}]")
        if self.rng_seed < 0:
            raise DomainError("rng_seed must be non-negative")


@dataclass
class PathRecords:
    """Simulation output sufficient for ERS pricing: the path count, and the
    default time and the discounted equity at default P(0,tau) S_tau on the
    k <= n_paths paths that default.  The pricer sees a 0 on each of the
    others."""

    n_paths: int
    tau: np.ndarray                # default time, one entry per defaulted path
    discounted_s_tau: np.ndarray   # P(0,tau) S_tau, likewise
    default_prob_closed_form: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        _require_integer(self, "n_paths")
        if self.n_paths < 2:
            raise DomainError("n_paths must be at least 2")
        require_finite(self, "default_prob_closed_form")
        if not 0 <= self.default_prob_closed_form <= 1:
            raise DomainError("default_prob_closed_form must lie in [0, 1]")
        if np.ndim(self.tau) != 1 or np.size(self.tau) > self.n_paths:
            raise DomainError(f"tau must be 1-d with one entry per defaulted path, "
                              f"at most n_paths ({self.n_paths})")
        if np.shape(self.discounted_s_tau) != np.shape(self.tau):
            raise DomainError(f"discounted_s_tau must be 1-d with one entry per defaulted "
                              f"path, as tau ({np.size(self.tau)})")
        for name, value in (("default time tau", self.tau),
                            ("discounted equity at default discounted_s_tau",
                             self.discounted_s_tau)):
            if not np.all(np.isfinite(value)):
                raise DomainError(f"{name} must be finite")


@dataclass
class CvaEstimate:
    value: float
    std_error: float
    plain_value: float
    plain_std_error: float
    low_statistics: bool = False


@dataclass
class ErsPricingResult:
    fair_spread_bp: float
    std_error_bp: float
    cva_value: float
    cva_std_error: float
    default_prob_mc: float
    default_prob_closed_form: float
    diagnostics: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def make_ers_contract(s0=20.0, equity_vol=0.20, dividend_yield=0.008, maturity=5.0,
                      payment_frequency=2, recovery=0.40, rho=0.0,
                      stock_count=1.0) -> ErsContract:
    schedule = make_schedule(0.0, maturity, payment_frequency)
    return ErsContract(s0=s0, equity_vol=equity_vol, dividend_yield=dividend_yield,
                       schedule=schedule, recovery=recovery, rho=rho,
                       stock_count=stock_count)


def _first_passage_variance(rng, x0, x_end, v_end):
    """First time v* < v_end, in the variance clock, that x0 - nu*v + W(v)
    reaches 0, on paths that reach it by v_end, given x_end, its value there.

    Given its ends, x on [0, v_end] is a Brownian bridge whatever the drift,
    and Doob's time change s = v v_end / (v_end - v) makes it
    (x0 + (x_end / v_end) s + W(s)) (v_end - v) / v_end.  So, conditioned on
    reaching 0, s ~ Wald(x0 v_end / |x_end|, x0^2) and v* = s v_end / (v_end + s).
    s is drawn from a normal and a uniform per path (Michael, Schucany and
    Haas), written for v* with no term that cancels as x_end -> 0: with
    z = sqrt(v_end) |N|, root = sqrt(z^2 + 4 x0 |x_end|) and w = (z + root)/2,
    v* = v_end / (1 + g^2), g = w / x0 with probability w / root (the smaller
    root) and |x_end| / w otherwise.
    """
    n = x0.size
    z = math.sqrt(v_end) * np.abs(rng.standard_normal(n))
    b = np.abs(x_end)
    root = np.sqrt(z * z + 4.0 * x0 * b)
    w = 0.5 * (z + root)
    del z  # each freed once used: at 41% defaults this step then peaks at 24 B/path, not 30
    smaller = rng.random(n) * root < w  # the Wald draw's smaller root
    del root
    g = np.where(smaller, w / x0, b / w)
    g *= g
    g += 1.0
    return np.divide(v_end, g, out=g)


def _firm_bm_at_default(rng, v_star, x0, nu, knot_v, sigmas):
    """The firm's calendar-time Brownian motion W1 at default, given each
    defaulted path's start x0 and first-passage variance v* <= knot_v[-1].

    In the variance clock W1 runs as b(v) = x(v) - x0 + nu*v, and
    dW1 = db / sigma inside a vol bucket.  `knot_v` holds 0, the bucket-end
    variances and the maturity's; `sigmas` the vol of each piece between
    them.  Whatever the drift, x on [0, v*] is a 3-d Bessel bridge from x0
    to 0 (Williams' path decomposition), the norm of a rotation-invariant 3-d
    Brownian bridge, so its radius alone is Markov: from r at one bucket end
    it is sqrt((shrink r + sd Z)^2 + 2 sd^2 E) at the next, Z normal and E a
    unit exponential (the step along r, and the other two coordinates).

    The bridge runs on the live paths only, those with v* past the bucket
    end, and each path gets its W1 once, in the piece where it defaults:
    W1 at the last bucket end plus (b(v*) - b there) / sigma, with x(v*) = 0.
    """
    w1 = nu * v_star - x0  # b(v*)
    w1 /= sigmas[0]  # final on the paths that default in the first piece
    live = np.flatnonzero(knot_v[1] < v_star)
    v, r = v_star.take(live), x0.take(live)
    acc = np.zeros(live.size)  # W1 at the last bucket end
    v_prev = 0.0
    last = knot_v.size - 2  # the bucket end before the maturity's
    for k in range(1, last + 1):
        v_k, sigma, sigma_next = knot_v[k], sigmas[k - 1], sigmas[k]
        shrink = (v - v_k) / (v - v_prev)
        var = (v_k - v_prev) * shrink
        r_k = shrink * r + np.sqrt(var) * rng.standard_normal(live.size)
        r_k = np.sqrt(r_k * r_k + 2.0 * var * rng.standard_exponential(live.size))
        acc += (r_k - r + nu * (v_k - v_prev)) / sigma
        r = r_k
        if k == last:  # every path still live defaults in the last piece
            w1[live] = acc + (nu * (v - v_k) - r) / sigma_next
            break
        on = knot_v[k + 1] < v
        gone = np.flatnonzero(~on)  # the paths that default in the next piece
        w1[live.take(gone)] = (acc.take(gone)
                               + (nu * (v.take(gone) - v_k) - r.take(gone)) / sigma_next)
        keep = np.flatnonzero(on)
        live, v, r, acc = (a.take(keep) for a in (live, v, r, acc))
        v_prev = v_k
    return w1


def _default_ends(rng, counts, starts, below, above, nu, v_end):
    """The start x0 and the value X_V at V = v_end of x = x0 - nu*v + W(v)
    on each path that reaches 0 by V, by the reflection principle.

    On that event X_V is N(x0 - nu V, V) below 0, of weight `below`, and
    N(-x0 - nu V, V) above 0, of weight `above` = exp(2 nu x0) Phi(d2),
    d2 = (-x0 - nu V) / sqrt(V).  `counts` holds the paths of each
    scenario's two pieces, below first.  A path's uniform u gives its
    quantile 1 - u in its piece (1 at the barrier), in place in the piece's
    block: Phi((X_V - x0 + nu V) / sqrt(V)) = (1 - u) below, and
    Phi((-x0 - nu V - X_V) / sqrt(V)) = (1 - u) Phi(d2) above, in logs.
    """
    x0 = np.repeat(np.repeat(starts, 2), counts)
    x_end = np.subtract(1.0, rng.random(x0.size))
    sd, lo = math.sqrt(v_end), 0
    for start, w_below, w_above, (mid, hi) in zip(starts, below, above,
                                                  np.cumsum(counts).reshape(-1, 2)):
        x = x_end[lo:mid]
        x *= w_below
        ndtri(x, out=x)
        x *= sd
        x += start - nu * v_end
        np.minimum(x, 0.0, out=x)  # 0, not +inf, where w_below rounds to 1
        if hi > mid:
            x = x_end[mid:hi]
            np.log(x, out=x)
            x += min(math.log(w_above) - 2.0 * nu * start, 0.0)  # log Phi(d2)
            ndtri_exp(x, out=x)
            x *= -sd
            x -= start + nu * v_end
            np.maximum(x, 0.0, out=x)  # 0, not -inf, where Phi(d2) rounds to 1
        lo = hi
    return x0, x_end


def _equity_at_default(tau, shock, ers: ErsContract):
    """P(0,tau) S_tau given the value at tau of the Brownian motion driving the
    equity, written over `shock`: the discount factor cancels the rate drift,
    whatever the curve."""
    sig = ers.equity_vol
    shock *= sig
    shock -= (ers.dividend_yield + 0.5 * sig * sig) * tau
    np.exp(shock, out=shock)
    shock *= ers.s0
    return shock


class _FirmDraw(NamedTuple):
    """The correlation-free part of a joint path set, on the defaulted paths
    only, as read-only arrays: 24 bytes per defaulted path, 16 under the
    hazard model."""

    tau: np.ndarray                # default time, on the defaulted paths
    w1: np.ndarray | None          # the firm's Brownian motion at default, likewise
    w2: np.ndarray                 # the equity's own Brownian motion at default, likewise
    default_prob_closed_form: float


def _firm_draw(model, maturity, n_paths, seed) -> _FirmDraw:
    """Draw the defaulted paths, and only those: their default times and the
    Brownian motions at default.

    Under a first-passage model, with V = clock(maturity), one multinomial
    draw counts the paths that survive and each scenario's defaults in the
    two pieces of `_default_ends`: `first_passage`'s third output at V weighs
    the piece above 0, and the rest of the scenario's default probability
    the piece below.  Its first output, mixed over the scenarios as
    `survival` mixes it, is Q(T), the weight of the paths that survive.
    `_default_ends`, `_first_passage_variance` and `_firm_bm_at_default` then
    draw X_V, v* and W1 on the k defaulted paths.

    Under the hazard model, with PD = 1 - Q(T), one binomial draw counts the
    k defaults.  Given default by T, the cumulative hazard at default C has
    P(C <= c) = (1 - exp(-c)) / PD, so each path takes C = -log(1 - PD u)
    from one uniform u, and tau from the hazard clock's inverse.  W1 is None:
    default does not follow a firm Brownian motion.

    Every firm variate comes from one child stream of the seed and every
    equity variate from another; nothing here depends on the correlation.
    """
    firm_rng, equity_rng = (np.random.default_rng(s)
                            for s in np.random.SeedSequence(seed).spawn(2))
    if isinstance(model, HazardCurve):
        pd, w1 = 1.0 - survival(model, maturity), None
        u = firm_rng.random(firm_rng.binomial(n_paths, pd))
        tau = model.clock.inverse(-np.log1p(-pd * u))
    else:
        vols, clock = model.vols, model.vols.clock
        knot_t = np.append(clock.knot_t[clock.knot_t < maturity], maturity)
        knot_v = clock(knot_t)
        sigmas = (vols.sigmas + vols.sigmas[-1:])[:knot_t.size - 1]
        v_end, nu = knot_v[-1], 0.5 - model.b
        log_h = np.array([math.log(h) for h, _ in model.scenarios])
        q, _, above = first_passage(log_h, model.b, v_end)
        below = np.maximum(1.0 - q - above, 0.0)  # round-off can take it below 0
        probs = np.array([p for _, p in model.scenarios])[:, None]
        q_total = float(sum(p * q_i for (_, p), q_i in zip(model.scenarios, q)))
        counts = firm_rng.multinomial(
            n_paths, [*(probs * np.column_stack((below, above))).ravel(), q_total])[:-1]
        x0, x_end = _default_ends(firm_rng, counts, -log_h, below, above, nu, v_end)
        v_star = _first_passage_variance(firm_rng, x0, x_end, v_end)
        del x_end  # freed before the bridge, where a draw with many defaults peaks
        w1 = _firm_bm_at_default(firm_rng, v_star, x0, nu, knot_v, sigmas)
        pd, tau = 1.0 - q_total, clock.inverse(v_star)
    tau = np.minimum(tau, maturity)  # round-off can carry the clock's inverse past T
    w2 = np.sqrt(tau) * equity_rng.standard_normal(tau.size)
    for shared in (tau, w2) if w1 is None else (tau, w1, w2):
        shared.flags.writeable = False
    return _FirmDraw(tau, w1, w2, pd)


_last_draw = None  # (key, _FirmDraw) of the last joint simulation


def simulate_joint_paths(model, ers: ErsContract, cfg: SimulationConfig) -> PathRecords:
    """Exact joint draw of the default time and the equity at default, on the
    paths that default, under At1pParams, SbtvParams or HazardCurve.

    The firm draw (`_firm_draw`) counts the defaults, then draws only those
    paths, from the law conditioned on default: a first-passage model's
    barrier scenarios (AT1P is the one-scenario case), or the hazard model's
    cumulative hazard.  It does not depend on the correlation, and the last
    one, of any model, is kept: a call with the same model, maturity, path
    count and seed reuses it, so default times are identical across
    correlations at a fixed seed and only the equity at default is computed
    again.  `tau` is then shared between the calls' records, and read-only;
    `discounted_s_tau` is each call's own.  The hazard model has no firm
    Brownian motion, so its equity shock, and its records, are the same at
    every correlation.
    """
    global _last_draw
    if not isinstance(model, (At1pParams, SbtvParams, HazardCurve)):
        raise DomainError(f"no joint simulation for {type(model).__name__}")
    key = (model, ers.maturity, cfg.n_paths, cfg.rng_seed)
    slot = _last_draw
    if slot is None or slot[0] != key:
        _last_draw = None  # drop the old draw before making the new one
        slot = _last_draw = key, _firm_draw(*key)
    draw, rho = slot[1], ers.rho
    if draw.w1 is None:
        shock = draw.w2.copy()  # the call's own array, mapped in place
    else:
        shock = np.multiply(rho, draw.w1)
        shock += math.sqrt(1.0 - rho * rho) * draw.w2
    discounted_s_tau = _equity_at_default(draw.tau, shock, ers)
    return PathRecords(n_paths=cfg.n_paths, tau=draw.tau, discounted_s_tau=discounted_s_tau,
                       default_prob_closed_form=draw.default_prob_closed_form,
                       diagnostics={"seed": cfg.rng_seed})


def simulate_intensity_paths(hazard: HazardCurve, ers: ErsContract,
                             cfg: SimulationConfig) -> PathRecords:
    """`simulate_joint_paths` under the hazard model, which it checks for."""
    if not isinstance(hazard, HazardCurve):
        raise DomainError(f"intensity simulation needs a HazardCurve, "
                          f"got {type(hazard).__name__}")
    return simulate_joint_paths(hazard, ers, cfg)


def _npv_terms(tau, discounted_s_tau, ers: ErsContract, curve: DiscountCurve, rows=2):
    """(block, annuity): block is one (rows, k) array over the k defaults, fixed
    and per_spread in its first two rows and the others left for the caller's
    work.  The residual swap value at default, P(0,tau) * NPV(tau), is
    fixed + per_spread * X at spread X, and per_spread <= K*S0 * annuity
    exactly, both read off the same tail sums.

    Three-term simplified form: the floating legs telescope against the
    final notional exchange and the dividend stream cancels against the
    discounted expected terminal stock price, leaving

        fixed      = K*S0 * P(0, T_{beta(tau)-1}) - K * P(0,tau) * S_tau
        per_spread = K*S0 * sum_{i >= beta(tau)} P(0,T_i) alpha_i

    The curve is read once, at T_0, ..., T_n: P(0,tau) * S_tau comes discounted.
    """
    tau = np.asarray(tau, dtype=float)
    discounted_s_tau = np.asarray(discounted_s_tau, dtype=float)
    if np.any(tau > ers.maturity):
        raise DomainError("default after maturity: residual NPV undefined")
    sched = ers.schedule
    discounts = curve.discount(np.append(sched.start, sched.dates))  # P(0, T_0), ..., P(0, T_n)
    annuity_terms = discounts[1:] * sched.accruals
    # tail annuities from T_1, ..., T_n, and 0 past the last payment date
    tails = np.append(np.cumsum(annuity_terms[::-1])[::-1], 0.0)
    ks0 = ers.stock_count * ers.s0
    idx = sched.next_payment_index(tau)
    idx -= 1  # T_{beta(tau)-1} is (T_0, T_1, ...)[idx], and idx lies in [0, n]
    block = np.empty((rows, tau.size))
    fixed, per_spread = block[:2]
    # each table scaled before the gather: the same products, on n + 1 entries
    # only; "clip" never moves an index here, where "raise" would copy into `out`
    np.multiply(ers.stock_count, discounted_s_tau, out=per_spread)  # until per_spread lands
    (ks0 * discounts).take(idx, out=fixed, mode="clip")
    fixed -= per_spread
    (ks0 * tails).take(idx, out=per_spread, mode="clip")
    return block, float(tails[0])


def _cva_estimate(paths: PathRecords, payoff, work) -> CvaEstimate:
    """Estimates of E[payoff] from its k values on the defaulted paths (0 on
    the others), with `work`, k entries, for scratch.

    The control variate is the default indicator.  Its regression
    coefficient cov(payoff, 1{default}) / var(1{default}) is exactly the
    mean payoff given default, beta, so the controlled estimate is the
    closed-form P(default) * beta, and the controlled payoff deviates from
    its mean by payoff - beta on the defaulted paths and by 0 elsewhere.
    The plain estimate m = beta * k / n deviates by payoff - m there and by
    -m on the others.
    """
    n, k = paths.n_paths, payoff.size
    if k == 0:
        return CvaEstimate(0.0, 0.0, 0.0, 0.0, low_statistics=True)
    beta = float(np.mean(payoff))
    np.square(np.subtract(payoff, beta, out=work), out=work)
    se = math.sqrt(float(np.sum(work)) / (n - 1)) / math.sqrt(n)
    m = beta * k / n
    np.square(np.subtract(payoff, m, out=work), out=work)
    plain_ss = float(np.sum(work)) + (n - k) * m * m
    return CvaEstimate(paths.default_prob_closed_form * beta, se, m,
                       math.sqrt(plain_ss / (n - 1)) / math.sqrt(n))


def ers_cva_term(paths: PathRecords, ers: ErsContract, curve: DiscountCurve,
                 spread: float) -> CvaEstimate:
    """Monte Carlo counterparty adjustment LGD * E[1{default} (P(0,tau) NPV(tau))^+],
    controlled by the default indicator."""
    (fixed, payoff), _ = _npv_terms(paths.tau, paths.discounted_s_tau, ers, curve)
    payoff *= spread  # per_spread, then fixed + per_spread * spread
    payoff += fixed
    np.maximum(payoff, 0.0, out=payoff)
    payoff *= ers.lgd
    return _cva_estimate(paths, payoff, fixed)


def ers_fair_spread_from_paths(paths: PathRecords, ers: ErsContract,
                               curve: DiscountCurve) -> ErsPricingResult:
    """Solve exactly for the spread X that zeroes the swap value on a fixed path set.

    X = f(X) = c * sum (fixed_i + per_spread_i*X)^+ over the n defaulted paths,
    c = P(default) * LGD / (n*K*S0*annuity); f is convex, piecewise linear and
    of slope below 1.  Newton's method on the active set {i : fixed_i +
    per_spread_i*X > 0} starts at X = 0.  With per_spread >= 0 each value
    fixed_i + per_spread_i*X, rounded, does not fall as X rises, so the set
    only grows, and a step that finds as many active paths as the last one
    has the same set and would give the same X: it ends the solve.  1 - slope
    is a sum of terms >= 0, 0 only on the one input with no root:
    P(default) = 1, zero recovery and every default before T_1.  The
    spread's standard error is the root's, SE(f) / (1 - slope): the last
    step's n*K*S0*annuity * (1 - slope) on the final active set divides n
    times the adjustment's standard error.

    Every k-sized float array of the solve is a row of one block (fixed,
    per_spread, slack, value and active, the last also the scratch of the
    estimate), written in place.  This is for the allocator, not the
    arithmetic: on the 41k defaults of a distressed 10^5-path cell the block
    is 1.6 MB, above glibc's 128 kB mmap threshold, so the first call maps
    it, and freeing it raises the mmap threshold to its size and the trim
    threshold to twice that (mallopt(3)).  From then on the heap keeps its
    pages between cells.  With some 30 separate 330 kB temporaries per call
    instead, glibc grew the heap top and gave it back to the OS in every
    call, and the next call faulted those pages in again.  Below about 16k
    defaults the arrays sit under the threshold either way.
    """
    block, annuity = _npv_terms(paths.tau, paths.discounted_s_tau, ers, curve, rows=5)
    fixed, per_spread, slack, value, active = block
    if annuity <= 1e-300:
        raise DegenerateInputError("zero premium annuity: fair ERS spread undefined")
    denom = ers.stock_count * ers.s0 * annuity
    n, w = max(fixed.size, 1), paths.default_prob_closed_form * ers.lgd  # X = 0 with no defaults
    np.subtract(denom, per_spread, out=slack)  # >= 0, see _npv_terms
    x, trace, count = 0.0, [], None
    while True:
        np.multiply(per_spread, x, out=value)  # fixed + per_spread * x
        value += fixed
        positive = value > 0
        count, last = np.count_nonzero(positive), count
        if count == last:
            break  # the last step's set, so its x again
        np.copyto(active, positive)  # summed by einsum: `@` wakes OpenBLAS's threads
        # n*denom * (1 - slope of f at x), as a sum of terms >= 0
        gap = (1.0 - w) * n * denom + w * (float(np.einsum("i,i", active, slack))
                                            + (n - count) * denom)
        if gap == 0:
            raise DegenerateInputError("fair ERS spread undefined: the adjustment grows "
                                       "one-for-one with the spread")
        x_new = w * float(np.einsum("i,i", active, fixed)) / gap
        if not x_new > x:
            break
        trace.append((x_new - x) * 1e4)
        x = x_new
    trace.append(0.0)
    payoff = np.maximum(value, 0.0, out=value)
    payoff *= ers.lgd
    est = _cva_estimate(paths, payoff, active)
    pd_mc = payoff.size / paths.n_paths
    se_bp = est.std_error * n / gap * 1e4  # SE(f) / (1 - slope of f at x), see the docstring
    diag = {
        "iterations": len(trace),
        "delta_x_trace_bp": trace,
        "paths_defaulted": payoff.size,
        "n_paths": paths.n_paths,
        "variance_reduction_factor": (est.plain_std_error / est.std_error
                                      if est.std_error > 0 else 1.0),
        "annuity": annuity,
        "low_statistics": est.low_statistics or est.std_error * 3 > max(abs(est.value), 1e-12),
    }
    diag.update(paths.diagnostics)
    return ErsPricingResult(
        fair_spread_bp=x * 1e4, std_error_bp=se_bp,
        cva_value=est.value, cva_std_error=est.std_error,
        default_prob_mc=pd_mc, default_prob_closed_form=paths.default_prob_closed_form,
        diagnostics=diag)


def ers_fair_spread(model, ers: ErsContract, curve: DiscountCurve,
                    cfg: SimulationConfig) -> ErsPricingResult:
    """Draw one path set under the credit model and solve it (ers_fair_spread_from_paths)."""
    return ers_fair_spread_from_paths(simulate_joint_paths(model, ers, cfg), ers, curve)

