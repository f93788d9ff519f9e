"""Closed-form survival curves for the first-passage and intensity models.

The firm value follows a geometric Brownian motion with time-varying
volatility and defaults the first time it touches an exponential barrier
whose backbone is a fraction ``H`` of the expected firm value.  The initial
value V0 is normalized to 1 throughout: survival depends on H and V0 only
through their ratio, so nothing is lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

from .curves import Clock
from .errors import DomainError, require_finite


def _validate_buckets(obj, values_name: str) -> None:
    """Store `bucket_ends` and the per-bucket values as float tuples and check them."""
    ends = tuple(float(t) for t in obj.bucket_ends)
    values = tuple(float(x) for x in getattr(obj, values_name))
    if len(ends) != len(values) or not ends:
        raise DomainError(f"bucket_ends and {values_name} must be non-empty and equal length")
    object.__setattr__(obj, "bucket_ends", ends)
    object.__setattr__(obj, values_name, values)
    require_finite(obj, "bucket_ends", values_name)
    if list(ends) != sorted(set(ends)) or ends[0] <= 0:
        raise DomainError("bucket_ends must be positive and strictly increasing")


@dataclass(frozen=True)
class VolatilityTermStructure:
    """Piecewise-constant instantaneous volatility, flat beyond the last bucket.

    `clock(t)` is the cumulative variance, the integral of sigma^2 over [0, t].
    """

    bucket_ends: tuple[float, ...]
    sigmas: tuple[float, ...]

    def __post_init__(self):
        _validate_buckets(self, "sigmas")
        if any(s <= 0 for s in self.sigmas):
            raise DomainError("volatilities must be positive")
        object.__setattr__(self, "clock",
                           Clock.from_rates(self.bucket_ends, [s * s for s in self.sigmas]))

    def to_dict(self) -> dict:
        return {"bucket_ends": list(self.bucket_ends), "sigmas": list(self.sigmas)}

    @classmethod
    def from_dict(cls, d: dict) -> VolatilityTermStructure:
        return cls(bucket_ends=tuple(d["bucket_ends"]), sigmas=tuple(d["sigmas"]))


@dataclass(frozen=True)
class At1pParams:
    """Barrier fraction H/V0, barrier-volatility exponent B and the vol structure.

    B shifts the barrier by exp(-B * cumulative variance); all calibration
    in this library runs with B = 0 but the general formula is kept live.
    AT1P is the scenario-barrier model with the one scenario (H/V0, 1).
    """

    h_over_v0: float
    b: float
    vols: VolatilityTermStructure

    def __post_init__(self):
        require_finite(self, "h_over_v0", "b")
        if not 0 < self.h_over_v0 < 1:
            raise DomainError("H/V0 must lie in (0, 1): the firm must start above the barrier, "
                              f"got {self.h_over_v0!r}")

    @property
    def scenarios(self) -> tuple[tuple[float, float], ...]:
        return ((self.h_over_v0, 1.0),)

    def to_dict(self) -> dict:
        return {"h_over_v0": self.h_over_v0, "b": self.b, **self.vols.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> At1pParams:
        return cls(h_over_v0=d["h_over_v0"], b=d["b"], vols=VolatilityTermStructure.from_dict(d))


@dataclass(frozen=True)
class SbtvParams:
    """Scenario mixture over the initial barrier level: [(H^i/V0, p^i), ...]."""

    scenarios: tuple[tuple[float, float], ...]
    b: float
    vols: VolatilityTermStructure

    def __post_init__(self):
        scen = tuple((float(h), float(p)) for h, p in self.scenarios)
        if not scen:
            raise DomainError("at least one barrier scenario is required")
        object.__setattr__(self, "scenarios", scen)
        require_finite(self, "scenarios", "b")
        hs = [h for h, _ in scen]
        ps = [p for _, p in scen]
        if any(not 0 < h < 1 for h in hs):
            raise DomainError("every scenario barrier must lie in (0, 1)")
        if hs != sorted(set(hs)):
            raise DomainError("scenario barriers must be strictly increasing")
        if any(not 0 <= p <= 1 for p in ps) or abs(sum(ps) - 1.0) > 1e-12:
            raise DomainError("scenario probabilities must lie in [0, 1] and sum to one")

    def to_dict(self) -> dict:
        return {"scenarios": [list(s) for s in self.scenarios], "b": self.b,
                **self.vols.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> SbtvParams:
        return cls(scenarios=tuple(tuple(s) for s in d["scenarios"]), b=d["b"],
                   vols=VolatilityTermStructure.from_dict(d))


@dataclass(frozen=True)
class HazardCurve:
    """Piecewise-constant default intensity; flat beyond the last bucket.

    `clock(t)` is the cumulative hazard, the integral of lambda over [0, t].
    """

    bucket_ends: tuple[float, ...]
    lambdas: tuple[float, ...]

    def __post_init__(self):
        _validate_buckets(self, "lambdas")
        if any(lam < 0 for lam in self.lambdas):
            raise DomainError("intensities must be non-negative")
        object.__setattr__(self, "clock", Clock.from_rates(self.bucket_ends, self.lambdas))

    def to_dict(self) -> dict:
        return {"bucket_ends": list(self.bucket_ends), "lambdas": list(self.lambdas)}

    @classmethod
    def from_dict(cls, d: dict) -> HazardCurve:
        return cls(bucket_ends=tuple(d["bucket_ends"]), lambdas=tuple(d["lambdas"]))


def first_passage(log_h, b: float, cv):
    """Survival Q of the firm against the barrier at cumulative variance S = cv,
    dQ/dS and (H/V0)^a Phi(d2), from one square root, d1 and d2.

    Closed form for GBM firm value against the exponential barrier:

        Q = Phi(d1) - (H/V0)^a Phi(d2),  d1,2 = (-/+ log(H/V0) + a/2 * S) / sqrt(S)

    with a = 2B - 1 and log_h = log(H/V0) < 0.  The second term is evaluated
    in log space so extreme volatilities probed by the calibrator cannot
    overflow.  Since (H/V0)^a phi(d2) = phi(d1), dQ/dS = log(H/V0) phi(d1) / S^1.5
    and dQ/dlog(H/V0) = -2 S dQ/dS / log(H/V0) - a (H/V0)^a Phi(d2).  At S = 0
    the arguments are +inf and -inf, so Q = 1 - 0 = 1 exactly (the firm starts
    above the barrier) and dQ/dS is nan.  log_h and cv broadcast: a column of
    barriers against a row of variances gives one row per barrier.
    """
    a = 2.0 * b - 1.0
    s = np.asarray(cv, dtype=float)
    sd = np.sqrt(s)
    drift = 0.5 * a * s
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # at S = 0
        d1 = (-log_h + drift) / sd
        # (H/V0)^a * Phi(d2) computed as exp(a*log h + log Phi)
        second = np.exp(a * log_h + log_ndtr((log_h + drift) / sd))
        density = np.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)
        dq_ds = log_h * density / (s * sd)
    return (ndtr(d1) - second).clip(0.0, 1.0), dq_ds, second


def mixture_survival(scenarios, b: float, cv):
    """sum_i p^i Q(H^i) and its derivative in cv: survival and its slope at
    cumulative variance cv under the barrier scenarios [(H^i/V0, p^i), ...].
    Several barriers broadcast against cv in one kernel call; AT1P's one
    barrier skips the broadcast, which is slower on one row and gives the
    same numbers."""
    if len(scenarios) == 1:
        [(h, p)] = scenarios
        q, dq_ds, _ = first_passage(math.log(h), b, cv)
        return p * q, p * dq_ds
    log_h = np.array([math.log(h) for h, _ in scenarios])
    q, dq_ds, _ = first_passage(log_h.reshape((-1,) + (1,) * np.ndim(cv)), b, cv)
    return (sum(p * q_i for (_, p), q_i in zip(scenarios, q)),
            sum(p * d_i for (_, p), d_i in zip(scenarios, dq_ds)))


def sbtv_survival(params: SbtvParams | At1pParams, t):
    """Probability that the firm has not touched the barrier by time t, mixed
    over the barrier scenarios; AT1P is the one-scenario case."""
    out, _ = mixture_survival(params.scenarios, params.b,
                              params.vols.clock(np.asarray(t, dtype=float)))
    return float(out) if np.ndim(t) == 0 else out


def at1p_survival(params: At1pParams, t):
    """Probability that the firm has not touched the barrier by time t."""
    return sbtv_survival(params, t)


def intensity_survival(hazard: HazardCurve, t):
    """exp(-cumulative hazard), evaluated exactly on the piecewise-constant buckets."""
    out = np.exp(-np.asarray(hazard.clock(t)))
    return float(out) if np.ndim(t) == 0 else out


def survival(model, t):
    """Q(tau > t) under a calibrated model: At1pParams, SbtvParams or HazardCurve.

    A float for scalar or 0-d t, an array otherwise.
    """
    if isinstance(model, (At1pParams, SbtvParams)):
        return sbtv_survival(model, t)
    if isinstance(model, HazardCurve):
        return intensity_survival(model, t)
    raise DomainError(f"no survival curve for {type(model).__name__}")
