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

from .curves import DiscountCurve
from .errors import DomainError, require_finite


@dataclass(frozen=True)
class VolatilityTermStructure:
    """Piecewise-constant instantaneous volatility, flat beyond the last bucket."""

    bucket_ends: tuple[float, ...]
    sigmas: tuple[float, ...]

    def __post_init__(self):
        ends = tuple(float(t) for t in self.bucket_ends)
        sigs = tuple(float(s) for s in self.sigmas)
        if len(ends) != len(sigs) or not ends:
            raise DomainError("bucket_ends and sigmas must be non-empty and equal length")
        object.__setattr__(self, "bucket_ends", ends)
        object.__setattr__(self, "sigmas", sigs)
        require_finite(self, "bucket_ends", "sigmas")
        if any(s <= 0 for s in sigs):
            raise DomainError("volatilities must be positive")
        if list(ends) != sorted(set(ends)) or ends[0] <= 0:
            raise DomainError("bucket_ends must be positive and strictly increasing")
        knot_t = np.concatenate(([0.0], np.array(ends)))
        with np.errstate(over="ignore"):
            var = np.array(sigs) ** 2 * np.diff(knot_t)
        knot_cv = np.concatenate(([0.0], np.cumsum(var)))
        if knot_cv[-1] == np.inf:
            raise DomainError("volatilities too large: the cumulative variance overflows")
        object.__setattr__(self, "_knot_t", knot_t)
        object.__setattr__(self, "_knot_cv", knot_cv)

    def to_dict(self) -> dict:
        return {"bucket_ends": list(self.bucket_ends), "sigmas": list(self.sigmas)}

    @classmethod
    def from_dict(cls, d: dict) -> VolatilityTermStructure:
        return cls(bucket_ends=tuple(d["bucket_ends"]), sigmas=tuple(d["sigmas"]))

    def cumulative_variance(self, t):
        """Integral of sigma^2 over [0, t]; piecewise linear, exact at bucket ends."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0):
            raise DomainError("time must be non-negative")
        cv = np.interp(t_arr, self._knot_t, self._knot_cv)
        tail = t_arr > self._knot_t[-1]
        if np.any(tail):
            cv = np.where(tail, self._knot_cv[-1] + self.sigmas[-1] ** 2 * (t_arr - self._knot_t[-1]), cv)
        return float(cv) if np.isscalar(t) or t_arr.ndim == 0 else cv


@dataclass(frozen=True)
class At1pParams:
    """Barrier fraction H/V0, barrier-volatility exponent B and the vol structure.

    B shifts the barrier by exp(-B * cumulative variance); all calibration
    in this library runs with B = 0 but the general formula is kept live.
    """

    h_over_v0: float
    b: float
    vols: VolatilityTermStructure

    def __post_init__(self):
        require_finite(self, "h_over_v0", "b")
        if not 0 < self.h_over_v0 < 1:
            raise DomainError("H/V0 must lie in (0, 1): the firm must start above the barrier")

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
    """Piecewise-constant default intensity; flat beyond the last bucket."""

    bucket_ends: tuple[float, ...]
    lambdas: tuple[float, ...]

    def __post_init__(self):
        ends = tuple(float(t) for t in self.bucket_ends)
        lams = tuple(float(x) for x in self.lambdas)
        if len(ends) != len(lams) or not ends:
            raise DomainError("bucket_ends and lambdas must be non-empty and equal length")
        object.__setattr__(self, "bucket_ends", ends)
        object.__setattr__(self, "lambdas", lams)
        require_finite(self, "bucket_ends", "lambdas")
        if list(ends) != sorted(set(ends)) or ends[0] <= 0:
            raise DomainError("bucket_ends must be positive and strictly increasing")
        if any(lam < 0 for lam in lams):
            raise DomainError("intensities must be non-negative")
        knot_t = np.concatenate(([0.0], np.array(ends)))
        knot_cum = np.concatenate(([0.0], np.cumsum(np.array(lams) * np.diff(knot_t))))
        object.__setattr__(self, "_knot_t", knot_t)
        object.__setattr__(self, "_knot_cum", knot_cum)

    def to_dict(self) -> dict:
        return {"bucket_ends": list(self.bucket_ends), "lambdas": list(self.lambdas)}

    @classmethod
    def from_dict(cls, d: dict) -> HazardCurve:
        return cls(bucket_ends=tuple(d["bucket_ends"]), lambdas=tuple(d["lambdas"]))

    def cumulative_hazard(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0):
            raise DomainError("time must be non-negative")
        cum = np.interp(t_arr, self._knot_t, self._knot_cum)
        tail = t_arr > self._knot_t[-1]
        if np.any(tail):
            cum = np.where(tail, self._knot_cum[-1] + self.lambdas[-1] * (t_arr - self._knot_t[-1]), cum)
        return float(cum) if np.isscalar(t) or t_arr.ndim == 0 else cum


def first_passage_survival(log_h, b: float, cv):
    """Probability that the firm has not touched the barrier by cumulative variance cv.

    Closed form for GBM firm value against the exponential barrier:

        Q = Phi((log(V0/H) + (2B-1)/2 * S) / sqrt(S))
            - (H/V0)^(2B-1) * Phi((log(H/V0) + (2B-1)/2 * S) / sqrt(S))

    with S = cv and log_h = log(H/V0) < 0.  The second term is evaluated in
    log space so extreme volatilities probed by the calibrator cannot
    overflow.  At S = 0 the arguments are +inf and -inf, so Q = 1 - 0 = 1
    exactly (the firm starts above the barrier).  log_h and cv broadcast:
    a column of barriers against a row of variances gives one row per barrier.
    """
    a = 2.0 * b - 1.0
    s = np.asarray(cv, dtype=float)
    sd = np.sqrt(s)
    with np.errstate(divide="ignore"):
        first = ndtr((-log_h + 0.5 * a * s) / sd)
        # (H/V0)^(2B-1) * Phi(arg2) computed as exp(a*log h + log Phi)
        second = np.exp(a * log_h + log_ndtr((log_h + 0.5 * a * s) / sd))
    return (first - second).clip(0.0, 1.0)


def at1p_survival(params: At1pParams, t):
    """Probability that the firm has not touched the barrier by time t."""
    # raises DomainError for negative times
    cv = params.vols.cumulative_variance(np.asarray(t, dtype=float))
    out = first_passage_survival(math.log(params.h_over_v0), params.b, cv)
    return float(out) if out.ndim == 0 else out


def barrier_level(params: At1pParams, curve: DiscountCurve, t, payout_rate: float = 0.0):
    """Barrier H(t) with V0 = 1: H * exp(int_0^t (r - k - B sigma^2) du).

    Equivalently H times the expected firm value times exp(-B * cumvar).
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise DomainError("time must be non-negative")
    rate_integral = -np.log(curve.discount(t_arr))
    cv = params.vols.cumulative_variance(t_arr)
    out = params.h_over_v0 * np.exp(rate_integral - payout_rate * t_arr - params.b * np.asarray(cv))
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def sbtv_survival(params: SbtvParams, t):
    """Mixture survival: sum_i p^i * at1p_survival(H^i), one kernel call for all i."""
    cv = params.vols.cumulative_variance(np.asarray(t, dtype=float))
    log_h = np.array([math.log(h) for h, _ in params.scenarios])
    q = first_passage_survival(log_h.reshape((-1,) + (1,) * np.ndim(cv)), params.b, cv)
    out = sum(p * q_i for (_, p), q_i in zip(params.scenarios, q))
    return float(out) if np.ndim(t) == 0 else out


def intensity_survival(hazard: HazardCurve, t):
    """exp(-cumulative hazard), evaluated exactly on the piecewise-constant buckets."""
    out = np.exp(-np.asarray(hazard.cumulative_hazard(t)))
    return float(out) if np.ndim(t) == 0 else out


def survival(model, t):
    """Q(tau > t) under a calibrated model: At1pParams, SbtvParams or HazardCurve.

    A float for scalar or 0-d t, an array otherwise.
    """
    if isinstance(model, At1pParams):
        return at1p_survival(model, t)
    if isinstance(model, SbtvParams):
        return sbtv_survival(model, t)
    if isinstance(model, HazardCurve):
        return intensity_survival(model, t)
    raise DomainError(f"no survival curve for {type(model).__name__}")
