"""Bootstrap calibrators: piecewise intensity, barrier-model volatilities,
and the two-step scenario-barrier fit.

All three calibrators run one bootstrap loop, `_bootstrap`: walk the quote
strip from the shortest tenor outwards and, for each pillar, solve a 1D
root-finding problem in that pillar's bucket parameter so the pillar CDS
reprices to zero at its quoted spread, holding earlier buckets fixed.  They
differ only in the model family, the bracket and the reported parameters.
The scenario model needs a preliminary best-fit of (H2, p1, sigma_bar) on
the first three quotes before its volatility bootstrap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, least_squares

from .cds import CdsContract, cds_price, leg_grid
from .curves import DiscountCurve, make_schedule
from .errors import CalibrationError, DomainError
from .quotes import CdsQuoteStrip
from .survival import (At1pParams, HazardCurve, SbtvParams,
                       VolatilityTermStructure, first_passage_survival, survival)

PRICE_TOL = 1e-12
SIGMA_LO, SIGMA_HI = 1e-4, 5.0
LAMBDA_LO, LAMBDA_HI = 0.0, 10.0
CDS_FREQUENCY = 4
STEP1_POLISH_STARTS = 4
STEP1_TOL = 1e-12  # xtol, ftol and gtol of the step-1 least-squares polish


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
    return _bootstrap(strip, curve, convention, "intensity", HazardCurve, (LAMBDA_LO, LAMBDA_HI))


def calibrate_at1p(strip: CdsQuoteStrip, curve: DiscountCurve, h_over_v0: float = 0.4,
                   b: float = 0.0, convention: str = "postponed") -> tuple[At1pParams, CalibrationReport]:
    """Bootstrap one volatility bucket per quote with the barrier fixed exogenously."""
    if not 0 < h_over_v0 < 1:
        raise DomainError("H/V0 must lie in (0, 1)")

    def family(tenors, sigmas):
        return At1pParams(h_over_v0=h_over_v0, b=b, vols=VolatilityTermStructure(tenors, sigmas))

    return _bootstrap(strip, curve, convention, "at1p", family, (SIGMA_LO, SIGMA_HI))


def calibrate_sbtv(strip: CdsQuoteStrip, curve: DiscountCurve, h1: float = 0.4,
                   b: float = 0.0, convention: str = "postponed") -> tuple[SbtvParams, CalibrationReport]:
    """Two-step scenario-barrier calibration with two barrier scenarios.

    Step 1 best-fits (H2, p1, sigma_bar) to the first three quotes with a
    flat volatility: a deterministic multi-start bounded least-squares fit
    of the three spread errors in bp.  Step 2 freezes (H2, p1) and
    bootstraps every bucket volatility to an exact fit.
    """
    if not 0 < h1 < 1:
        raise DomainError("H1/V0 must lie in (0, 1)")
    if not math.isfinite(b):
        raise DomainError(f"b must be a finite number, got {b!r}")
    if len(strip.quotes) < 3:
        raise DomainError("SBTV requires at least 3 quotes")
    h2, p1, sigma_bar, step1 = _sbtv_step1(strip, curve, h1, b, convention)
    warnings: list[str] = []
    if step1["rms_bp"] > 5.0:
        warnings.append("step-1 RMS above 5 bp: scenario structure cannot represent this strip")

    def family(tenors, sigmas):
        return SbtvParams(scenarios=((h1, p1), (h2, 1.0 - p1)), b=b,
                          vols=VolatilityTermStructure(tenors, sigmas))

    params, report = _bootstrap(strip, curve, convention, "sbtv", family, (SIGMA_LO, SIGMA_HI))
    refinement = max(abs(s - sigma_bar) for s in params.vols.sigmas[:3])
    if refinement >= 0.02:
        warnings.append(f"step-2 moved the first volatilities {refinement:.4f} from "
                        "the step-1 flat value; step-1 fit was poor")
    report.diagnostics["step1"] = step1
    report.diagnostics["step2_refinement_of_flat_sigma"] = refinement
    report.warnings = warnings + report.warnings
    return params, report


# -- internals ---------------------------------------------------------------

def _bootstrap(strip, curve, convention, model_name, family, bracket):
    """Walk the strip outwards and root-find each pillar's bucket parameter so
    its CDS reprices, earlier buckets frozen.

    `family(tenors_so_far, xs)` builds the model whose buckets end at the
    tenors so far and carry the parameters `xs`; `bracket` bounds each root.
    """
    tenors = strip.tenors
    contracts = [pillar_contract(q.tenor, q.spread_bp, strip.recovery) for q in strip.quotes]
    grids = [leg_grid(c.schedule, curve, convention) for c in contracts]
    lo_x, hi_x = bracket
    xs: list[float] = []
    iterations = []
    flagged = []
    for tenor, contract, grid in zip(tenors, contracts, grids):
        def price_at(x: float) -> float:
            model = family(tenors[: len(xs) + 1], xs + [x])
            return contract.value(*grid.legs(survival(model, grid.times)))

        lo, hi = price_at(lo_x), price_at(hi_x)
        if abs(lo) < PRICE_TOL:
            # the quote is repriced at the bracket floor (no diffusion, no hazard)
            flagged.append(tenor)
            xs.append(lo_x)
            iterations.append(0)
            continue
        if lo * hi > 0:
            raise CalibrationError(
                f"{model_name}: no bucket parameter in [{lo_x}, {hi_x}] reprices the "
                f"{tenor}y quote (bucket {len(xs) + 1})",
                diagnostics={"tenor": tenor, "price_lo": lo, "price_hi": hi,
                             "fixed_parameters": list(xs)})
        res = brentq(price_at, lo_x, hi_x, xtol=1e-16, rtol=8.9e-16, full_output=True)[1]
        if res.root < lo_x * 1.01 or res.root > hi_x * 0.99:
            flagged.append(tenor)
        xs.append(res.root)
        iterations.append(res.iterations)
    model = family(tenors, xs)
    warnings: list[str] = []
    if flagged:
        warnings.append(f"bucket parameter at bracket bound for tenors {flagged}")
    pillar_survivals = [float(q) for q in survival(model, np.asarray(tenors))]
    if any(b > a + 1e-12 for a, b in zip(pillar_survivals, pillar_survivals[1:])):
        warnings.append("non-monotone pillar survivals: quote strip admits arbitrage")
    report = CalibrationReport(
        model=model_name,
        parameters=model.to_dict(),
        repricing_errors_bp=[cds_price(c, curve, model, convention) * 1e4 for c in contracts],
        pillar_survivals=pillar_survivals,
        diagnostics={"solver": "brentq", "iterations": iterations, "bracket": [lo_x, hi_x]},
        warnings=warnings,
    )
    return model, report


def _sbtv_step1(strip, curve, h1, b, convention):
    """Best-fit (H2, p1, sigma_bar) to the first three quotes, flat volatility.

    The residuals are the three model-minus-quoted spreads in bp.  Their
    sum of squares is evaluated at every point of a fixed 3x3x3 start grid
    (clipped into the box) and a bounded trust-region least-squares polish
    (TRF, finite-difference Jacobian, every point inside the box) is run
    from the best few; ties are broken by the smaller H2 so the result is
    deterministic.  The three pillar schedules are prefixes of the third
    one, whose leg grid, built once, prices all three; a flat volatility
    has cumulative variance sigma_bar^2 t, so an evaluation is one kernel
    call and builds no model.
    """
    head = strip.quotes[:3]
    grid = leg_grid(make_schedule(0.0, head[-1].tenor, CDS_FREQUENCY), curve, convention)
    last_payment = np.array([make_schedule(0.0, q.tenor, CDS_FREQUENCY).dates.size - 1
                             for q in head])
    quoted_bp = np.array([q.spread_bp for q in head])
    lgd = 1.0 - strip.recovery
    log_h1 = math.log(h1)
    evaluations = 0

    def residuals(x) -> np.ndarray:
        nonlocal evaluations
        evaluations += 1
        h2, p1, sigma_bar = x
        q = first_passage_survival(np.array([[log_h1], [math.log(h2)]]), b,
                                   sigma_bar ** 2 * grid.times)
        protection, premium = grid.legs(p1 * q[0] + (1.0 - p1) * q[1])
        return lgd * protection[last_payment] / premium[last_payment] * 1e4 - quoted_bp

    lower, upper = np.array([h1 + 1e-6, 0.0, 1e-3]), np.array([1.0 - 1e-6, 1.0, 2.0])
    starts = [np.clip(x0, lower, upper) for x0 in itertools.product(
        [h1 + 0.15, h1 + 0.3, h1 + 0.45], [0.35, 0.65, 0.95], [0.10, 0.20, 0.40])]
    ranked = sorted(starts, key=lambda x0: (float(np.sum(residuals(x0) ** 2)), x0[0]))
    best = None
    for x0 in ranked[:STEP1_POLISH_STARTS]:
        res = least_squares(residuals, x0, bounds=(lower, upper), method="trf",
                            xtol=STEP1_TOL, ftol=STEP1_TOL, gtol=STEP1_TOL)
        cand = (res.cost, res.x[0], res.x)  # ties broken by smallest H2
        if best is None or cand[:2] < best[:2]:
            best = cand
    cost, _, x = best
    h2, p1, sigma_bar = (float(v) for v in x)
    step1 = {"h2": h2, "p1": p1, "sigma_bar": sigma_bar,
             "objective_bp2": float(2.0 * cost), "rms_bp": math.sqrt(2.0 * cost / 3.0),
             "multi_start_points": len(starts), "objective_evaluations": evaluations}
    return h2, p1, sigma_bar, step1
