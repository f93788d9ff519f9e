"""The benchmark's workloads: seeded inputs, one pass of work, and the
checks that each pass's outputs are correct.

Each workload is a closed loop with one caller: every call into fpcredit
starts when the previous one has returned.  A pass times only the calls
into the library; the checks run after them, untimed and untraced.

This module imports neither fpcredit nor numpy at load time, so that the
set-up probe in `run.py` times those imports itself.
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

DEFAULT_SEED = 20090916
LEHMAN_PRESETS = ("lehman-2007-07-10", "lehman-2008-06-12", "lehman-2008-09-12")
ERS_PRESET = "ers-paper-2009-09-16"
CALIBRATE_PRESETS = LEHMAN_PRESETS + (ERS_PRESET,)
CALIBRATORS = {"intensity": "bootstrap_intensity", "at1p": "calibrate_at1p",
               "sbtv": "calibrate_sbtv"}
RHOS = (-1.0, -0.2, 0.0, 0.5, 1.0)
FLAT_RATE = 0.03
ERS_PATHS = 100_000
SCALE_RANGE = (0.95, 1.05)
# The pace.py kernel whose work is shaped like a fit under each payoff.
PACE_KIND = {"postponed": "scalar", "exact": "grid"}

# The paper's published numbers that the library reproduces; the same
# constants pin the acceptance tests.
PUBLISHED_SURVIVALS = {
    "lehman-2007-07-10": {
        "intensity": (99.7, 98.5, 96.2, 94.1, 90.2),
        "at1p": (99.7, 98.5, 96.1, 94.1, 90.2),
        "sbtv": (99.7, 98.5, 96.1, 94.1, 90.2),
    },
    "lehman-2008-06-12": {
        "intensity": (93.6, 85.7, 80.0, 75.1, 68.8),
        "at1p": (93.5, 85.6, 79.9, 75.0, 68.7),
        "sbtv": (93.6, 85.7, 80.1, 75.1, 68.8),
    },
    "lehman-2008-09-12": {
        "intensity": (79.2, 65.9, 59.3, 52.7, 43.4),
        "at1p": (78.4, 65.5, 59.1, 52.5, 43.4),
        "sbtv": (79.3, 66.2, 59.6, 52.9, 43.6),
    },
}
SBTV_TRAJECTORY = {  # (H2, p2) per preset
    "lehman-2007-07-10": (0.7313, 0.038),
    "lehman-2008-06-12": (0.7971, 0.254),
    "lehman-2008-09-12": (0.8427, 0.500),
}
PUBLISHED_ERS_SPREADS_BP = {
    "at1p": dict(zip(RHOS, (0.0, 3.0, 5.5, 14.7, 24.9))),
    "sbtv": dict(zip(RHOS, (0.0, 3.6, 5.5, 11.4, 17.9))),
}
PUBLISHED_INTENSITY_ERS_BP = 5.5


@dataclass
class Pass:
    """What one pass did: its timed calls and the outcome of its checks."""

    gate: object                                 # () -> context entered around timed calls
    pace: object = None                          # pace.Pace, or None to leave steps unpaced
    steps: dict = field(default_factory=dict)    # step -> seconds of its timed calls
    paced: dict = field(default_factory=dict)    # step -> those seconds at reference speed
    units: list = field(default_factory=list)    # the steps that are one unit of work
    reports: list = field(default_factory=list)  # CalibrationReport of every fit
    cells: list = field(default_factory=list)    # (model, rho, seconds, ErsPricingResult)
    attempted: int = 0
    failures: list = field(default_factory=list)
    calibration_failures: int = 0
    mc_failures: int = 0

    def check(self, ok, label: str):
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    @property
    def wall_s(self) -> float:
        return sum(self.steps.values())

    @property
    def paced_wall_s(self) -> float:
        return sum(self.paced.values())

    @contextmanager
    def step(self, name: str, kind: str):
        """Time the calls in the block as step `name`, whose work is of the
        pace kernel `kind`."""
        before = self.pace.before(kind) if self.pace else None
        start = perf_counter()
        with self.gate():
            yield
        self.steps[name] = perf_counter() - start
        if self.pace:
            self.paced[name] = self.pace.paced(kind, before, self.steps[name])

    def raised(self, label: str):
        """A raised fpcredit or scipy error is a failed check; the run goes on."""
        traceback.print_exc(file=sys.stderr)
        self.check(False, f"{label}: raised")


def survival(fp, params, t):
    for cls, fn in ((fp.At1pParams, fp.at1p_survival), (fp.SbtvParams, fp.sbtv_survival),
                    (fp.HazardCurve, fp.intensity_survival)):
        if isinstance(params, cls):
            return fn(params, t)
    raise TypeError(f"no survival function for {type(params).__name__}")


def scale_strip(strip, factor: float):
    def scale(bp):
        return None if bp is None else bp * factor
    quotes = tuple(dataclasses.replace(q, spread_bp=q.spread_bp * factor,
                                       bid_bp=scale(q.bid_bp), ask_bp=scale(q.ask_bp))
                   for q in strip.quotes)
    return dataclasses.replace(strip, quotes=quotes)


def calibrate_models(fp, strip, curve, convention, models, out: Pass, label: str):
    """Fit each model, all timed as one step named `label`; returns
    {model: (params, report)} for the fits that worked."""
    fits = {}
    with out.step(label, PACE_KIND[convention]):
        for model in models:
            try:
                fits[model] = getattr(fp, CALIBRATORS[model])(strip, curve,
                                                              convention=convention)
            except Exception:
                out.calibration_failures += 1
                out.raised(f"{label} {model}")
    out.reports.extend(report for _, report in fits.values())
    return fits


# -- calibrate-* ---------------------------------------------------------------

@dataclass
class CalibrateInputs:
    curve: object
    strips: list          # [(preset, CdsQuoteStrip)]
    convention: str
    seed: int
    scaled: bool          # draw a fresh spread factor per strip and pass

    def strips_for_pass(self, index: int):
        if not self.scaled:
            return self.strips
        rng = random.Random(f"{self.seed}/{index}")
        return [(name, scale_strip(strip, rng.uniform(*SCALE_RANGE)))
                for name, strip in self.strips]


def build_calibrate(fp, seed: int, convention: str, n_strips: int, scaled: bool):
    return CalibrateInputs(
        curve=fp.DiscountCurve(flat_rate=FLAT_RATE),
        strips=[(name, fp.preset_strip(name)) for name in CALIBRATE_PRESETS[:n_strips]],
        convention=convention, seed=seed, scaled=scaled and seed != DEFAULT_SEED)


def calibrate_pass(fp, inputs: CalibrateInputs, index: int, out: Pass) -> Pass:
    import numpy as np

    grid = np.linspace(0.0, 12.0, 241)
    published = inputs.convention == "postponed" and inputs.seed == DEFAULT_SEED
    for name, strip in inputs.strips_for_pass(index):
        fits = calibrate_models(
            fp, strip, inputs.curve, inputs.convention, CALIBRATORS, out, name)
        out.units.append(name)
        for model, (fit, report) in fits.items():
            label = f"{name} {model}"
            out.check(max(abs(e) for e in report.repricing_errors_bp) < 0.01,
                      f"{label}: a pillar reprices off by 0.01 bp or more")
            q = np.asarray(survival(fp, fit, grid), dtype=float)
            out.check(q[0] == 1.0 and np.all(np.diff(q) <= 1e-15)
                      and np.all((q >= 0.0) & (q <= 1.0)),
                      f"{label}: survival curve not 1 at 0, non-increasing and in [0, 1]")
            if published and name in PUBLISHED_SURVIVALS:
                gap = np.max(np.abs(np.array(report.pillar_survivals) * 100
                                    - PUBLISHED_SURVIVALS[name][model]))
                out.check(gap < 1.0, f"{label}: pillar survival {gap:.3f}% off published")
        if published and name in SBTV_TRAJECTORY and "sbtv" in fits:
            (_, _), (h2, p2) = fits["sbtv"][0].scenarios
            want_h2, want_p2 = SBTV_TRAJECTORY[name]
            out.check(abs(h2 - want_h2) < 0.03 and abs(p2 - want_p2) < 0.03,
                      f"{name} sbtv: (H2, p2) = ({h2:.4f}, {p2:.3f}) off the published path")
    return out


# -- ers-* ---------------------------------------------------------------------

@dataclass
class ErsInputs:
    curve: object
    strip: object
    preset: str
    models: tuple
    cells: list          # [(model, rho)]
    contracts: dict      # rho -> ErsContract
    config: object       # SimulationConfig
    seed: int


def build_ers(fp, seed: int, preset: str, cells, n_paths: int):
    return ErsInputs(
        curve=fp.DiscountCurve(flat_rate=FLAT_RATE), strip=fp.preset_strip(preset),
        preset=preset, models=tuple(dict.fromkeys(model for model, _ in cells)),
        cells=list(cells),
        contracts={rho: fp.make_ers_contract(rho=rho) for _, rho in cells},
        config=fp.SimulationConfig(n_paths=n_paths, rng_seed=seed), seed=seed)


def mc_band(published_tol: float, se: float, seed: int) -> float:
    """Tolerance of a Monte Carlo number against its reference.

    At the default seed this is the acceptance tests' band, max(tol, 3 SE).
    Any other seed gets tol + 5 SE: a comparison runs these checks on
    hundreds of seeds, and a 3-SE band fails about one check in 370 of a
    correct sampler (the intensity anchor, 0.84 bp below the published
    5.5 bp, would fail one seed in 18 under the bare 1.0 bp band).
    """
    if seed == DEFAULT_SEED:
        return max(published_tol, 3.0 * se)
    return published_tol + 5.0 * se


def ers_pass(fp, inputs: ErsInputs, index: int, out: Pass) -> Pass:
    fits = calibrate_models(fp, inputs.strip, inputs.curve, "postponed",
                            inputs.models, out, inputs.preset)
    results = {}
    for model, rho in inputs.cells:
        if model not in fits:
            out.check(False, f"{model} rho={rho:+.1f}: no calibrated model")
            continue
        cell = f"{model} rho={rho:+.1f}"
        with out.step(cell, "array"):
            try:
                result = fp.ers_fair_spread(fits[model][0], inputs.contracts[rho],
                                            inputs.curve, inputs.config)
            except Exception:
                result = None
                out.mc_failures += 1
                out.raised(cell)
        out.units.append(cell)
        if result is None:
            continue
        results[(model, rho)] = result
        out.cells.append((model, rho, out.steps[cell], result))
    check_default_probability(inputs, results, out)
    if inputs.preset == ERS_PRESET:
        check_ers_table(inputs, results, out)
    else:
        check_distressed(inputs, results, out)
    return out


def check_default_probability(inputs: ErsInputs, results, out: Pass):
    """Acceptance criterion 5 on every first-passage model: the simulated
    default probability matches the closed form.  Paths are paired across
    rho, so each model has one.  The intensity sampler is not checked,
    as in the acceptance tests: it draws default times by exact inversion,
    and at the default seed its estimate sits 3.04 SE high by chance (over
    400 other seeds its z-scores have mean 0.05 and SD 1.03)."""
    for model in (m for m in inputs.models if m != "intensity"):
        result = next((r for (m, _), r in results.items() if m == model), None)
        if result is None:
            out.check(False, f"{model}: no cell to read the default probability from")
            continue
        pd_cf, pd_mc = result.default_prob_closed_form, result.default_prob_mc
        se = math.sqrt(max(pd_cf * (1.0 - pd_cf), 1e-12) / inputs.config.n_paths)
        tol = mc_band(0.0, se, inputs.seed)
        out.check(abs(pd_mc - pd_cf) <= tol,
                  f"{model}: MC default probability {pd_mc:.5f} vs closed form "
                  f"{pd_cf:.5f} (+-{tol:.5f})")


def check_ers_table(inputs: ErsInputs, results, out: Pass):
    for model, table in PUBLISHED_ERS_SPREADS_BP.items():
        spreads = [results[(model, rho)].fair_spread_bp if (model, rho) in results else None
                   for rho in RHOS]
        for rho, x in zip(RHOS, spreads):
            if x is None:
                out.check(False, f"{model} rho={rho:+.1f}: no result")
                continue
            result = results[(model, rho)]
            tol = mc_band(1.5, result.std_error_bp, inputs.seed)
            out.check(abs(x - table[rho]) <= tol,
                      f"{model} rho={rho:+.1f}: {x:.2f} bp vs published {table[rho]} (+-{tol:.2f})")
            if result.std_error_bp > 0:
                vr = result.diagnostics.get("variance_reduction_factor", 0.0)
                out.check(vr > 1.0, f"{model} rho={rho:+.1f}: variance reduction {vr:.3f} <= 1")
        out.check(None not in spreads and all(b > a for a, b in zip(spreads, spreads[1:])),
                  f"{model}: fair spread not strictly increasing in rho: {spreads}")
    anchor = results.get(("intensity", 0.0))
    if anchor is None:
        out.check(False, "intensity rho=+0.0: no result")
    else:
        tol = mc_band(1.0, anchor.std_error_bp, inputs.seed)
        out.check(abs(anchor.fair_spread_bp - PUBLISHED_INTENSITY_ERS_BP) <= tol,
                  f"intensity anchor {anchor.fair_spread_bp:.2f} bp vs "
                  f"{PUBLISHED_INTENSITY_ERS_BP} (+-{tol:.2f})")


def check_distressed(inputs: ErsInputs, results, out: Pass):
    for (model, rho), result in results.items():
        trace = result.diagnostics.get("delta_x_trace_bp") or [math.inf]
        out.check(trace[-1] < 0.05,
                  f"{model} rho={rho:+.1f}: fixed point not converged, |dX| trace {trace}")
    for model in inputs.models:
        low, high = results.get((model, 0.0)), results.get((model, 0.5))
        out.check(low is not None and high is not None
                  and high.fair_spread_bp > low.fair_spread_bp,
                  f"{model}: X(0.5) not above X(0)")


# -- registry ------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    build: object     # (fp, seed, n_strips, n_paths) -> inputs
    run_pass: object  # (fp, inputs, pass index, empty Pass) -> that Pass, filled
    unit: str         # what one latency sample is


WORKLOADS = {w.name: w for w in (
    Workload("calibrate-postponed",
             lambda fp, seed, n_strips, n_paths: build_calibrate(
                 fp, seed, "postponed", n_strips, scaled=True),
             calibrate_pass, "calibrate_strip_s"),
    # The exact-convention pass fits the published strips at every seed: a
    # run has time for one or two passes of four strips, and a fresh
    # spread factor per strip moves SBTV step-1 work by about 20% per strip,
    # which so few strips cannot average out.
    Workload("calibrate-exact",
             lambda fp, seed, n_strips, n_paths: build_calibrate(
                 fp, seed, "exact", n_strips, scaled=False),
             calibrate_pass, "calibrate_strip_s"),
    Workload("ers-sweep",
             lambda fp, seed, n_strips, n_paths: build_ers(
                 fp, seed, ERS_PRESET,
                 [(m, rho) for m in ("at1p", "sbtv") for rho in RHOS] + [("intensity", 0.0)],
                 n_paths),
             ers_pass, "ers_cell_s"),
    Workload("ers-distressed",
             lambda fp, seed, n_strips, n_paths: build_ers(
                 fp, seed, "lehman-2008-09-12",
                 [(m, rho) for m in ("at1p", "sbtv") for rho in (0.0, 0.5)], n_paths),
             ers_pass, "ers_cell_s"),
)}
