#!/usr/bin/env python3
"""Fit all three models to a fixed traffic of CDS strips and print one JSON line per fit.

The traffic is the 4 presets scaled x0.70 to x1.30 in steps of 0.05, then
100 random 5-quote strips at 1/3/5/7/10y (numpy seed 20091016; the last 30
are non-monotone): 152 strips, each fitted under the postponed and the exact
payoff, so 304 fits per model and 912 in all, on a flat 3% curve with
recovery 0.4 and H1 = 0.4.  Each line holds the strip, the convention and
the model, then the fitted parameters, pillar survivals, repricing errors,
warnings and diagnostics (the SBTV step-1 ones included), or the error a
fit raised.  Run it on two checkouts and compare the outputs line by line
to check that a change keeps the fits and their repricing:

    PYTHONPATH=src python scripts/calibration_traffic.py > traffic.jsonl

--strips N keeps the first N strips of the traffic (both conventions each).
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from fpcredit import (CdsQuote, CdsQuoteStrip, DiscountCurve, FpcreditError,
                      bootstrap_intensity, calibrate_at1p, calibrate_sbtv)
from fpcredit.presets import STRIP_PRESETS, preset_strip

TENORS = (1.0, 3.0, 5.0, 7.0, 10.0)
SEED = 20091016
FITS = (("intensity", bootstrap_intensity), ("at1p", calibrate_at1p), ("sbtv", calibrate_sbtv))


def scaled(strip: CdsQuoteStrip, factor: float) -> CdsQuoteStrip:
    return dataclasses.replace(strip, quotes=tuple(
        CdsQuote(q.tenor, q.spread_bp * factor) for q in strip.quotes))


def random_spreads(rng, monotone: bool) -> list[float]:
    """Five spreads from a log-uniform 1y level in [10, 1000] bp: each next one
    is the last times exp(u), u uniform in [0, 0.4] (rising) or [-0.25, 0]
    (falling) when `monotone`, else in [-0.15, 0.3] with both signs."""
    while True:
        if monotone:
            steps = rng.uniform(0.0, 0.4, 4) * (1.0 if rng.random() < 0.5 else -0.625)
        else:
            steps = rng.uniform(-0.15, 0.3, 4)
        if monotone or (steps.min() < 0 < steps.max()):
            level = np.exp(rng.uniform(np.log(10.0), np.log(1000.0)))
            return (level * np.exp(np.concatenate(([0.0], steps.cumsum())))).tolist()


def traffic():
    """(label, strip) pairs: the scaled presets, then the random strips."""
    for name in STRIP_PRESETS:
        for factor in np.round(np.arange(0.70, 1.30 + 1e-9, 0.05), 2):
            yield f"{name}x{factor:.2f}", scaled(preset_strip(name), float(factor))
    rng = np.random.default_rng(SEED)
    for i in range(100):
        spreads = random_spreads(rng, monotone=i < 70)
        yield f"random-{i}", CdsQuoteStrip(tuple(CdsQuote(t, s) for t, s in zip(TENORS, spreads)))


def fit_line(label, strip, convention, model, fit, curve) -> dict:
    line = {"strip": label, "convention": convention, "model": model,
            "spreads_bp": strip.spreads_bp}
    try:
        _, report = fit(strip, curve, convention=convention)
    except FpcreditError as exc:
        return {**line, "error": f"{type(exc).__name__}: {exc}"}
    return {**line, "parameters": report.parameters,
            "pillar_survivals": report.pillar_survivals,
            "repricing_errors_bp": report.repricing_errors_bp, "warnings": report.warnings,
            "diagnostics": report.diagnostics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--strips", type=int, default=None,
                        help="fit only the first N strips of the traffic")
    args = parser.parse_args(argv)
    curve = DiscountCurve(flat_rate=0.03)
    strips = list(traffic())[:args.strips]
    for label, strip in strips:
        for convention in ("postponed", "exact"):
            for model, fit in FITS:
                print(json.dumps(fit_line(label, strip, convention, model, fit, curve)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
