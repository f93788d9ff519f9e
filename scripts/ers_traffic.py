#!/usr/bin/env python3
"""Price a fixed grid of ERS cells and print one JSON line per cell.

The grid is 2 presets (ers-paper-2009-09-16 and lehman-2008-09-12) x 3
models (at1p, sbtv, intensity) x rho in {-1, -0.2, 0, 0.5, 1} x 3 seeds
(20090916, 4244, 7): 90 cells.  Each model is fitted once per preset under
the postponed payoff, on a flat 3% curve with H1 = 0.4 and b = 0, and each
cell prices the contract of the ERS study on 10^5 paths, as `fpcredit
price-ers` does.  Each line holds the preset, seed, model and rho, then the
`ErsPricingResult.as_dict()` of the cell, or the error it raised.  Run it
on two checkouts and compare the outputs line by line to check that a
change keeps the prices:

    PYTHONPATH=src python scripts/ers_traffic.py > ers.jsonl

--paths N prices each cell on N paths; --seeds N keeps the first N seeds.
"""

import argparse
import json
import sys

from fpcredit import (DiscountCurve, FpcreditError, SimulationConfig, bootstrap_intensity,
                      calibrate_at1p, calibrate_sbtv, ers_fair_spread, make_ers_contract)
from fpcredit.presets import ERS_CONTRACT_TERMS, ERS_PRESET_NAME, preset_strip

PRESETS = (ERS_PRESET_NAME, "lehman-2008-09-12")
FITS = (("at1p", calibrate_at1p), ("sbtv", calibrate_sbtv), ("intensity", bootstrap_intensity))
RHOS = (-1.0, -0.2, 0.0, 0.5, 1.0)
SEEDS = (20090916, 4244, 7)


def cell_line(preset, seed, model_name, model, rho, contract, curve, n_paths) -> dict:
    line = {"preset": preset, "seed": seed, "model": model_name, "rho": rho}
    try:
        result = ers_fair_spread(model, contract, curve,
                                 SimulationConfig(n_paths=n_paths, rng_seed=seed))
    except FpcreditError as exc:
        return {**line, "error": f"{type(exc).__name__}: {exc}"}
    return {**line, "result": result.as_dict()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--paths", type=int, default=100_000, help="paths per cell")
    parser.add_argument("--seeds", type=int, default=None,
                        help="price only the first N seeds of the grid")
    args = parser.parse_args(argv)
    curve = DiscountCurve(flat_rate=0.03)
    contracts = [(rho, make_ers_contract(rho=rho, **ERS_CONTRACT_TERMS)) for rho in RHOS]
    for preset in PRESETS:
        strip = preset_strip(preset)
        models = [(name, fit(strip, curve, convention="postponed")[0]) for name, fit in FITS]
        for seed in SEEDS[:args.seeds]:
            # model by model, so the sampler draws each model's firm paths once per seed
            for name, model in models:
                for rho, contract in contracts:
                    print(json.dumps(cell_line(preset, seed, name, model, rho, contract, curve,
                                               args.paths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
