"""Command-line interface: calibrate quote strips, price CDS off saved
parameters, and run the equity-return-swap counterparty-risk study.

Reports are JSON with stable field ordering; human-readable tables go to
stdout.  Every report embeds the full effective configuration (after
preset expansion, with a checksum) so a run can be reproduced from the
report alone.

Exit codes: 0 clean, 2 completed with warnings, 1 failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .calibration import bootstrap_intensity, calibrate_at1p, calibrate_sbtv
from .cds import CdsContract, cds_price, fair_spread
from .curves import DiscountCurve, make_schedule
from .errors import DomainError, FpcreditError
from .mc import (ErsPricingResult, SimulationConfig, ers_fair_spread,
                 make_ers_contract)
from .presets import (ERS_CONTRACT_TERMS, ERS_PRESET_NAME, PRESET_VERSION,
                      STRIP_PRESETS, preset_checksum, preset_strip)
from .quotes import read_quote_csv
from .survival import At1pParams, HazardCurve, SbtvParams

PARAMETER_CLASSES = {"intensity": HazardCurve, "at1p": At1pParams, "sbtv": SbtvParams}
CALIBRATION_MODELS = tuple(PARAMETER_CLASSES)


@dataclass
class RunConfig:
    """Effective run configuration, echoed verbatim into every report."""

    flat_rate: float = 0.03
    pillars: list | None = None
    h1: float = 0.4
    b: float = 0.0
    recovery: float = 0.40
    convention: str = "postponed"
    preset: str | None = None
    preset_version: str | None = None
    preset_checksum: str | None = None
    quotes_file: str | None = None
    simulation: dict | None = None
    tool_version: str = __version__

    def curve(self) -> DiscountCurve:
        if self.pillars is not None:
            return DiscountCurve(pillars=self.pillars)
        return DiscountCurve(flat_rate=self.flat_rate)


def _load_strip(args, config: RunConfig):
    if args.preset:
        if args.preset not in STRIP_PRESETS:
            raise DomainError(f"unknown preset {args.preset!r}; available: {sorted(STRIP_PRESETS)}")
        config.preset = args.preset
        config.preset_version = PRESET_VERSION
        config.preset_checksum = preset_checksum(args.preset)
        return preset_strip(args.preset, recovery=args.recovery)
    if args.quotes:
        config.quotes_file = str(args.quotes)
        return read_quote_csv(Path(args.quotes).read_text(encoding="utf-8"),
                              recovery=args.recovery)
    raise DomainError("provide either --preset or --quotes")


def _out_path(path_arg: str | None, default_name: str) -> Path | None:
    if path_arg is None and "FPCREDIT_OUT_DIR" not in os.environ:
        return None
    out_dir = Path(os.environ.get("FPCREDIT_OUT_DIR", "."))
    path = Path(path_arg) if path_arg else out_dir / default_name
    if not path.parent.is_dir():
        raise DomainError(f"output directory does not exist: {path.parent}")
    return path


def _write_report(report: dict, path: Path | None):
    text = json.dumps(report, indent=2)
    if path is not None:
        path.write_text(text + "\n", encoding="utf-8")
        print(f"report written to {path}")


def _load_calibration(path: Path, model: str):
    """A model's parameters and the run configuration from a saved calibration report."""
    if not path.exists():
        raise DomainError(f"parameter file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise DomainError(f"{path} is not a JSON file: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema_version") != "1" \
            or doc.get("kind") != "calibration":
        raise DomainError(f'{path} is not a calibration report with schema_version "1"')
    models = doc.get("models")
    if not isinstance(models, dict) or model not in models:
        raise DomainError(f"model {model!r} not present in {path}")
    try:
        params = PARAMETER_CLASSES[model].from_dict(models[model]["parameters"])
        config = RunConfig(**doc["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"{path}: malformed calibration report ({exc!r})") from None
    return params, config


def _calibrate_one(model: str, strip, curve, config: RunConfig):
    if model == "intensity":
        return bootstrap_intensity(strip, curve, config.convention)
    if model == "at1p":
        return calibrate_at1p(strip, curve, config.h1, config.b, config.convention)
    if model == "sbtv":
        return calibrate_sbtv(strip, curve, config.h1, config.b, config.convention)
    raise DomainError(f"unknown model {model!r}")


def cmd_calibrate(args) -> int:
    config = RunConfig(flat_rate=args.flat_rate, h1=args.h1, b=args.b,
                       recovery=args.recovery, convention=args.convention)
    out_path = _out_path(args.out, "calibration.json")
    strip = _load_strip(args, config)
    curve = config.curve()
    models = CALIBRATION_MODELS if args.model == "all" else (args.model,)
    sections = {}
    warnings = []
    for model in models:
        params, report = _calibrate_one(model, strip, curve, config)
        report.config = asdict(config)
        sections[model] = report.as_dict()
        warnings.extend(f"{model}: {w}" for w in report.warnings)
        print(f"[{model}] max |repricing error| = "
              f"{max(abs(e) for e in report.repricing_errors_bp):.2e} bp")
    doc = {"schema_version": "1", "kind": "calibration", "config": asdict(config),
           "models": sections}
    if len(models) > 1:
        tenors = strip.tenors
        comparison = {"tenors": tenors}
        for model in models:
            comparison[model] = sections[model]["pillar_survivals"]
        doc["survival_comparison"] = comparison
        print(f"{'tenor':>6} " + " ".join(f"{m:>10}" for m in models))
        for i, t in enumerate(tenors):
            row = " ".join(f"{sections[m]['pillar_survivals'][i]:10.4%}" for m in models)
            print(f"{t:6.1f} {row}")
    _write_report(doc, out_path)
    if any(not sections[m]["exact"] for m in models):
        return 1
    return 2 if warnings else 0


def cmd_price_cds(args) -> int:
    params, config = _load_calibration(Path(args.params), args.model)
    curve = config.curve()
    schedule = make_schedule(0.0, args.tenor, 4)
    contract = CdsContract(schedule=schedule, spread=args.spread_bp * 1e-4,
                           recovery=config.recovery)
    fair = fair_spread(schedule, curve, params, config.recovery, config.convention)
    print(f"model {args.model}, tenor {args.tenor}y, spread {args.spread_bp} bp")
    for convention in ("postponed", "exact"):
        price = cds_price(contract, curve, params, convention)
        print(f"  price ({convention}): {price * 1e4:.4f} bp of notional")
    print(f"  fair spread ({config.convention}): {fair * 1e4:.4f} bp")
    return 0


def cmd_price_ers(args) -> int:
    sim = SimulationConfig(n_paths=args.paths, rng_seed=args.seed,
                           control_variate=not args.no_control_variate)
    config = RunConfig(flat_rate=args.flat_rate, h1=args.h1, b=args.b,
                       recovery=args.recovery, convention=args.convention,
                       simulation=asdict(sim))
    out_path = _out_path(args.out, "ers_pricing.json")
    try:
        rhos = [float(r) for r in args.rho.split(",")]
    except ValueError:
        raise DomainError(f"--rho must be comma-separated numbers, got {args.rho!r}") from None
    strip = _load_strip(args, config)
    curve = config.curve()
    models = [m.strip() for m in args.models.split(",")]
    terms = dict(ERS_CONTRACT_TERMS)
    terms.pop("quote_date", None)

    calibrated = {m: _calibrate_one(m, strip, curve, config)[0] for m in models}
    table: dict = {m: {} for m in models}
    low_stats = False
    print(f"{'rho':>6} " + " ".join(f"{m:>16}" for m in models))
    for rho in rhos:
        row = []
        for model in models:
            ers = make_ers_contract(rho=rho, **{k: v for k, v in terms.items()
                                                if k != "quote_date"})
            result: ErsPricingResult = ers_fair_spread(calibrated[model], ers, curve, sim)
            table[model][str(rho)] = result.as_dict()
            low_stats = low_stats or result.diagnostics.get("low_statistics", False)
            row.append(f"{result.fair_spread_bp:7.2f}+-{result.std_error_bp:5.2f}")
        print(f"{rho:6.2f} " + " ".join(f"{cell:>16}" for cell in row))
    doc = {"schema_version": "1", "kind": "ers-pricing", "config": asdict(config),
           "contract": terms, "rhos": rhos, "results": table}
    _write_report(doc, out_path)
    return 2 if low_stats else 0


def _add_strip_options(p):
    p.add_argument("--preset", help=f"named preset: {', '.join(sorted(STRIP_PRESETS))}")
    p.add_argument("--quotes", help="CSV file: tenor_years,spread_bp[,bid_bp,ask_bp]")
    p.add_argument("--flat-rate", type=float, default=0.03,
                   help="flat continuously-compounded discount rate (default 0.03)")
    p.add_argument("--h1", type=float, default=0.4, help="barrier fraction H (default 0.4)")
    p.add_argument("--b", type=float, default=0.0, help="barrier-volatility exponent (default 0)")
    p.add_argument("--recovery", type=float, default=0.40)
    p.add_argument("--convention", choices=("postponed", "exact"), default="postponed")
    p.add_argument("--out", help="output JSON path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fpcredit",
                                     description="First-passage credit models: CDS "
                                                 "calibration and ERS counterparty risk")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cal = sub.add_parser("calibrate", help="calibrate a model to a CDS quote strip")
    _add_strip_options(p_cal)
    p_cal.add_argument("--model", choices=CALIBRATION_MODELS + ("all",), default="all")
    p_cal.set_defaults(func=cmd_calibrate)

    p_cds = sub.add_parser("price-cds", help="price a CDS off a saved calibration report")
    p_cds.add_argument("--params", required=True, help="calibration report JSON")
    p_cds.add_argument("--model", choices=CALIBRATION_MODELS, required=True)
    p_cds.add_argument("--spread-bp", type=float, required=True)
    p_cds.add_argument("--tenor", type=float, required=True)
    p_cds.set_defaults(func=cmd_price_cds)

    p_ers = sub.add_parser("price-ers", help="fair ERS spread under counterparty risk")
    _add_strip_options(p_ers)
    p_ers.add_argument("--rho", default="-1,-0.2,0,0.5,1", help="comma-separated correlations")
    p_ers.add_argument("--models", default="at1p,sbtv,intensity")
    p_ers.add_argument("--paths", type=int, default=100_000)
    p_ers.add_argument("--seed", type=int, default=20090916)
    p_ers.add_argument("--no-control-variate", action="store_true")
    p_ers.set_defaults(func=cmd_price_ers)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FpcreditError, OSError, UnicodeDecodeError) as exc:  # bad input or file
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
