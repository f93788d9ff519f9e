"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL line
with the measured numbers, so the suite output doubles as a sign-off
sheet.  All runtimes are asserted at desk scale.
"""

import json
import math
import time

import numpy as np
import pytest

from fpcredit import (At1pParams, DiscountCurve, SimulationConfig,
                      VolatilityTermStructure, at1p_survival,
                      bootstrap_intensity, calibrate_at1p, calibrate_sbtv,
                      ers_cva_term, ers_fair_spread, ers_fair_spread_from_paths,
                      fair_spread, make_ers_contract, make_schedule, sbtv_survival,
                      simulate_joint_paths)
from fpcredit.calibration import pillar_contract
from fpcredit.cds import cds_price, CdsContract
from fpcredit.cli import main as cli_main
from fpcredit.presets import preset_strip
from fpcredit.survival import survival
from oracles import ers_npv_at_default_termwise, npv_three_term

LEHMAN_PRESETS = ("lehman-2007-07-10", "lehman-2008-06-12", "lehman-2008-09-12")
MODELS = ("intensity", "at1p", "sbtv")
RHOS = (-1.0, -0.2, 0.0, 0.5, 1.0)

# published pillar survival columns (percent), one row per preset
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
PUBLISHED_ERS_SPREADS_BP = {
    "at1p": (0.0, 3.0, 5.5, 14.7, 24.9),
    "sbtv": (0.0, 3.6, 5.5, 11.4, 17.9),
}
PUBLISHED_INTENSITY_ERS_BP = 5.5
SBTV_TRAJECTORY = {"h2": (0.7313, 0.7971, 0.8427), "p2": (0.038, 0.254, 0.500)}


def report_line(criterion: str, ok: bool, detail: str):
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def ers_sweep(ers_calibrations, flat_curve):
    """One 10^5-path run per (model, rho) on the study strip, paired seeds.

    Both the control-variate and the plain estimator are evaluated on the
    same paths so the variance-reduction criterion uses a paired design.
    """
    cfg = SimulationConfig(n_paths=100_000, rng_seed=20090916)
    t0 = time.perf_counter()
    out = {"cfg": cfg, "results": {}, "estimates": {}}
    for model_name in ("at1p", "sbtv"):
        model = ers_calibrations[model_name]
        for rho in RHOS:
            ers = make_ers_contract(rho=rho)
            paths = simulate_joint_paths(model, ers, cfg)
            result = ers_fair_spread_from_paths(paths, ers, flat_curve)
            x = result.fair_spread_bp * 1e-4
            est = ers_cva_term(paths, ers, flat_curve, x)
            out["results"][(model_name, rho)] = result
            out["estimates"][(model_name, rho)] = est
    out["intensity_rho0"] = ers_fair_spread(
        ers_calibrations["intensity"], make_ers_contract(rho=0.0), flat_curve, cfg)
    out["elapsed"] = time.perf_counter() - t0
    return out


class TestCriterion1ExactFit:
    def test_every_pillar_reprices_within_tolerance(self, flat_curve):
        t0 = time.perf_counter()
        worst = 0.0
        for name in LEHMAN_PRESETS:
            strip = preset_strip(name)
            for fn in (bootstrap_intensity, calibrate_at1p, calibrate_sbtv):
                _, rep = fn(strip, flat_curve)
                worst = max(worst, max(abs(e) for e in rep.repricing_errors_bp))
        elapsed = time.perf_counter() - t0
        ok = worst < 0.01 and elapsed < 5.0
        report_line("criterion 1", ok,
                    f"max |repricing error| {worst:.2e} bp over 3 strips x 3 models, "
                    f"{elapsed:.2f} s (< 5 s)")
        assert worst < 0.01
        assert elapsed < 5.0


class TestCriterion2SurvivalReproduction:
    @pytest.mark.parametrize("name", LEHMAN_PRESETS)
    def test_pillar_survivals_match_published_columns(self, name, lehman_calibrations):
        worst = 0.0
        for model in MODELS:
            _, rep = lehman_calibrations[name][model]
            got = np.array(rep.pillar_survivals) * 100
            worst = max(worst, np.max(np.abs(got - PUBLISHED_SURVIVALS[name][model])))
        ok = worst < 1.0
        report_line("criterion 2 (reproduction)", ok,
                    f"{name}: max |survival - published| {worst:.3f}% (< 1.0%)")
        assert ok

    @pytest.mark.parametrize("name", LEHMAN_PRESETS)
    def test_at1p_and_intensity_mutually_agree(self, name, lehman_calibrations):
        # the postponed-payoff CDS price is not exactly model independent:
        # at distressed spread levels (the 2008-09-12 strip) the implied
        # pillar survivals of the two models separate by ~0.8% absolute,
        # and the published tables show the same rounded gap, so the 0.2%
        # band cannot hold there
        entry = lehman_calibrations[name]
        gap = float(np.max(np.abs(
            np.array(entry["at1p"][1].pillar_survivals)
            - np.array(entry["intensity"][1].pillar_survivals)))) * 100
        ok = gap < 0.2
        report_line("criterion 2 (mutual agreement)", ok,
                    f"{name}: max |AT1P - intensity| {gap:.3f}% (< 0.2%)")
        assert ok


class TestCriterion3VolatilityShape:
    def test_first_bucket_dominates_2007(self, lehman_calibrations):
        params, _ = lehman_calibrations["lehman-2007-07-10"]["at1p"]
        drop = (params.vols.sigmas[0] - params.vols.sigmas[1]) * 100
        ok = drop > 10.0
        report_line("criterion 3 (first bucket)", ok,
                    f"2007 AT1P sigma1 - sigma2 = {drop:.1f}% (> 10%)")
        assert ok

    def test_sbtv_term_structure_flatter_on_all_presets(self, lehman_calibrations):
        details = []
        ok = True
        for name in LEHMAN_PRESETS:
            sd_a = float(np.std(lehman_calibrations[name]["at1p"][0].vols.sigmas))
            sd_s = float(np.std(lehman_calibrations[name]["sbtv"][0].vols.sigmas))
            ok = ok and sd_s < sd_a
            details.append(f"{name}: {sd_s:.4f} < {sd_a:.4f}")
        report_line("criterion 3 (stability)", ok, "; ".join(details))
        assert ok


class TestCriterion4ScenarioTrajectory:
    def test_scenario_path_through_the_crisis(self, lehman_calibrations):
        h2s, p2s = [], []
        for name in LEHMAN_PRESETS:
            params, _ = lehman_calibrations[name]["sbtv"]
            (_, _), (h2, p2) = params.scenarios
            h2s.append(h2)
            p2s.append(p2)
        ok = (h2s == sorted(h2s) and p2s == sorted(p2s)
              and all(abs(h - t) < 0.03 for h, t in zip(h2s, SBTV_TRAJECTORY["h2"]))
              and all(abs(p - t) < 0.03 for p, t in zip(p2s, SBTV_TRAJECTORY["p2"])))
        report_line("criterion 4", ok,
                    "H2 = " + ", ".join(f"{h:.4f}" for h in h2s)
                    + "; p2 = " + ", ".join(f"{p:.3f}" for p in p2s)
                    + " (non-decreasing, within 0.03 of published)")
        assert ok


class TestCriterion5McVsClosedForm:
    def test_default_probability_within_three_standard_errors(
            self, ers_calibrations, lehman_calibrations):
        t0 = time.perf_counter()
        cfg = SimulationConfig(n_paths=100_000, rng_seed=20090916)
        ers = make_ers_contract(rho=0.0)
        cases = [("at1p flat 20%", At1pParams(
            0.4, 0.0, VolatilityTermStructure((30.0,), (0.20,))))]
        cases += [(f"sbtv {name}", lehman_calibrations[name]["sbtv"][0])
                  for name in LEHMAN_PRESETS]
        details, ok = [], True
        for label, model in cases:
            paths = simulate_joint_paths(model, ers, cfg)
            pd_cf = paths.default_prob_closed_form
            pd_mc = paths.tau.size / paths.n_paths
            se = math.sqrt(max(pd_cf * (1 - pd_cf), 1e-12) / cfg.n_paths)
            z = abs(pd_mc - pd_cf) / se
            ok = ok and z < 3.0
            details.append(f"{label}: |{pd_mc:.4f} - {pd_cf:.4f}| = {z:.2f} SE")
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed < 60.0
        report_line("criterion 5", ok, "; ".join(details) + f"; {elapsed:.1f} s (< 60 s)")
        assert ok


class TestCriterion6ErsTable:
    def test_fair_spreads_reproduce_published_table(self, ers_sweep):
        details, ok = [], True
        for model_name, targets in PUBLISHED_ERS_SPREADS_BP.items():
            for rho, target in zip(RHOS, targets):
                r = ers_sweep["results"][(model_name, rho)]
                tol = max(1.5, 3 * r.std_error_bp)
                err = abs(r.fair_spread_bp - target)
                ok = ok and err <= tol
                details.append(f"{model_name} rho={rho:+.1f}: "
                               f"{r.fair_spread_bp:.2f} vs {target} (+-{tol:.2f})")
        report_line("criterion 6 (table)", ok, "; ".join(details))
        assert ok

    def test_monotone_in_correlation_on_paired_seeds(self, ers_sweep):
        ok = True
        for model_name in ("at1p", "sbtv"):
            spreads = [ers_sweep["results"][(model_name, rho)].fair_spread_bp
                       for rho in RHOS]
            ok = ok and all(b > a for a, b in zip(spreads, spreads[1:]))
        report_line("criterion 6 (monotonicity)", ok,
                    "fair spread strictly increasing in rho for both models "
                    "at the shared seed")
        assert ok

    def test_intensity_anchor_at_independence(self, ers_sweep):
        r_int = ers_sweep["intensity_rho0"]
        ok = abs(r_int.fair_spread_bp - PUBLISHED_INTENSITY_ERS_BP) <= 1.0
        details = [f"intensity X(0) = {r_int.fair_spread_bp:.2f} bp "
                   f"(published {PUBLISHED_INTENSITY_ERS_BP} +- 1.0)"]
        for model_name in ("at1p", "sbtv"):
            r = ers_sweep["results"][(model_name, 0.0)]
            joint = 3 * math.hypot(r.std_error_bp, r_int.std_error_bp)
            gap = abs(r.fair_spread_bp - r_int.fair_spread_bp)
            ok = ok and gap <= joint
            details.append(f"vs {model_name}: |{gap:.2f}| <= {joint:.2f}")
        report_line("criterion 6 (anchor)", ok, "; ".join(details))
        assert ok

    def test_runtime_budget(self, ers_sweep):
        ok = ers_sweep["elapsed"] < 300.0
        report_line("criterion 6 (runtime)", ok,
                    f"full sweep {ers_sweep['elapsed']:.1f} s (< 300 s)")
        assert ok


class TestCriterion7VarianceReduction:
    def test_control_variate_beats_plain_on_every_scenario(self, ers_sweep):
        ok = True
        worst_ratio, worst_z = 0.0, 0.0
        for model_name in ("at1p", "sbtv"):
            for rho in RHOS:
                est = ers_sweep["estimates"][(model_name, rho)]
                if est.plain_std_error == 0.0:
                    continue  # degenerate no-default cell (rho = -1)
                ok = ok and est.std_error < est.plain_std_error
                worst_ratio = max(worst_ratio, est.std_error / est.plain_std_error)
                joint = 3 * math.hypot(est.std_error, est.plain_std_error)
                z = abs(est.value - est.plain_value) / joint if joint else 0.0
                ok = ok and z <= 1.0
                worst_z = max(worst_z, z)
        report_line("criterion 7", ok,
                    f"paired seeds: worst SE ratio {worst_ratio:.3f} (< 1), "
                    f"worst |cv - plain| {worst_z:.2f} x joint 3 SE")
        assert ok


class TestCriterion8Properties:
    def test_survival_monotonicity_and_bounds(self, lehman_calibrations):
        ts = np.linspace(0.0, 12.0, 241)
        ok = True
        for name in LEHMAN_PRESETS:
            for model in MODELS:
                q = np.asarray(survival(
                    lehman_calibrations[name][model][0], ts), dtype=float)
                ok = ok and q[0] == 1.0 and np.all(np.diff(q) <= 1e-15)
                ok = ok and np.all((0.0 <= q) & (q <= 1.0))
        report_line("criterion 8 (survival curves)", ok,
                    "all calibrated curves start at 1, non-increasing, in [0, 1]")
        assert ok

    def test_barrier_homogeneity(self):
        # the ratios differ only by floating-point round-off in forming
        # (c*H*V0)/(c*V0), so the survivals must agree to ~1 ulp-scale noise
        vols = VolatilityTermStructure((30.0,), (0.3,))
        ok = all(
            at1p_survival(At1pParams((h * v0) / v0, 0.0, vols), t)
            == pytest.approx(
                at1p_survival(At1pParams((h * 3 * v0) / (3 * v0), 0.0, vols), t),
                rel=1e-12, abs=1e-15)
            for h in (0.2, 0.6, 0.9) for v0 in (0.5, 7.0) for t in (0.5, 5.0))
        report_line("criterion 8 (homogeneity)", ok,
                    "survival depends on H and V0 only through H/V0")
        assert ok

    def test_sbtv_convexity(self, lehman_calibrations):
        ok = True
        for name in LEHMAN_PRESETS:
            params, _ = lehman_calibrations[name]["sbtv"]
            for t in (0.5, 3.0, 9.5):
                qs = [at1p_survival(At1pParams(h, params.b, params.vols), t)
                      for h, _ in params.scenarios]
                q = sbtv_survival(params, t)
                ok = ok and min(qs) - 1e-15 <= q <= max(qs) + 1e-15
        report_line("criterion 8 (convexity)", ok,
                    "mixture survival lies between scenario survivals")
        assert ok

    def test_cds_price_affine_in_spread(self, lehman_calibrations, flat_curve):
        surv = lehman_calibrations["lehman-2008-06-12"]["at1p"][0]
        sched = make_schedule(0.0, 5.0, 4)
        p0 = cds_price(CdsContract(sched, 0.0, 0.4), flat_curve, surv, "postponed")
        p1 = cds_price(CdsContract(sched, 0.01, 0.4), flat_curve, surv, "postponed")
        worst = max(abs(cds_price(CdsContract(sched, r, 0.4), flat_curve, surv, "postponed")
                        - (p0 + (p1 - p0) * r / 0.01))
                    for r in (0.0005, 0.0277, 0.15))
        ok = worst < 1e-12
        report_line("criterion 8 (affinity)", ok,
                    f"max interpolation residual {worst:.2e} (< 1e-12)")
        assert ok

    def test_bootstrap_locality(self, flat_curve):
        from fpcredit import CdsQuote, CdsQuoteStrip
        base = CdsQuoteStrip(quotes=tuple(
            CdsQuote(t, s) for t, s in zip((1.0, 3.0, 5.0), (50.0, 80.0, 100.0))))
        bumped = CdsQuoteStrip(quotes=tuple(
            CdsQuote(t, s) for t, s in zip((1.0, 3.0, 5.0), (50.0, 80.0, 140.0))))
        ok = True
        for fn in (bootstrap_intensity, calibrate_at1p):
            pa, _ = fn(base, flat_curve)
            pb, _ = fn(bumped, flat_curve)
            va = pa.lambdas if hasattr(pa, "lambdas") else pa.vols.sigmas
            vb = pb.lambdas if hasattr(pb, "lambdas") else pb.vols.sigmas
            ok = ok and va[:2] == vb[:2] and va[2] != vb[2]
        report_line("criterion 8 (locality)", ok,
                    "bumping the last quote moves only the last bucket")
        assert ok

    def test_seed_determinism_bit_identical_reports(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code = cli_main(["price-ers", "--preset", "ers-paper-2009-09-16",
                             "--models", "at1p", "--rho", "0.5", "--paths", "20000",
                             "--seed", "20090916", "--out", str(p)])
            assert code in (0, 2)
        capsys.readouterr()
        identical = paths[0].read_bytes() == paths[1].read_bytes()
        json.loads(paths[0].read_text())  # and it is valid JSON
        report_line("criterion 8 (determinism)", identical,
                    "repeated runs at a fixed seed produce byte-identical reports")
        assert identical

    def test_npv_simplified_equals_termwise_oracle(self, flat_curve):
        ers = make_ers_contract(rho=0.3)
        pillar_curve = DiscountCurve(pillars=((1.0, 0.97), (3.0, 0.90), (6.0, 0.80)))
        worst = 0.0
        for curve in (flat_curve, pillar_curve):
            for tau in (0.1, 1.0, 2.5, 4.99):
                for s_tau in (11.0, 20.0, 29.0):
                    for x in (0.0, 0.0025):
                        worst = max(worst, abs(
                            npv_three_term(tau, s_tau, ers, curve, x)
                            - ers_npv_at_default_termwise(tau, s_tau, ers, curve, x)))
        ok = worst < 1e-10
        report_line("criterion 8 (NPV oracle)", ok,
                    f"max |simplified - termwise| {worst:.2e} (< 1e-10)")
        assert ok
