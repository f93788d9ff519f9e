import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fpcredit import (CalibrationError, CdsContract, CdsQuote, CdsQuoteStrip,
                      DegenerateInputError, DiscountCurve, DomainError,
                      VolatilityTermStructure, bootstrap_intensity, calibrate_at1p,
                      calibrate_sbtv, cds_price, fair_spread, leg_grid, make_schedule)
import fpcredit
from fpcredit import calibration, cds
from fpcredit.calibration import _sbtv_step1, _strip_legs, pillar_contract
from fpcredit.presets import STRIP_PRESETS, preset_strip
from fpcredit.survival import At1pParams, HazardCurve, SbtvParams, survival
from oracles import trf_polish

# published calibration outputs for the three dated strips
PUBLISHED = {
    "lehman-2007-07-10": {
        "lambdas_pct": [0.267, 0.601, 1.217, 1.096, 1.407],
        "at1p_sigmas_pct": [29.2, 14.0, 14.5, 12.0, 12.7],
        "at1p_surv_pct": [99.7, 98.5, 96.1, 94.1, 90.2],
        "h2": 0.7313, "p1": 0.962, "sigma_bar": 0.166,
    },
    "lehman-2008-06-12": {
        "lambdas_pct": [6.563, 4.440, 3.411, 3.207, 2.907],
        "at1p_sigmas_pct": [45.0, 21.9, 18.6, 18.1, 17.5],
        "at1p_surv_pct": [93.5, 85.6, 79.9, 75.0, 68.7],
        "h2": 0.7971, "p1": 0.746, "sigma_bar": 0.187,
    },
    "lehman-2008-09-12": {
        "lambdas_pct": [23.260, 9.248, 5.245, 5.947, 6.422],
        "at1p_sigmas_pct": [62.2, 30.8, 24.3, 26.9, 29.5],
        "at1p_surv_pct": [78.4, 65.5, 59.1, 52.5, 43.4],
        "h2": 0.8427, "p1": 0.500, "sigma_bar": 0.196,
    },
}


def small_strip(spreads_bp, tenors=(1.0, 3.0, 5.0), recovery=0.4):
    return CdsQuoteStrip(
        quotes=tuple(CdsQuote(t, s) for t, s in zip(tenors, spreads_bp)),
        recovery=recovery)


def sbtv_step1(strip, curve, convention, h1=0.4):
    """SBTV step 1, with b = 0, on the strip's one leg grid, as `calibrate_sbtv` runs it."""
    return _sbtv_step1(strip, _strip_legs(strip, curve, convention), h1, 0.0)


class TestIntensityBootstrap:
    def test_2007_intensities_at_period_rates(self):
        # short rates around the July 2007 quote date were near 5%; with a
        # 5% flat curve the fitted intensities land on the reported values
        strip = preset_strip("lehman-2007-07-10")
        hazard, report = bootstrap_intensity(strip, DiscountCurve(flat_rate=0.05))
        expected = PUBLISHED["lehman-2007-07-10"]["lambdas_pct"]
        assert np.allclose(np.array(hazard.lambdas) * 100, expected, atol=0.03)
        assert report.exact

    @pytest.mark.parametrize("name", sorted(PUBLISHED))
    def test_exact_repricing(self, name, lehman_calibrations):
        _, report = lehman_calibrations[name]["intensity"]
        assert max(abs(e) for e in report.repricing_errors_bp) < 0.01

    def test_single_quote_credit_triangle(self, flat_curve):
        strip = CdsQuoteStrip(quotes=(CdsQuote(5.0, 120.0),), recovery=0.4)
        hazard, _ = bootstrap_intensity(strip, flat_curve)
        assert hazard.lambdas[0] == pytest.approx(0.0120 / 0.6, rel=0.02)

    def test_zero_spread_strip_gives_zero_hazard(self, flat_curve):
        strip = small_strip([0.0, 0.0, 0.0])
        hazard, _ = bootstrap_intensity(strip, flat_curve)
        assert hazard.lambdas == (0.0, 0.0, 0.0)

    def test_unattainable_quote_raises_with_diagnostics(self, flat_curve):
        strip = CdsQuoteStrip(quotes=(CdsQuote(1.0, 500000.0),), recovery=0.4)
        with pytest.raises(CalibrationError) as err:
            bootstrap_intensity(strip, flat_curve)
        assert "tenor" in err.value.diagnostics


class TestAt1pCalibration:
    @pytest.mark.parametrize("name", sorted(PUBLISHED))
    def test_published_volatilities_and_survivals(self, name, lehman_calibrations):
        params, report = lehman_calibrations[name]["at1p"]
        expected = PUBLISHED[name]
        assert np.allclose(np.array(params.vols.sigmas) * 100,
                           expected["at1p_sigmas_pct"], atol=1.5)
        tol = 0.5 if name == "lehman-2007-07-10" else 1.0
        assert np.allclose(np.array(report.pillar_survivals) * 100,
                           expected["at1p_surv_pct"], atol=tol)
        assert max(abs(e) for e in report.repricing_errors_bp) < 0.01

    def test_sept_2008_first_bucket(self, lehman_calibrations):
        params, report = lehman_calibrations["lehman-2008-09-12"]["at1p"]
        assert params.vols.sigmas[0] == pytest.approx(0.622, abs=0.03)
        assert np.allclose(np.array(report.pillar_survivals) * 100,
                           [78.4, 65.5, 59.1, 52.5, 43.4], atol=1.0)

    def test_zero_spread_strip_degenerate(self, flat_curve):
        params, report = calibrate_at1p(small_strip([0.0, 0.0, 0.0]), flat_curve)
        assert all(s <= 1e-4 for s in params.vols.sigmas)
        assert any("bracket bound" in w for w in report.warnings)
        assert all(q > 1 - 1e-9 for q in report.pillar_survivals)

    def test_bootstrap_locality(self, flat_curve):
        base = small_strip([50.0, 80.0, 100.0], tenors=(1.0, 3.0, 5.0))
        bumped = small_strip([50.0, 80.0, 140.0], tenors=(1.0, 3.0, 5.0))
        pa, _ = calibrate_at1p(base, flat_curve)
        pb, _ = calibrate_at1p(bumped, flat_curve)
        assert pa.vols.sigmas[:2] == pb.vols.sigmas[:2]
        assert pa.vols.sigmas[2] != pb.vols.sigmas[2]

    def test_deterministic(self, flat_curve):
        strip = preset_strip("lehman-2008-06-12")
        pa, _ = calibrate_at1p(strip, flat_curve)
        pb, _ = calibrate_at1p(strip, flat_curve)
        assert pa.vols.sigmas == pb.vols.sigmas

    def test_invalid_barrier(self, flat_curve):
        with pytest.raises(DomainError):
            calibrate_at1p(small_strip([50.0, 80.0, 100.0]), flat_curve, h_over_v0=1.2)

    def test_rejects_non_finite_barrier_exponent(self, flat_curve):
        with pytest.raises(DomainError, match="b must be"):
            calibrate_at1p(preset_strip("lehman-2007-07-10"), flat_curve, b=float("nan"))


class TestSbtvCalibration:
    @pytest.mark.parametrize("name", sorted(PUBLISHED))
    def test_scenario_parameters_match_published_values(self, name, lehman_calibrations):
        params, report = lehman_calibrations[name]["sbtv"]
        expected = PUBLISHED[name]
        (h1, p1), (h2, p2) = params.scenarios
        assert h1 == 0.4
        assert h2 == pytest.approx(expected["h2"], abs=0.03)
        assert p1 == pytest.approx(expected["p1"], abs=0.03)
        assert report.diagnostics["step1"]["sigma_bar"] == pytest.approx(
            expected["sigma_bar"], abs=0.015)
        assert max(abs(e) for e in report.repricing_errors_bp) < 0.01

    def test_step2_refinement_is_small(self, lehman_calibrations):
        for name in sorted(PUBLISHED):
            _, report = lehman_calibrations[name]["sbtv"]
            assert report.diagnostics["step2_refinement_of_flat_sigma"] < 0.02

    def test_crisis_trajectory_monotone(self, lehman_calibrations):
        h2s, p2s = [], []
        for name in sorted(PUBLISHED):
            params, _ = lehman_calibrations[name]["sbtv"]
            (_, p1), (h2, p2) = params.scenarios
            h2s.append(h2)
            p2s.append(p2)
        assert h2s == sorted(h2s)
        assert p2s == sorted(p2s)

    def test_volatility_more_stable_than_at1p(self, lehman_calibrations):
        for name in sorted(PUBLISHED):
            at1p, _ = lehman_calibrations[name]["at1p"]
            sbtv, _ = lehman_calibrations[name]["sbtv"]
            assert np.std(sbtv.vols.sigmas) < np.std(at1p.vols.sigmas)

    def test_requires_three_quotes(self, flat_curve):
        strip = CdsQuoteStrip(quotes=(CdsQuote(5.0, 100.0),), recovery=0.4)
        with pytest.raises(DomainError, match="3 quotes"):
            calibrate_sbtv(strip, flat_curve)

    def test_rejects_non_finite_barrier_exponent(self, flat_curve):
        with pytest.raises(DomainError, match="b must be"):
            calibrate_sbtv(preset_strip("lehman-2007-07-10"), flat_curve, b=float("nan"))

    @pytest.mark.parametrize("h1", [1.0 - 2e-6, 0.999999, 0.9999995])
    def test_rejects_h1_that_leaves_no_room_for_h2(self, flat_curve, h1):
        # step 1 keeps H2 in [h1 + 1e-6, 1 - 1e-6]; here that box is empty
        with pytest.raises(DomainError, match="room for H2"):
            calibrate_sbtv(preset_strip("lehman-2008-06-12"), flat_curve, h1=h1)

    def test_h1_just_below_the_limit_is_a_typed_calibration_error(self, flat_curve):
        # H2 has a box, but with both barriers this close to V0 no volatility
        # reprices the 1y quote
        with pytest.raises(CalibrationError, match="1.0y quote"):
            calibrate_sbtv(preset_strip("lehman-2008-06-12"), flat_curve, h1=0.99999)

    def test_import_leaves_scipy_optimize_unloaded(self):
        # step 1 has one solver of its own; the package imports no scipy.optimize
        code = "import sys, fpcredit; print('scipy.optimize' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(fpcredit.__file__).parent.parent),
                          os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_deterministic(self, flat_curve):
        strip = preset_strip("lehman-2007-07-10")
        pa, _ = calibrate_sbtv(strip, flat_curve)
        pb, _ = calibrate_sbtv(strip, flat_curve)
        assert pa.scenarios == pb.scenarios
        assert pa.vols.sigmas == pb.vols.sigmas


class TestSbtvStep1:
    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    @pytest.mark.parametrize("name", sorted(STRIP_PRESETS))
    def test_meets_the_three_head_quotes(self, flat_curve, name, convention):
        *_, step1 = sbtv_step1(preset_strip(name), flat_curve, convention)
        assert step1["rms_bp"] < 1e-10
        assert step1["polishes"] == 1  # the best-ranked start reaches the zero

    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    def test_falls_back_past_a_polish_that_misses_the_zero(self, monkeypatch, flat_curve,
                                                          convention):
        # the best-ranked start stops in a local minimum; the next reaches the zero
        polishes = _record_polishes(monkeypatch)
        strip = small_strip([443.7691, 546.9414, 561.0056])
        *_, step1 = sbtv_step1(strip, flat_curve, convention)
        costs = _costs(polishes)
        assert step1["polishes"] == len(costs) == 2
        assert costs[0] > 100.0 and costs[1] <= calibration.STEP1_TOL
        assert step1["rms_bp"] < 1e-10

    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    @pytest.mark.parametrize("strip", [
        *(preset_strip(name) for name in sorted(STRIP_PRESETS)),
        small_strip([443.7691, 546.9414, 561.0056]), small_strip([300.0, 200.0, 100.0]),
        small_strip([50.0, 300.0, 250.0])],
        ids=[*sorted(STRIP_PRESETS), "missed-zero", "inverted", "humped"])
    def test_ends_no_higher_than_trf_from_the_same_starts(self, monkeypatch, flat_curve,
                                                          strip, convention):
        # TRF alone from each ranked start (the oracle) is the reference: step 1 ends
        # at no higher cost, and where both fit exactly, at the same point.  An exact
        # fit's cost is round-off (below 1e-20 bp^2), so costs are compared above
        # STEP1_TOL only
        *fit, step1 = sbtv_step1(strip, flat_curve, convention)
        monkeypatch.setattr(calibration, "_polish", trf_polish)
        *trf_fit, trf_step1 = sbtv_step1(strip, flat_curve, convention)
        cost, trf_cost = step1["objective_bp2"] / 2.0, trf_step1["objective_bp2"] / 2.0
        assert cost <= max(trf_cost * (1.0 + 1e-9), calibration.STEP1_TOL)
        if trf_cost <= calibration.STEP1_TOL:
            assert cost <= calibration.STEP1_TOL
            assert fit == pytest.approx(trf_fit, rel=1e-9, abs=0.0)
            assert step1["polishes"] == trf_step1["polishes"]

    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    @pytest.mark.parametrize("spreads", [
        [443.7691, 546.9414, 561.0056], [300.0, 200.0, 100.0], [50.0, 300.0, 250.0]])
    def test_every_polish_point_is_inside_the_closed_box(self, monkeypatch, flat_curve,
                                                         spreads, convention):
        # the polish clips each step into the box, so it evaluates points on a face,
        # never past one; each polish stops on its own rule, before the step cap
        points, steps = [], []
        real = calibration._polish

        def recording(residuals, jacobian, x0, lower, upper):
            def seen(x):
                points.append((x.copy(), lower, upper))
                return residuals(x)
            start = len(points)
            try:
                return real(seen, jacobian, x0, lower, upper)
            finally:
                steps.append(len(points) - start - 1)  # the start is not a step

        monkeypatch.setattr(calibration, "_polish", recording)
        for strip in (small_strip(spreads), preset_strip("lehman-2008-09-12")):
            sbtv_step1(strip, flat_curve, convention)
        assert len(points) > 20
        assert all(np.all(lower <= x) and np.all(x <= upper) for x, lower, upper in points)
        assert any(np.any(x == lower) or np.any(x == upper) for x, lower, upper in points)
        assert max(steps) < calibration.STEP1_ITERATIONS

    def test_polish_holds_a_variable_whose_gradient_points_out_of_the_box(self):
        # r = A x - b, whose zero (2, 0) lies outside the unit box.  The first step is
        # clipped to (1, 0); there the gradient points out at x0 = 1, so x0 is held,
        # and x1 alone moves to the box's minimum.  Moving both would clip back to
        # (1, 0) and stop there
        a = np.array([[1.0, 0.8], [0.8, 1.0], [0.3, -0.2]])
        b = a @ np.array([2.0, 0.0])
        points = []

        def residuals(x):
            points.append(x.copy())
            return a @ x - b

        cost, x = calibration._polish(residuals, lambda x: a, np.full(2, 0.25),
                                      np.zeros(2), np.ones(2))
        x1 = a[:, 1] @ (b - a[:, 0]) / (a[:, 1] @ a[:, 1])  # least squares at x0 = 1
        assert x[0] == 1.0 and x[1] == pytest.approx(x1, rel=1e-14)
        assert np.array_equal(points[1], [1.0, 0.0])
        assert cost == pytest.approx(0.5 * np.sum((a @ [1.0, x1] - b) ** 2), rel=1e-14)

    def test_polish_stops_where_the_model_predicts_no_fall(self):
        # r = (x - 1, x^2 - 4) has no zero, and Gauss-Newton converges only linearly
        # to its minimum, a root of 2 x^3 - 7 x - 1.  The polish stops once the linear
        # model predicts a fall within STEP1_TOL of the cost; on the step rule alone
        # it would take 16 evaluations
        points = []

        def residuals(x):
            points.append(x.copy())
            return np.array([x[0] - 1.0, x[0] ** 2 - 4.0])

        _, x = calibration._polish(residuals, lambda x: np.array([[1.0], [2.0 * x[0]]]),
                                   np.array([3.0]), np.array([-10.0]), np.array([10.0]))
        assert x[0] == pytest.approx(max(np.roots([2.0, 0.0, -7.0, -1.0]).real), rel=1e-9)
        assert len(points) <= 10

    def test_polish_damps_a_step_that_raises_the_cost(self):
        # r = (x - 2)^2 - 1 in one variable, from 2 + 1e-3: the Gauss-Newton step
        # lands near x = 502, where the cost is far higher; it is refused, and the
        # damped steps reach the zero at x = 3
        points = []

        def residuals(x):
            points.append(x.copy())
            return (x - 2.0) ** 2 - 1.0

        x0 = np.array([2.0 + 1e-3])
        cost, x = calibration._polish(residuals, lambda x: np.diag(2.0 * (x - 2.0)), x0,
                                      np.array([-1e3]), np.array([1e3]))
        assert points[1][0] > 500.0  # the refused Gauss-Newton step
        assert cost <= calibration.STEP1_TOL and x[0] == pytest.approx(3.0, rel=1e-12)
        assert len(points) < 40

    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    def test_inverted_strip_keeps_its_residual(self, flat_curve, convention):
        # no (H2, p1, sigma_bar) fits 300/200/100 bp; the best fit misses by ~20 bp
        # and step 2 cannot reprice the 5y quote with (H2, p1) frozen there
        strip = small_strip([300.0, 200.0, 100.0, 90.0, 80.0], tenors=(1.0, 3.0, 5.0, 7.0, 10.0))
        *_, step1 = sbtv_step1(strip, flat_curve, convention)
        assert step1["rms_bp"] == pytest.approx(20.0, abs=0.1)
        assert step1["polishes"] == calibration.STEP1_POLISH_STARTS  # no polish stops it
        with pytest.raises(CalibrationError, match="5.0y quote"):
            calibrate_sbtv(strip, flat_curve, convention=convention)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_polish_whose_gradient_is_not_finite_fails_its_start(self, monkeypatch,
                                                                  flat_curve, bad):
        # the gradient at the first start is not finite: no step leaves it, so the
        # start fails, and the next one reaches the zero.  The first kernel call scores
        # the 27 starts on 4 barriers by 3 sigma_bar rows, and the second, on the two
        # scenarios' rows, is the first polish's start, whose slopes the Jacobian reads
        real, calls = calibration.first_passage, []

        def bad_once(log_h, b, s):
            calls.append(np.broadcast_shapes(np.shape(log_h), np.shape(s))[:-1])
            q, dq_ds, second = real(log_h, b, s)
            scale = bad if calls == [(4, 3), (2,)] else 1.0
            return q, dq_ds * scale, second * scale

        monkeypatch.setattr(calibration, "first_passage", bad_once)
        polishes = _record_polishes(monkeypatch)
        *_, step1 = sbtv_step1(preset_strip("lehman-2008-06-12"), flat_curve, "postponed")
        assert step1["polishes"] == 2 and step1["rms_bp"] < 1e-10
        assert len(polishes) == 1  # the first polish raised

    def test_no_polish_with_a_finite_gradient_is_a_calibration_error(self, monkeypatch,
                                                                     flat_curve):
        real = calibration.first_passage

        def no_slopes(log_h, b, s):
            q, dq_ds, second = real(log_h, b, s)
            return q, np.full_like(dq_ds, math.nan), np.full_like(second, math.nan)

        monkeypatch.setattr(calibration, "first_passage", no_slopes)
        with pytest.raises(CalibrationError, match="along any polish"):
            sbtv_step1(preset_strip("lehman-2008-06-12"), flat_curve, "postponed")

    def test_poor_step1_fit_warns(self, flat_curve):
        strip = small_strip([50.0, 300.0, 250.0, 240.0, 230.0], tenors=(1.0, 3.0, 5.0, 7.0, 10.0))
        _, report = calibrate_sbtv(strip, flat_curve)
        assert report.diagnostics["step1"]["rms_bp"] == pytest.approx(32.48, abs=0.01)
        assert any("RMS above 5 bp" in w for w in report.warnings)
        assert report.exact

    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    @pytest.mark.parametrize("spreads", [
        [443.7691, 546.9414, 561.0056], [300.0, 200.0, 100.0], [50.0, 300.0, 250.0],
        [200.0, 300.0, 350.0], [20.0, 40.0, 60.0]])
    def test_stops_only_at_an_exact_fit(self, monkeypatch, flat_curve, spreads, convention):
        polishes = _record_polishes(monkeypatch)
        *_, step1 = sbtv_step1(small_strip(spreads), flat_curve, convention)
        costs = _costs(polishes)
        assert step1["polishes"] == len(costs) <= calibration.STEP1_POLISH_STARTS
        assert step1["objective_bp2"] == 2.0 * min(costs)
        assert all(c > calibration.STEP1_TOL for c in costs[:-1])
        if len(costs) < calibration.STEP1_POLISH_STARTS:
            assert costs[-1] <= calibration.STEP1_TOL

    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    def test_evaluations_count_every_kernel_call(self, monkeypatch, flat_curve, convention):
        # the start scan is one kernel call on H1 and the three start H2 against the
        # three start sigma_bar; each polish evaluation is one call on the two
        # scenarios' rows at one point, which the analytic Jacobian reads
        rows, barriers = [], []  # per kernel call, the shape of its survival rows
        real = calibration.first_passage

        def counting(log_h, b, cv):
            rows.append(np.broadcast_shapes(np.shape(log_h), np.shape(cv))[:-1])
            barriers.append(np.exp(log_h).ravel())
            return real(log_h, b, cv)

        monkeypatch.setattr(calibration, "first_passage", counting)
        *_, step1 = sbtv_step1(preset_strip("lehman-2008-09-12"), flat_curve, convention)
        assert rows[0] == (4, 3) and step1["multi_start_points"] == 27
        assert barriers[0] == pytest.approx([0.4, 0.55, 0.7, 0.85], rel=1e-15)
        assert len(rows) > 1 and rows[1:] == [(2,)] * (len(rows) - 1)
        assert step1["objective_evaluations"] == 27 + len(rows) - 1

    @pytest.mark.parametrize("b", [0.3, -300.0])
    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    @pytest.mark.parametrize("name", sorted(STRIP_PRESETS))
    def test_start_scan_equals_each_start_evaluated_alone(self, monkeypatch, flat_curve,
                                                          name, convention, b):
        # the scan mixes the legs of 12 distinct survival rows per start.  Its spreads
        # are those of one evaluation at each start to round-off, and so are the finite
        # starts and their ranking, read as the order in which every finite start is
        # polished, each polish failing.  A spread's protection leg cancels: at b = 0.3
        # and sigma_bar = 0.1 it is 1e-9 of its terms, so the two summation orders agree
        # to its round-off, 3e-12 bp, and to 2e-11 relative, not to 1e-12
        spreads, polished = [], []
        real_spreads = calibration._spreads_bp

        def recording(*args):
            spreads.append(real_spreads(*args))
            return spreads[-1]

        def failing(residuals, jacobian, x0, lower, upper):
            polished.append((residuals, x0.copy(), lower, upper))
            raise FloatingPointError

        monkeypatch.setattr(calibration, "_spreads_bp", recording)
        monkeypatch.setattr(calibration, "_polish", failing)
        monkeypatch.setattr(calibration, "STEP1_POLISH_STARTS", 27)
        strip, h1 = preset_strip(name), 0.4
        with pytest.raises(CalibrationError, match="at any start"):
            _sbtv_step1(strip, _strip_legs(strip, flat_curve, convention), h1, b)
        scan = spreads[0]
        residuals, _, lower, upper = polished[0]
        starts = np.clip(list(itertools.product([h1 + 0.15, h1 + 0.3, h1 + 0.45],
                                                [0.35, 0.65, 0.95], [0.10, 0.20, 0.40])),
                         lower, upper)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gaps = np.array([residuals(x) for x in starts])  # not finite where Q vanishes
        alone = gaps + strip.spreads_bp[:3]
        finite = np.all(np.isfinite(alone), axis=1)
        assert scan.shape == (27, 3) and finite.any()
        assert np.array_equal(np.all(np.isfinite(scan), axis=1), finite)
        assert scan[finite] == pytest.approx(alone[finite], rel=1e-12, abs=1e-10)
        costs = np.sum(gaps ** 2, axis=1)
        ranked = sorted(np.flatnonzero(finite), key=lambda i: (costs[i], starts[i, 0]))
        assert np.array_equal([x0 for _, x0, _, _ in polished], starts[ranked])

    def test_no_finite_start_is_a_calibration_error(self, flat_curve):
        strip = preset_strip("lehman-2008-06-12")
        with pytest.raises(CalibrationError, match="at any start"):
            _sbtv_step1(strip, _strip_legs(strip, flat_curve, "postponed"), 0.4, -1e6)

    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    def test_analytic_jacobian_matches_finite_differences(self, monkeypatch, flat_curve,
                                                          convention):
        # at the TestLegGridReuse points and on the sigma_bar = 1e-3 and h2 = 1 - 1e-6
        # bounds (at sigma_bar = 1e-3 survival is 1 to the last bit unless H2 is near 1);
        # a five-point central difference, its steps kept below 1 - h2
        monkeypatch.setattr(calibration, "_polish", _capture_objective)
        with pytest.raises(_Captured) as captured:
            sbtv_step1(preset_strip("lehman-2008-09-12"), flat_curve, convention)
        residuals, jacobian = captured.value.args
        for x in map(np.array, [(0.7313, 0.962, 0.166), (0.55, 0.3, 0.45), (0.95, 0.5, 0.08),
                                (0.999, 0.5, 1e-3), (1.0 - 1e-6, 0.5, 0.2)]):
            central = np.empty((3, 3))
            for j, step in enumerate((min(1e-4, (1.0 - x[0]) / 100), 1e-4, 1e-4 * x[2])):
                e = step * np.eye(3)[j]
                central[:, j] = (8.0 * (residuals(x + e) - residuals(x - e))
                                 - residuals(x + 2 * e) + residuals(x - 2 * e)) / (12.0 * step)
            assert jacobian(x) == pytest.approx(central, rel=1e-6)


class TestBootstrapRoots:
    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    @pytest.mark.parametrize("name", sorted(STRIP_PRESETS))
    def test_each_root_is_a_sign_change_of_its_pillar_price(self, flat_curve, name,
                                                            convention):
        # nudging any bucket parameter by 1e-12 relative either way flips the sign
        # of its pillar's price, read through the public pricer
        strip = preset_strip(name)
        for fit, key in ((bootstrap_intensity, "lambdas"), (calibrate_at1p, "sigmas"),
                         (calibrate_sbtv, "sigmas")):
            model, report = fit(strip, flat_curve, convention=convention)
            assert report.diagnostics["solver"] == "newton-bisection"
            values = report.parameters[key]
            for k, quote in enumerate(strip.quotes):
                contract = CdsContract(make_schedule(0.0, quote.tenor, 4),
                                       quote.spread_bp * 1e-4, strip.recovery)
                below, above = (
                    cds_price(contract, flat_curve, type(model).from_dict(
                        {**report.parameters,
                         key: values[:k] + [values[k] * factor] + values[k + 1:]}),
                        convention)
                    for factor in (1.0 - 1e-12, 1.0 + 1e-12))
                assert below < 0.0 < above, (fit.__name__, quote.tenor)

    def test_newton_step_out_of_the_bracket_gives_way_to_bisection(self):
        # Newton on arctan from 1.5 lands on -1.694, inside (-10, 1.5); from there it
        # would jump to 2.32, outside (-1.694, 1.5), so the next point is their midpoint
        seen = []

        def price_and_slope(x):
            seen.append(x)
            return math.atan(x), 1.0 / (1.0 + x * x)

        root, evaluations = calibration._newton_in_bracket(
            price_and_slope, (-10.0, 5.0), (math.atan(-10.0), math.atan(5.0)), 0.0, 1.5)
        assert seen[1] == pytest.approx(1.5 - math.atan(1.5) * 3.25)
        assert seen[1] - math.atan(seen[1]) * (1.0 + seen[1] ** 2) > 1.5
        assert seen[2] == pytest.approx(0.5 * (seen[0] + seen[1]), rel=1e-15)
        assert root == 0.0 and evaluations == len(seen) < 10

    def test_zero_price_at_the_upper_end_returns_that_end(self):
        # as brentq did, with no evaluation; a search from inside the bracket
        # would stop short of the end, at a price within the resolution
        def never(x):
            raise AssertionError("the upper end is a root: no evaluation is needed")

        def price_and_slope(x):
            return x * x - 4.0, 2.0 * x

        assert calibration._newton_in_bracket(
            never, (0.5, 2.0), (-3.75, 0.0), 1e-6, 1.0) == (2.0, 0)
        root, _ = calibration._newton_in_bracket(
            price_and_slope, (0.5, 2.0), (-3.75, 1e-300), 1e-6, 1.0)
        assert root < 2.0 and abs(root * root - 4.0) <= 1e-6


    @pytest.mark.parametrize("start", [-9.0, -1.0, 0.3, 1.5, 4.9])
    def test_a_known_start_price_is_the_first_evaluation(self, start):
        # given price_and_slope at its start, the search takes the same steps to the
        # same root and counts the same evaluations, with one call fewer
        seen = []

        def price_and_slope(x):
            seen.append(x)
            return math.atan(x) - 0.2, 1.0 / (1.0 + x * x)

        bracket, prices = (-10.0, 5.0), (math.atan(-10.0) - 0.2, math.atan(5.0) - 0.2)
        search = calibration._newton_in_bracket(price_and_slope, bracket, prices, 1e-15, start)
        calls, first = seen[:], price_and_slope(start)
        seen.clear()
        assert calibration._newton_in_bracket(
            price_and_slope, bracket, prices, 1e-15, start, first) == search
        assert seen == calls[1:] and calls[0] == start

    @pytest.mark.parametrize("start", [-12.0, -10.0, 5.0, 7.0, None])
    def test_a_start_price_outside_the_bracket_is_ignored(self, start):
        # the search then starts at the false-position point; a zero price given
        # for the start would end it there at once
        def price_and_slope(x):
            return math.atan(x) - 0.2, 1.0 / (1.0 + x * x)

        bracket, prices = (-10.0, 5.0), (math.atan(-10.0) - 0.2, math.atan(5.0) - 0.2)
        assert calibration._newton_in_bracket(
            price_and_slope, bracket, prices, 1e-15, start, (0.0, 1.0)) == \
            calibration._newton_in_bracket(price_and_slope, bracket, prices, 1e-15)

    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    @pytest.mark.parametrize("fit", [bootstrap_intensity, calibrate_at1p, calibrate_sbtv])
    def test_one_kernel_call_per_pillar_before_its_search(self, monkeypatch, flat_curve,
                                                          fit, convention):
        # each pillar reads its frozen times, both bracket ends and, where it lies
        # inside the bracket, the search's start in one kernel call; then one call per
        # further evaluation of its search, price and slope together.  The step-1
        # Jacobian reads its point's evaluation and makes no kernel call
        events, jacobians, inside = [], [], []
        real_bootstrap, real_search = calibration._bootstrap, calibration._newton_in_bracket
        real_kernel, real_polish = calibration.first_passage, calibration._polish

        def bootstrap(strip, legs, model_name, family, kernel, *args):
            def counting(c):
                events.append("kernel")
                return kernel(c)
            return real_bootstrap(strip, legs, model_name, family, counting, *args)

        def search(price_and_slope, bracket, prices, resolution, x, first):
            events.append("search")
            inside.append(x is not None and bracket[0] < x < bracket[1])
            return real_search(price_and_slope, bracket, prices, resolution, x, first)

        def step1_kernel(*args):
            events.append("step-1 jacobian" if jacobians and jacobians[-1] else "step 1")
            return real_kernel(*args)

        def polish(residuals, jacobian, *args):
            def tracked(x):
                jacobians.append(True)
                try:
                    return jacobian(x)
                finally:
                    jacobians.append(False)
            return real_polish(residuals, tracked, *args)

        monkeypatch.setattr(calibration, "_bootstrap", bootstrap)
        monkeypatch.setattr(calibration, "_newton_in_bracket", search)
        monkeypatch.setattr(calibration, "first_passage", step1_kernel)
        monkeypatch.setattr(calibration, "_polish", polish)
        _, report = fit(preset_strip("lehman-2008-09-12"), flat_curve, convention=convention)
        iterations = report.diagnostics["iterations"]
        assert len(iterations) == 5 and sum(iterations) > 5
        # the first search starts from the previous root, SBTV's from sigma_bar
        assert inside == [fit is calibrate_sbtv] + [True] * 4
        assert [e for e in events if e != "step 1"] == [
            e for n, known in zip(iterations, inside)
            for e in ["kernel", "search"] + ["kernel"] * (n - known)]
        if fit is calibrate_sbtv:  # one call scores the 27 starts, then one per point
            step1 = report.diagnostics["step1"]
            assert events.count("step 1") == step1["objective_evaluations"] - 27 + 1
            assert jacobians.count(True) > 1
            assert iterations[0] == 1  # sigma_bar reprices the 1y quote: the search makes no call
        else:
            assert not jacobians


class TestQuoteTenors:
    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    @pytest.mark.parametrize("fit", [bootstrap_intensity, calibrate_at1p, calibrate_sbtv])
    @pytest.mark.parametrize("tenors, bad", [((2.1, 3.0, 5.0, 7.0, 10.0), "2.1"),
                                             ((1.0, 3.0, 5.1, 7.0, 10.0), "5.1"),
                                             ((1.0, 3.0, 5.0, 7.0, 10.1), "10.1")],
                             ids=["first", "middle", "last"])
    def test_a_tenor_off_the_quarters_is_named(self, flat_curve, fit, convention, tenors, bad):
        strip = small_strip([100.0, 150.0, 180.0, 200.0, 210.0], tenors=tenors)
        message = f"^quote tenor {bad}y is not a whole number of quarterly periods$"
        with pytest.raises(DomainError, match=message.replace(".", r"\.")):
            fit(strip, flat_curve, convention=convention)


class TestDegenerateDiscounting:
    @pytest.mark.parametrize("calibrate", [bootstrap_intensity, calibrate_at1p, calibrate_sbtv])
    def test_zero_premium_annuity(self, calibrate):
        # every discount factor underflows to 0: no spread can be fitted
        with pytest.raises(DegenerateInputError, match="zero premium annuity"):
            calibrate(preset_strip("lehman-2007-07-10"), DiscountCurve(flat_rate=1e308))


class TestImpliedSurvivals:
    def test_all_models_start_at_one(self, lehman_calibrations):
        for name in sorted(PUBLISHED):
            for model in ("intensity", "at1p", "sbtv"):
                params, _ = lehman_calibrations[name][model]
                assert survival(params, 0.0) == 1.0

    def test_at1p_vs_intensity_pre_crisis(self, lehman_calibrations):
        # at moderate spreads the implied pillar survivals are essentially
        # model independent
        entry = lehman_calibrations["lehman-2007-07-10"]
        diff = np.abs(np.array(entry["at1p"][1].pillar_survivals)
                      - np.array(entry["intensity"][1].pillar_survivals))
        assert diff.max() < 0.002

    def test_sbtv_vs_at1p_sept_2008(self, lehman_calibrations):
        entry = lehman_calibrations["lehman-2008-09-12"]
        diff = np.abs(np.array(entry["sbtv"][1].pillar_survivals)
                      - np.array(entry["at1p"][1].pillar_survivals))
        assert diff.max() < 0.010

    @pytest.mark.parametrize("name", sorted(PUBLISHED))
    def test_roundtrip_pillar_prices(self, name, lehman_calibrations, flat_curve):
        entry = lehman_calibrations[name]
        strip = entry["strip"]
        for model in ("intensity", "at1p", "sbtv"):
            for quote in strip.quotes:
                contract = pillar_contract(quote.tenor, quote.spread_bp, strip.recovery)
                price = cds_price(contract, flat_curve, entry[model][0], "postponed")
                assert abs(price) * 1e4 < 0.01


class TestParameterDicts:
    @pytest.mark.parametrize("model, cls", [
        ("intensity", HazardCurve), ("at1p", At1pParams), ("sbtv", SbtvParams)])
    def test_report_parameters_round_trip(self, model, cls, lehman_calibrations):
        params, report = lehman_calibrations["lehman-2008-09-12"][model]
        assert report.parameters == params.to_dict()
        assert cls.from_dict(json.loads(json.dumps(report.parameters))) == params


def _record_polishes(monkeypatch):
    """Wrap step 1's `_polish`; the returned list collects the arguments and the
    result, (cost, x), of each polish that returns."""
    polishes = []
    real = calibration._polish

    def recording(*args):
        result = real(*args)
        polishes.append((args, result))
        return result

    monkeypatch.setattr(calibration, "_polish", recording)
    return polishes


def _costs(polishes):
    return [cost for _, (cost, _) in polishes]


class _Captured(Exception):
    pass


def _capture_objective(residuals, jacobian, x0, lower, upper):
    raise _Captured(residuals, jacobian)


class TestLegGridReuse:
    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    @pytest.mark.parametrize("h2, p1, sigma_bar", [(0.7313, 0.962, 0.166),
                                                   (0.55, 0.3, 0.45), (0.95, 0.5, 0.08)])
    def test_step1_spreads_equal_fair_spread_on_the_model(self, monkeypatch, flat_curve,
                                                          convention, h2, p1, sigma_bar):
        # quote the 1-, 2- and 3-pillar fair spreads of the matching SbtvParams:
        # the objective at that point is then the sum of the squared gaps, in bp
        tenors, h1 = (1.0, 2.0, 3.0), 0.4
        params = SbtvParams(((h1, p1), (h2, 1.0 - p1)), 0.0,
                            VolatilityTermStructure((tenors[-1],), (sigma_bar,)))
        spreads = [fair_spread(make_schedule(0.0, t, 4), flat_curve, params, 0.4, convention)
                   for t in tenors]
        strip = CdsQuoteStrip(tuple(CdsQuote(t, s * 1e4) for t, s in zip(tenors, spreads)))
        monkeypatch.setattr(calibration, "_polish", _capture_objective)
        with pytest.raises(_Captured) as captured:
            sbtv_step1(strip, flat_curve, convention, h1)
        residuals = captured.value.args[0]
        # every spread within 1e-12, i.e. 1e-8 bp
        assert np.sum(residuals(np.array([h2, p1, sigma_bar])) ** 2) <= (1e-12 * 1e4) ** 2

    def test_step1_builds_no_model_object(self, monkeypatch, flat_curve):
        def forbidden(*args, **kwargs):
            raise AssertionError("step 1 built a model object")

        for name in ("At1pParams", "SbtvParams", "VolatilityTermStructure"):
            monkeypatch.setattr(calibration, name, forbidden)
        h2, p1, sigma_bar, _ = sbtv_step1(preset_strip("lehman-2007-07-10"), flat_curve,
                                          "postponed")
        assert 0.4 < h2 < 1.0 and 0.0 <= p1 <= 1.0 and sigma_bar > 0

    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    def test_bootstrap_builds_one_model_object_per_fit(self, monkeypatch, flat_curve,
                                                       convention):
        built = []

        def counting(cls):
            def build(*args, **kwargs):
                built.append(cls.__name__)
                return cls(*args, **kwargs)
            return build

        for cls in (VolatilityTermStructure, HazardCurve):
            monkeypatch.setattr(calibration, cls.__name__, counting(cls))
        strip = preset_strip("lehman-2008-06-12")
        for fit, cls in ((bootstrap_intensity, HazardCurve),
                         (calibrate_at1p, VolatilityTermStructure),
                         (calibrate_sbtv, VolatilityTermStructure)):
            built.clear()
            _, report = fit(strip, flat_curve, convention=convention)
            assert built == [cls.__name__]
            assert sum(report.diagnostics["iterations"]) > len(strip.quotes)

    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    def test_one_leg_grid_per_fit(self, monkeypatch, flat_curve, convention):
        # the bootstrap, SBTV step 1 and the report all read the strip's one grid
        built = []
        real = calibration.leg_grid

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(calibration, "leg_grid", counting)
        strip = preset_strip("lehman-2008-06-12")
        for fit in (bootstrap_intensity, calibrate_at1p, calibrate_sbtv):
            built.clear()
            _, report = fit(strip, flat_curve, convention=convention)
            assert len(built) == 1 < sum(report.diagnostics["iterations"])
            schedule, _, _, knots = built[0]
            assert schedule.dates[-1] == strip.tenors[-1] and knots == strip.tenors

    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    def test_report_reprices_on_the_strip_grid(self, monkeypatch, flat_curve, convention):
        # the strip grid is cut at the tenors, the fitted model's knots, so each
        # pillar's part of it is the grid cds_price would build, and the report
        # reads the pillar's legs there
        built = []
        real = cds.leg_grid

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(calibration, "leg_grid", counting)
        monkeypatch.setattr(cds, "leg_grid", counting)
        strip = preset_strip("lehman-2008-09-12")
        fits = []
        for fit in (bootstrap_intensity, calibrate_at1p, calibrate_sbtv):
            built.clear()
            fits.append(fit(strip, flat_curve, convention=convention))
            assert len(built) == 1
        monkeypatch.undo()
        for model, report in fits:
            assert report.repricing_errors_bp == [
                cds_price(pillar_contract(q.tenor, q.spread_bp, strip.recovery),
                          flat_curve, model, convention) * 1e4 for q in strip.quotes]

    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    def test_pillar_rows_of_the_strip_grid_are_its_own_grid_rows(self, convention):
        # curve pillars inside periods cut the exact pieces of every grid that spans them
        curve = DiscountCurve(pillars=((0.6, 0.985), (2.2, 0.93), (4.1, 0.86)))
        strip = preset_strip("lehman-2008-06-12")
        pillars, grid, rows, columns = _strip_legs(strip, curve, convention)
        assert len(pillars) == len(columns) == rows.shape[1] == 5
        for j, (quote, pillar, own_columns) in enumerate(zip(strip.quotes, pillars, columns)):
            contract = pillar_contract(quote.tenor, quote.spread_bp, strip.recovery)
            assert pillar == (contract.schedule.dates.size, contract.spread, contract.lgd)
            own = leg_grid(contract.schedule, curve, convention, strip.tenors)
            assert np.array_equal(grid.times[own_columns], own.times)
            assert np.array_equal(rows[:, j][:, own_columns], own.rows([-1])[:, 0])
            assert not rows[:, j][:, ~own_columns].any()

    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    @pytest.mark.parametrize("fit", [bootstrap_intensity, calibrate_at1p, calibrate_sbtv])
    def test_tenor_a_round_off_short_of_a_payment_date(self, flat_curve, fit, convention):
        # make_schedule ends the 3y pillar at 2.9999999999, while the strip grid
        # holds the 10y schedule's 3.0 date at that payment index: the pillar's
        # columns run to that date, not to its tenor
        strip = small_strip([100.0, 150.0, 180.0, 200.0, 210.0],
                            tenors=(1.0, 2.9999999999, 5.0, 7.0, 10.0))
        _, report = fit(strip, flat_curve, convention=convention)
        assert report.exact
        assert max(abs(e) for e in report.repricing_errors_bp) < 0.01
