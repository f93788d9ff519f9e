import json

import numpy as np
import pytest

from fpcredit import (CalibrationError, CdsQuote, CdsQuoteStrip, DegenerateInputError,
                      DiscountCurve, DomainError, VolatilityTermStructure, bootstrap_intensity,
                      calibrate_at1p, calibrate_sbtv, cds_price, fair_spread,
                      make_schedule)
from fpcredit import calibration
from fpcredit.calibration import _sbtv_step1, pillar_contract
from fpcredit.presets import STRIP_PRESETS, preset_strip
from fpcredit.survival import At1pParams, HazardCurve, SbtvParams, survival

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
        *_, step1 = _sbtv_step1(preset_strip(name), flat_curve, 0.4, 0.0, convention)
        assert step1["rms_bp"] < 1e-10

    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    def test_inverted_strip_keeps_its_residual(self, flat_curve, convention):
        # no (H2, p1, sigma_bar) fits 300/200/100 bp; the best fit misses by ~20 bp
        # and step 2 cannot reprice the 5y quote with (H2, p1) frozen there
        strip = small_strip([300.0, 200.0, 100.0, 90.0, 80.0], tenors=(1.0, 3.0, 5.0, 7.0, 10.0))
        *_, step1 = _sbtv_step1(strip, flat_curve, 0.4, 0.0, convention)
        assert step1["rms_bp"] == pytest.approx(20.0, abs=0.1)
        with pytest.raises(CalibrationError, match="5.0y quote"):
            calibrate_sbtv(strip, flat_curve, convention=convention)

    def test_poor_step1_fit_warns(self, flat_curve):
        strip = small_strip([50.0, 300.0, 250.0, 240.0, 230.0], tenors=(1.0, 3.0, 5.0, 7.0, 10.0))
        _, report = calibrate_sbtv(strip, flat_curve)
        assert report.diagnostics["step1"]["rms_bp"] == pytest.approx(32.48, abs=0.01)
        assert any("RMS above 5 bp" in w for w in report.warnings)
        assert report.exact

    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    def test_evaluations_count_every_kernel_call(self, monkeypatch, flat_curve, convention):
        # the finite-difference Jacobian's calls included
        calls = []
        real = calibration.first_passage_survival

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(calibration, "first_passage_survival", counting)
        *_, step1 = _sbtv_step1(preset_strip("lehman-2008-09-12"), flat_curve, 0.4, 0.0,
                                convention)
        assert step1["objective_evaluations"] == len(calls) > step1["multi_start_points"]


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


class _Captured(Exception):
    pass


def _capture_objective(fun, x0, **kwargs):
    raise _Captured(fun)


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
        monkeypatch.setattr(calibration, "least_squares", _capture_objective)
        with pytest.raises(_Captured) as captured:
            _sbtv_step1(strip, flat_curve, h1, 0.0, convention)
        residuals = captured.value.args[0]
        # every spread within 1e-12, i.e. 1e-8 bp
        assert np.sum(residuals(np.array([h2, p1, sigma_bar])) ** 2) <= (1e-12 * 1e4) ** 2

    def test_step1_builds_no_model_object(self, monkeypatch, flat_curve):
        def forbidden(*args, **kwargs):
            raise AssertionError("step 1 built a model object")

        for name in ("At1pParams", "SbtvParams", "VolatilityTermStructure"):
            monkeypatch.setattr(calibration, name, forbidden)
        h2, p1, sigma_bar, _ = _sbtv_step1(preset_strip("lehman-2007-07-10"), flat_curve,
                                           0.4, 0.0, "postponed")
        assert 0.4 < h2 < 1.0 and 0.0 <= p1 <= 1.0 and sigma_bar > 0

    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    def test_one_leg_grid_per_pillar_and_one_for_step1(self, monkeypatch, flat_curve,
                                                       convention):
        built = []
        real = calibration.leg_grid

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(calibration, "leg_grid", counting)
        strip = preset_strip("lehman-2008-06-12")
        _, report = calibrate_at1p(strip, flat_curve, convention=convention)
        assert len(built) == len(strip.quotes) < sum(report.diagnostics["iterations"])
        built.clear()
        calibrate_sbtv(strip, flat_curve, convention=convention)
        assert len(built) == len(strip.quotes) + 1
