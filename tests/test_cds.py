import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from fpcredit import (At1pParams, CdsContract, ConfigurationError,
                      DegenerateInputError, DiscountCurve, HazardCurve,
                      VolatilityTermStructure, bootstrap_intensity, calibrate_at1p,
                      calibrate_sbtv, cds, cds_legs, cds_price, fair_spread,
                      leg_grid, make_schedule)
from fpcredit.presets import STRIP_PRESETS, preset_strip
from fpcredit.survival import first_passage, survival


def riskless():
    return HazardCurve((30.0,), (0.0,))


def hazard(lam, ends=(30.0,)):
    return HazardCurve(ends, (lam,) * len(ends))


class TestPriceConventions:
    def test_riskless_reduces_to_premium_annuity(self):
        curve = DiscountCurve(flat_rate=0.03)
        sched = make_schedule(0.0, 5.0, 4)
        contract = CdsContract(sched, spread=0.01, recovery=0.4)
        annuity = sum(math.exp(-0.03 * t) * 0.25 for t in sched.dates)
        for convention in ("postponed", "exact"):
            assert cds_price(contract, curve, riskless(), convention) == pytest.approx(
                -0.01 * annuity, rel=1e-12)

    def test_zero_spread_is_positive_protection_value(self):
        curve = DiscountCurve(flat_rate=0.03)
        contract = CdsContract(make_schedule(0.0, 5.0, 4), spread=0.0, recovery=0.4)
        surv = hazard(0.02)
        assert cds_price(contract, curve, surv, "postponed") > 0
        assert cds_price(contract, curve, surv, "exact") > 0

    def test_one_period_postponed_closed_form(self):
        curve = DiscountCurve(flat_rate=0.0)
        sched = make_schedule(0.0, 1.0, 1)
        q = 0.93
        surv = HazardCurve((1.0,), (-math.log(q),))
        contract = CdsContract(sched, spread=0.02, recovery=0.4)
        expected = -0.02 * 1.0 * q + 0.6 * (1.0 - q)
        assert cds_price(contract, curve, surv, "postponed") == pytest.approx(expected, rel=1e-12)

    def test_fair_spread_makes_price_zero_and_higher_spread_hurts_buyer(self):
        curve = DiscountCurve(flat_rate=0.03)
        sched = make_schedule(0.0, 5.0, 4)
        surv = hazard(0.03)
        fair = fair_spread(sched, curve, surv, recovery=0.4)
        at_fair = cds_price(CdsContract(sched, fair, 0.4), curve, surv, "postponed")
        assert abs(at_fair) < 1e-15
        above = cds_price(CdsContract(sched, fair + 0.001, 0.4), curve, surv, "postponed")
        assert above < at_fair

    def test_forward_start_rejected(self):
        with pytest.raises(Exception):
            CdsContract(make_schedule(1.0, 5.0, 4), spread=0.01, recovery=0.4)


class TestFairSpread:
    def test_riskless_fair_spread_is_zero(self):
        curve = DiscountCurve(flat_rate=0.03)
        assert fair_spread(make_schedule(0.0, 5.0, 4), curve, riskless(), 0.4) == 0.0

    def test_june_2008_intensity_five_year_spread(self):
        # June 2008 intensities; quoted 5y spread was 277 bp
        hazard = HazardCurve((1.0, 3.0, 5.0, 7.0, 10.0),
                             (0.06563, 0.04440, 0.03411, 0.03207, 0.02907))
        curve = DiscountCurve(flat_rate=0.03)
        fair = fair_spread(make_schedule(0.0, 5.0, 4), curve, hazard, 0.4)
        assert fair * 1e4 == pytest.approx(277.0, abs=2.0)

    def test_sept_2008_scenario_mixture_one_year_spread(self):
        from fpcredit import SbtvParams, VolatilityTermStructure
        vols = VolatilityTermStructure((1.0, 3.0, 5.0, 7.0, 10.0),
                                       (0.196, 0.196, 0.196, 0.218, 0.237))
        params = SbtvParams(((0.4, 0.5), (0.8427, 0.5)), 0.0, vols)
        curve = DiscountCurve(flat_rate=0.03)
        fair = fair_spread(make_schedule(0.0, 1.0, 4), curve, params, 0.4)
        assert fair * 1e4 == pytest.approx(1437.0, abs=15.0)

    def test_sure_immediate_default_is_degenerate(self):
        curve = DiscountCurve(flat_rate=0.03)
        dead = HazardCurve((30.0,), (1e4,))  # Q underflows to 0 by the first date
        with pytest.raises(DegenerateInputError):
            fair_spread(make_schedule(0.0, 5.0, 4), curve, dead, 0.4)

    def test_credit_triangle(self):
        # fair spread ~ lambda * LGD within 2% relative for lambda <= 10%
        curve = DiscountCurve(flat_rate=0.03)
        sched = make_schedule(0.0, 5.0, 4)
        for lam in (0.01, 0.05, 0.10):
            fair = fair_spread(sched, curve, hazard(lam), 0.4, "exact")
            assert fair == pytest.approx(lam * 0.6, rel=0.02)

    @given(lam=st.floats(0.001, 0.3), r=st.floats(0.0, 0.08))
    @settings(max_examples=40)
    def test_affinity_two_point_recovery(self, lam, r):
        curve = DiscountCurve(flat_rate=r)
        sched = make_schedule(0.0, 5.0, 4)
        surv = hazard(lam)
        p0 = cds_price(CdsContract(sched, 0.0, 0.4), curve, surv, "postponed")
        p1 = cds_price(CdsContract(sched, 0.01, 0.4), curve, surv, "postponed")
        two_point = 0.01 * p0 / (p0 - p1)
        assert two_point == pytest.approx(fair_spread(sched, curve, surv, 0.4), abs=1e-12)


class TestLegs:
    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    def test_prefix_sums_price_the_shorter_pillars(self, convention):
        # step 1 of the SBTV fit reads the 1y and 3y pillars off the 5y legs
        from fpcredit import SbtvParams, VolatilityTermStructure
        curve = DiscountCurve(flat_rate=0.03)
        params = SbtvParams(((0.4, 0.6), (0.8, 0.4)), 0.0,
                            VolatilityTermStructure((5.0,), (0.2,)))
        protection, premium = cds_legs(make_schedule(0.0, 5.0, 4), curve, params, convention)
        for tenor in (1.0, 3.0, 5.0):
            sched = make_schedule(0.0, tenor, 4)
            i = sched.dates.size - 1
            fair = fair_spread(sched, curve, params, 0.4, convention)
            assert 0.6 * protection[i] / premium[i] == pytest.approx(fair, rel=0, abs=1e-14)
            price = cds_price(CdsContract(sched, 0.02, 0.4), curve, params, convention)
            assert 0.6 * protection[i] - 0.02 * premium[i] == pytest.approx(
                price, rel=0, abs=1e-14)

    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    @pytest.mark.parametrize("knots", [(), (0.6, 2.2, 4.1)])
    def test_rows_weigh_survival_as_the_legs_do(self, convention, knots):
        # legs(q)[i][payments] == rows(payments)[i] @ q to round-off: within 1e-15 of
        # sum |row|, the largest leg any survival in [0, 1] can give
        grid = leg_grid(make_schedule(0.0, 10.0, 4),
                        DiscountCurve(pillars=((1.0, 0.97), (3.0, 0.9), (10.0, 0.7))),
                        convention, knots)
        rng = np.random.default_rng(20091016)
        for payments in (np.arange(grid.premium.size), [3, 11, -1]):
            rows = grid.rows(payments)
            assert rows.shape == (2, len(payments), grid.times.size)
            bound = 1e-15 * np.abs(rows).sum(axis=-1)
            for lam, kappa in rng.uniform((0.0, 0.0), (0.5, 0.05), (50, 2)):
                q = np.exp(-(lam + kappa * grid.times) * grid.times)  # a random survival curve
                for leg, row, tol in zip(grid.legs(q), rows, bound):
                    assert np.all(np.abs(row @ q - leg[payments]) <= tol)

    def test_exact_legs_match_continuous_time_closed_form(self):
        # flat hazard lam and rate r, k = lam + r: protection to T is
        # lam/k (1 - e^{-kT}); the accrual over [a, a + alpha] is
        # lam e^{-ka} (1 - e^{-k alpha} (1 + k alpha)) / k^2
        lam, r = 0.05, 0.03
        k = lam + r
        sched = make_schedule(0.0, 3.0, 4)
        protection, premium = cds_legs(sched, DiscountCurve(flat_rate=r), hazard(lam), "exact")
        starts = sched.dates - sched.accruals
        accrual = lam * np.exp(-k * starts) * (
            1.0 - np.exp(-k * sched.accruals) * (1.0 + k * sched.accruals)) / k ** 2
        annuity = np.exp(-k * sched.dates) * sched.accruals
        assert protection == pytest.approx(lam / k * (1.0 - np.exp(-k * sched.dates)), rel=1e-6)
        assert premium == pytest.approx(np.cumsum(annuity + accrual), rel=1e-6)

    def test_unknown_convention_rejected(self):
        with pytest.raises(ConfigurationError):
            cds_legs(make_schedule(0.0, 1.0, 4), DiscountCurve(flat_rate=0.03),
                     riskless(), "midpoint")

    @pytest.mark.parametrize("convention", ["postponed", "exact"])
    def test_one_grid_prices_two_models_like_fresh_legs(self, convention):
        sched = make_schedule(0.0, 5.0, 4)
        curve = DiscountCurve(pillars=((1.0, 0.97), (5.0, 0.85)))
        grid = leg_grid(sched, curve, convention)
        models = (HazardCurve((1.0, 5.0), (0.02, 0.05)),
                  At1pParams(0.4, 0.0, VolatilityTermStructure((1.0, 5.0), (0.3, 0.2))))
        for model in models:
            applied = grid.legs(survival(model, grid.times))
            fresh = cds_legs(sched, curve, model, convention)
            for a, f in zip(applied, fresh):
                assert np.array_equal(a, f)


class TestExactQuadrature:
    @pytest.mark.parametrize("h, sigma, r", [(0.85, 0.6, 0.03), (0.9, 1.0, 0.05),
                                             (0.7, 0.4, -0.005)])
    def test_flat_vol_protection_matches_rebate_identity(self, h, sigma, r):
        # in the variance clock v = sigma^2 t, discounting at r multiplies the
        # first-passage density of drift mu by e^{-(r / sigma^2) v}, which is
        # e^{x0 (mu' - mu)} times the density of drift mu' = -sqrt(mu^2 + 2 r / sigma^2)
        sched = make_schedule(0.0, 10.0, 4)
        params = At1pParams(h, 0.0, VolatilityTermStructure((10.0,), (sigma,)))
        protection, _ = cds_legs(sched, DiscountCurve(flat_rate=r), params, "exact")
        x0, mu, mu_r = -math.log(h), -0.5, -math.sqrt(0.25 + 2.0 * r / sigma ** 2)
        oracle = math.exp(x0 * (mu_r - mu)) * (
            1.0 - first_passage(math.log(h), mu_r + 0.5, sigma ** 2 * sched.dates)[0])
        big = oracle > 1e-12
        assert big.any()
        assert protection[big] == pytest.approx(oracle[big], rel=1e-12)

    def test_flat_hazard_on_pillar_curve_matches_piecewise_closed_form(self):
        # the curve's knots at 0.6y and 2.2y lie inside payment periods; on each
        # piece [u, v] of constant forward f, Q D = Q(u) D(u) e^{-k (t - u)} with
        # k = lam + f, so both legs integrate piece by piece in closed form
        lam = 0.04
        curve = DiscountCurve(pillars=((0.6, 0.985), (2.2, 0.93), (5.0, 0.83)))
        sched = make_schedule(0.0, 3.0, 4)
        protection, premium = cds_legs(sched, curve, hazard(lam), "exact")
        prot = prem = 0.0
        expected = []
        for start, end, alpha in zip(sched.dates - sched.accruals, sched.dates, sched.accruals):
            cuts = [start] + [t for t in (0.6, 2.2) if start < t < end] + [end]
            for u, v in zip(cuts, cuts[1:]):
                f = math.log(curve.discount(u) / curve.discount(v)) / (v - u)
                k, h = lam + f, v - u
                density = lam * math.exp(-lam * u) * curve.discount(u)
                prot += density * (1.0 - math.exp(-k * h)) / k
                prem += density * ((u - start) * (1.0 - math.exp(-k * h)) / k
                                   + (1.0 - math.exp(-k * h) * (1.0 + k * h)) / k ** 2)
            prem += curve.discount(end) * alpha * math.exp(-lam * end)
            expected.append((prot, prem))
        assert protection == pytest.approx([p for p, _ in expected], rel=1e-12)
        assert premium == pytest.approx([p for _, p in expected], rel=1e-12)

    def test_model_knots_inside_periods_split_the_pieces(self):
        # vol and hazard knots at 0.6y and 2.2y lie inside payment periods, where
        # survival bends; the reference integrates the default density -dQ/dt
        # piece by piece between dates and knots: for AT1P, with s the cumulative
        # variance and d1 = (-log H - s / 2) / sqrt(s), it is
        # -log H phi(d1) / s^1.5 sigma(t)^2, and for the hazard curve each piece
        # is closed form with k = lam + r
        r, knots, sched = 0.03, (0.6, 2.2, 5.0), make_schedule(0.0, 5.0, 4)
        curve = DiscountCurve(flat_rate=r)
        at1p = At1pParams(0.7, 0.0, VolatilityTermStructure(knots, (0.35, 0.15, 0.25)))
        hazard_curve = HazardCurve(knots, (0.02, 0.06, 0.04))

        def bucket(t):
            return int(np.searchsorted(knots, t, side="left"))

        def at1p_piece(u, v, start):
            def density(t):
                s = at1p.vols.clock(t)
                d1 = (-math.log(0.7) - 0.5 * s) / math.sqrt(s)
                return (-math.log(0.7) * math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)
                        / s ** 1.5 * at1p.vols.sigmas[bucket(0.5 * (u + v))] ** 2
                        * math.exp(-r * t))
            kwargs = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 200}
            return (integrate.quad(density, u, v, **kwargs)[0],
                    integrate.quad(lambda t: (t - start) * density(t), u, v, **kwargs)[0])

        def hazard_piece(u, v, start):
            lam = hazard_curve.lambdas[bucket(0.5 * (u + v))]
            k, h = lam + r, v - u
            mass = lam * survival(hazard_curve, u) * math.exp(-r * u)
            return (mass * (1.0 - math.exp(-k * h)) / k,
                    mass * ((u - start) * (1.0 - math.exp(-k * h)) / k
                            + (1.0 - math.exp(-k * h) * (1.0 + k * h)) / k ** 2))

        for model, piece in ((at1p, at1p_piece), (hazard_curve, hazard_piece)):
            protection, premium = cds_legs(sched, curve, model, "exact")
            prot = prem = 0.0
            expected = []
            for start, end, alpha in zip(sched.dates - sched.accruals, sched.dates,
                                         sched.accruals):
                cuts = [start] + [t for t in knots if start < t < end] + [end]
                for u, v in zip(cuts, cuts[1:]):
                    d_prot, d_accrual = piece(u, v, start)
                    prot, prem = prot + d_prot, prem + d_accrual
                prem += math.exp(-r * end) * alpha * survival(model, end)
                expected.append((prot, prem))
            assert protection == pytest.approx([p for p, _ in expected], rel=1e-12)
            assert premium == pytest.approx([p for _, p in expected], rel=1e-12)

    def test_underflowing_discount_factors_stay_finite(self):
        # at a rate of 8000% the 10y discount factor underflows to 0, the first ones do not
        grid = leg_grid(make_schedule(0.0, 10.0, 4), DiscountCurve(flat_rate=80.0), "exact")
        assert np.all(np.isfinite(grid.legs(survival(hazard(0.02), grid.times))))

    def test_preset_fits_converged_in_nodes_and_halvings(self, flat_curve, monkeypatch):
        fits = [(strip, fit(strip, flat_curve, convention="exact")[0])
                for strip in map(preset_strip, sorted(STRIP_PRESETS))
                for fit in (bootstrap_intensity, calibrate_at1p, calibrate_sbtv)]

        def spreads_bp():
            return np.array([fair_spread(make_schedule(0.0, t, 4), flat_curve, model,
                                         strip.recovery, "exact")
                             for strip, model in fits for t in strip.tenors]) * 1e4

        default = spreads_bp()
        monkeypatch.setattr(cds, "GAUSS_NODES", 40)
        monkeypatch.setattr(cds, "FIRST_PERIOD_HALVINGS", 30)
        assert np.max(np.abs(spreads_bp() - default)) < 1e-9


class TestConventionAgreement:
    def test_convergence_with_payment_frequency(self):
        curve = DiscountCurve(flat_rate=0.03)
        surv = hazard(0.04)
        gaps = []
        for freq in (1, 4, 12):
            sched = make_schedule(0.0, 5.0, freq)
            contract = CdsContract(sched, spread=0.024, recovery=0.4)
            gaps.append(abs(cds_price(contract, curve, surv, "exact")
                            - cds_price(contract, curve, surv, "postponed")))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_quarterly_fair_spreads_close(self):
        # at quarterly frequency and spreads <= 1500 bp the conventions
        # differ by < 3% relative
        curve = DiscountCurve(flat_rate=0.03)
        sched = make_schedule(0.0, 5.0, 4)
        for lam in (0.005, 0.05, 0.25):
            exact = fair_spread(sched, curve, hazard(lam), 0.4, "exact")
            post = fair_spread(sched, curve, hazard(lam), 0.4, "postponed")
            assert abs(exact - post) / exact < 0.03

    @given(lam=st.floats(0.005, 0.2), scale=st.floats(1.01, 3.0))
    @settings(max_examples=40)
    def test_fair_spread_monotone_in_default_risk(self, lam, scale):
        curve = DiscountCurve(flat_rate=0.03)
        sched = make_schedule(0.0, 5.0, 4)
        low = fair_spread(sched, curve, hazard(lam), 0.4)
        high = fair_spread(sched, curve, hazard(lam * scale), 0.4)
        assert high >= low
