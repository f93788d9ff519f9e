import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpcredit import (At1pParams, DomainError, HazardCurve, SbtvParams,
                      VolatilityTermStructure, at1p_survival, intensity_survival,
                      sbtv_survival)
from fpcredit.survival import first_passage, survival

LEHMAN_2007_VOLS = VolatilityTermStructure(
    bucket_ends=(1.0, 3.0, 5.0, 7.0, 10.0),
    sigmas=(0.292, 0.140, 0.145, 0.120, 0.127))


def flat_vols(sigma, end=30.0):
    return VolatilityTermStructure(bucket_ends=(end,), sigmas=(sigma,))


class TestVolatilityTermStructure:
    def test_cumulative_variance_additive_across_buckets(self):
        vols = LEHMAN_2007_VOLS
        ends = np.concatenate(([0.0], np.array(vols.bucket_ends)))
        total = np.sum(np.array(vols.sigmas) ** 2 * np.diff(ends))
        assert vols.clock(vols.bucket_ends[-1]) == total

    def test_flat_extension_beyond_last_bucket(self):
        vols = LEHMAN_2007_VOLS
        cv10 = vols.clock(10.0)
        assert vols.clock(12.0) == pytest.approx(
            cv10 + 0.127 ** 2 * 2.0, rel=1e-14)

    def test_zero_at_origin_and_increasing(self):
        vols = LEHMAN_2007_VOLS
        ts = np.linspace(0.0, 15.0, 200)
        cv = vols.clock(ts)
        assert cv[0] == 0.0
        assert np.all(np.diff(cv) > 0)

    def test_validation(self):
        with pytest.raises(DomainError):
            VolatilityTermStructure(bucket_ends=(1.0, 1.0), sigmas=(0.2, 0.2))
        with pytest.raises(DomainError):
            VolatilityTermStructure(bucket_ends=(1.0,), sigmas=(0.0,))


class TestAt1pSurvival:
    def test_2007_one_year_value(self):
        params = At1pParams(h_over_v0=0.4, b=0.0, vols=LEHMAN_2007_VOLS)
        assert at1p_survival(params, 1.0) == pytest.approx(0.997, abs=1e-3)

    def test_survival_one_at_time_zero(self):
        params = At1pParams(h_over_v0=0.4, b=0.0, vols=LEHMAN_2007_VOLS)
        assert at1p_survival(params, 0.0) == 1.0

    def test_vanishing_volatility_limit(self):
        params = At1pParams(h_over_v0=0.4, b=0.0, vols=flat_vols(1e-8))
        assert at1p_survival(params, 5.0) == pytest.approx(1.0, abs=1e-12)

    def test_huge_volatility_limit(self):
        params = At1pParams(h_over_v0=0.4, b=0.0, vols=flat_vols(4.9))
        q = at1p_survival(params, 30.0)
        assert 0.0 <= q < 1e-6

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            At1pParams(h_over_v0=1.0, b=0.0, vols=flat_vols(0.2))
        params = At1pParams(h_over_v0=0.4, b=0.0, vols=flat_vols(0.2))
        with pytest.raises(DomainError):
            at1p_survival(params, -1.0)

    def test_against_first_passage_monte_carlo(self):
        # independent oracle: exact Brownian steps for log(V/H(t)) plus the
        # analytic bridge-crossing probability per step, so the first-passage
        # law is sampled exactly even on a coarse grid
        h, sigma, T, n_steps, n_paths = 0.4, 0.20, 5.0, 5, 400_000
        rng = np.random.default_rng(20240401)
        dt = T / n_steps
        dvar = sigma ** 2 * dt
        x = np.full(n_paths, -math.log(h))
        alive = np.ones(n_paths, dtype=bool)
        for _ in range(n_steps):
            z = rng.standard_normal(n_paths)
            x_new = x - 0.5 * dvar + math.sqrt(dvar) * z
            hit = alive & (x_new <= 0)
            bridge = alive & ~hit
            p_cross = np.exp(-2.0 * x[bridge] * x_new[bridge] / dvar)
            hit_mid = np.zeros(n_paths, dtype=bool)
            hit_mid[bridge] = rng.random(bridge.sum()) < p_cross
            alive &= ~hit & ~hit_mid
            x = x_new
        q_mc = alive.mean()
        params = At1pParams(h_over_v0=h, b=0.0, vols=flat_vols(sigma))
        q_cf = at1p_survival(params, T)
        se = math.sqrt(q_cf * (1 - q_cf) / n_paths)
        assert abs(q_mc - q_cf) < 3 * se

    @given(h=st.floats(0.05, 0.95), t=st.floats(0.01, 20.0))
    @settings(max_examples=60)
    def test_bounds_and_monotone_in_time(self, h, t):
        params = At1pParams(h_over_v0=h, b=0.0, vols=flat_vols(0.25))
        q1, q2 = at1p_survival(params, t), at1p_survival(params, t * 1.5)
        assert 0.0 <= q2 <= q1 <= 1.0

    @given(h1=st.floats(0.05, 0.9), bump=st.floats(0.01, 0.09), t=st.floats(0.1, 10.0))
    @settings(max_examples=60)
    def test_strictly_decreasing_in_barrier(self, h1, bump, t):
        vols = flat_vols(0.25)
        qa = at1p_survival(At1pParams(h1, 0.0, vols), t)
        qb = at1p_survival(At1pParams(h1 + bump, 0.0, vols), t)
        assert qb <= qa
        # strictness can only be lost where both saturate at 1 in doubles
        if qa < 1.0 - 1e-12:
            assert qb < qa

    @given(h=st.floats(0.05, 0.95), v0=st.floats(0.5, 200.0), t=st.floats(0.1, 10.0))
    @settings(max_examples=60)
    def test_homogeneity_in_barrier_and_initial_value(self, h, v0, t):
        # H and V0 enter only through their ratio: scaling both is a no-op
        vols = flat_vols(0.3)
        ratio_a = (h * v0) / v0
        ratio_b = (h * 2.0 * v0) / (2.0 * v0)
        qa = at1p_survival(At1pParams(ratio_a, 0.0, vols), t)
        qb = at1p_survival(At1pParams(ratio_b, 0.0, vols), t)
        assert qa == qb


class TestFirstPassageKernel:
    @pytest.mark.parametrize("b", [0.0, 0.3, 0.8])
    def test_column_of_barriers_matches_at1p_bit_for_bit(self, b):
        hs = (0.05, 0.4, 0.7313, 0.97)
        t = np.array([0.0, 1e-9, 0.25, 1.0, 3.0, 5.0, 12.0, 40.0])
        column = np.array([[math.log(h)] for h in hs])
        q, dq_ds, second = first_passage(column, b, LEHMAN_2007_VOLS.clock(t))
        assert q.shape == dq_ds.shape == second.shape == (len(hs), t.size)
        for h, row in zip(hs, q):
            assert np.array_equal(row, at1p_survival(At1pParams(h, b, LEHMAN_2007_VOLS), t))
        assert np.all(q[:, 0] == 1.0)

    @pytest.mark.parametrize("b", [-0.4, 0.3, 0.8])
    def test_slope_matches_central_differences(self, b):
        # five-point central differences at a 1e-3 relative step, in the variance from
        # 1e-8 (where both are 0 or nearly) to 50, and in log H at each variance, where
        # the slope is -2 S dQ/dS / log H - a H^a Phi(d2); the bound adds their round-off
        log_h = np.log([[0.05], [0.3], [0.7313], [0.97]])
        cv = np.geomspace(1e-8, 50.0, 61)
        step, step_h = 1e-3 * cv, -1e-3 * log_h
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, slope, second = first_passage(log_h, b, cv)
            slope_h = -2.0 * cv * slope / log_h - (2.0 * b - 1.0) * second
            q = [first_passage(log_h, b, cv + k * step)[0] for k in (-2, -1, 1, 2)]
            q_h = [first_passage(log_h + k * step_h, b, cv)[0] for k in (-2, -1, 1, 2)]
        for derivative, q, step in ((slope, q, step), (slope_h, q_h, step_h)):
            central = (8.0 * (q[2] - q[1]) - q[3] + q[0]) / (12.0 * step)
            assert np.all(np.abs(derivative - central)
                          <= 1e-6 * np.abs(central) + 1e-15 / step)
            assert derivative.min() < -1.0 and np.all(derivative <= 0.0)

    @pytest.mark.parametrize("b", [-300.0, 0.0, 0.3])
    def test_q_is_survival_bit_for_bit(self, b):
        # from t = 0, where Q is 1, with no RuntimeWarning
        at1p = At1pParams(0.4, b, LEHMAN_2007_VOLS)
        t = np.array([0.0, 1e-9, 0.25, 1.0, 3.0, 7.5, 12.0, 40.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q, _, _ = first_passage(math.log(0.4), b, LEHMAN_2007_VOLS.clock(t))
            assert np.array_equal(q, survival(at1p, t))
        assert q[0] == 1.0

    def test_mixture_sums_the_scenarios_bit_for_bit(self):
        scenarios = ((0.3, 0.25), (0.6, 0.5), (0.9, 0.25))
        params = SbtvParams(scenarios, 0.2, LEHMAN_2007_VOLS)
        t = np.array([0.0, 0.5, 2.0, 7.5, 15.0])
        expected = sum(p * at1p_survival(At1pParams(h, 0.2, LEHMAN_2007_VOLS), t)
                       for h, p in scenarios)
        assert np.array_equal(sbtv_survival(params, t), expected)
        assert sbtv_survival(params, 2.0) == expected[2]


class TestSbtvSurvival:
    def test_published_scenario_mixture_2007(self):
        vols = VolatilityTermStructure((1.0, 3.0, 5.0, 7.0, 10.0),
                                       (0.166, 0.166, 0.166, 0.126, 0.129))
        params = SbtvParams(((0.4, 0.962), (0.7313, 0.038)), 0.0, vols)
        assert sbtv_survival(params, 1.0) == pytest.approx(0.997, abs=1e-3)

    def test_published_scenario_mixture_sept_2008(self):
        vols = VolatilityTermStructure((1.0, 3.0, 5.0, 7.0, 10.0),
                                       (0.196, 0.196, 0.196, 0.218, 0.237))
        params = SbtvParams(((0.4, 0.5), (0.8427, 0.5)), 0.0, vols)
        assert sbtv_survival(params, 10.0) == pytest.approx(0.436, abs=0.01)

    def test_degenerate_single_scenario(self):
        vols = LEHMAN_2007_VOLS
        mix = SbtvParams(((0.4, 1.0),), 0.0, vols)
        single = At1pParams(0.4, 0.0, vols)
        for t in (0.5, 2.0, 7.5):
            assert sbtv_survival(mix, t) == at1p_survival(single, t)

    @pytest.mark.parametrize("b", [0.0, 0.6])
    def test_at1p_is_the_one_scenario_case_bit_for_bit(self, b):
        at1p = At1pParams(0.37, b, LEHMAN_2007_VOLS)
        mix = SbtvParams(at1p.scenarios, b, LEHMAN_2007_VOLS)
        assert at1p.scenarios == ((0.37, 1.0),)
        t = np.linspace(0.0, 12.0, 97)
        assert np.array_equal(survival(mix, t), survival(at1p, t))
        assert np.array_equal(survival(at1p, t), first_passage(
            math.log(0.37), b, LEHMAN_2007_VOLS.clock(t))[0])

    @given(p1=st.floats(0.0, 1.0), t=st.floats(0.1, 10.0))
    @settings(max_examples=60)
    def test_convex_combination_bounds(self, p1, t):
        vols = flat_vols(0.25)
        params = SbtvParams(((0.3, p1), (0.8, 1.0 - p1)), 0.0, vols)
        qs = [at1p_survival(At1pParams(h, 0.0, vols), t) for h, _ in params.scenarios]
        q = sbtv_survival(params, t)
        assert min(qs) - 1e-15 <= q <= max(qs) + 1e-15

    def test_validation(self):
        vols = flat_vols(0.2)
        with pytest.raises(DomainError):
            SbtvParams(((0.4, 0.5), (0.7, 0.4)), 0.0, vols)  # probs sum != 1
        with pytest.raises(DomainError):
            SbtvParams(((0.7, 0.5), (0.4, 0.5)), 0.0, vols)  # not increasing
        with pytest.raises(DomainError):
            SbtvParams(((0.4, 0.5), (1.1, 0.5)), 0.0, vols)  # barrier >= 1


class TestIntensitySurvival:
    def test_zero_hazard(self):
        hazard = HazardCurve((10.0,), (0.0,))
        for t in (0.0, 1.0, 25.0):
            assert intensity_survival(hazard, t) == 1.0

    def test_single_bucket_reference_value(self):
        hazard = HazardCurve((1.0,), (0.00267,))
        assert intensity_survival(hazard, 1.0) == pytest.approx(
            math.exp(-0.00267), rel=1e-14)
        assert intensity_survival(hazard, 1.0) == pytest.approx(0.997, abs=5e-4)

    def test_two_bucket_integral(self):
        hazard = HazardCurve((1.0, 2.0), (0.02, 0.04))
        assert intensity_survival(hazard, 2.0) == pytest.approx(math.exp(-0.06), rel=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            intensity_survival(HazardCurve((1.0,), (0.01,)), -0.5)

    @given(lam=st.floats(0.0, 1.0), t=st.floats(0.0, 20.0))
    def test_bounds_and_start(self, lam, t):
        hazard = HazardCurve((2.0, 5.0), (lam, 0.5 * lam))
        q = intensity_survival(hazard, t)
        assert 0.0 < q <= 1.0
        assert intensity_survival(hazard, 0.0) == 1.0


class TestSurvivalDispatch:
    MODELS = (At1pParams(0.4, 0.0, LEHMAN_2007_VOLS),
              SbtvParams(((0.4, 0.9), (0.7, 0.1)), 0.0, LEHMAN_2007_VOLS),
              HazardCurve((1.0, 5.0), (0.01, 0.02)))

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_matches_closed_form_and_returns_float_for_scalars(self, model):
        closed_form = {At1pParams: at1p_survival, SbtvParams: sbtv_survival,
                       HazardCurve: intensity_survival}[type(model)]
        ts = np.array([0.0, 0.5, 3.0, 12.0])
        assert np.array_equal(survival(model, ts), closed_form(model, ts))
        for t in (2.0, np.float64(2.0), np.array(2.0)):
            q = survival(model, t)
            assert type(q) is float and q == closed_form(model, 2.0)

    def test_unknown_model_rejected(self):
        with pytest.raises(DomainError):
            survival(LEHMAN_2007_VOLS, 1.0)
