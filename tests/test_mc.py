import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp, kstest, norm

from fpcredit import (At1pParams, DegenerateInputError, DiscountCurve, DomainError,
                      ErsContract, HazardCurve, PathRecords, SbtvParams, SimulationConfig,
                      VolatilityTermStructure, at1p_survival, ers_cva_term, ers_fair_spread,
                      ers_fair_spread_from_paths, make_ers_contract, make_schedule,
                      sbtv_survival, simulate_intensity_paths, simulate_joint_paths)
from fpcredit import mc
from fpcredit.survival import survival
from oracles import (early_default_paths, ers_npv_at_default_termwise,
                     fair_spread_fresh_arrays, firm_bm_at_default_dense,
                     fixed_point_by_breakpoints, npv_three_term, regression_control_variate)

# three buckets and a flat tail: the 5y maturity lies past the last bucket
THREE_BUCKETS = VolatilityTermStructure((1.0, 2.0, 4.0), (0.35, 0.25, 0.30))

NON_FINITE_EQUITY = "^discounted equity at default discounted_s_tau must be finite"


def flat_at1p(h=0.4, sigma=0.25, b=0.0, end=30.0):
    return At1pParams(h_over_v0=h, b=b,
                      vols=VolatilityTermStructure((end,), (sigma,)))


def killed_density(y, x0, mu, v):
    """Density at y > 0 of x0 + mu*v + W(v) on the paths that stayed above 0."""
    sd = math.sqrt(v)
    return (norm.pdf((y - x0 - mu * v) / sd)
            - math.exp(-2.0 * mu * x0) * norm.pdf((y + x0 - mu * v) / sd)) / sd


def equity_ratio(paths, ers):
    """P(0,tau) e^{q tau} S_tau / s0 on the defaulted paths."""
    return np.exp(ers.dividend_yield * paths.tau) * paths.discounted_s_tau / ers.s0


def record_passages(monkeypatch):
    """(x0, x_end, v_end, v*) of every first-passage draw made from here on,
    one x0, x_end and v* per defaulted path, from an empty slot."""
    monkeypatch.setattr(mc, "_last_draw", None)
    calls, real = [], mc._first_passage_variance

    def recording(rng, x0, x_end, v_end):
        v_star = real(rng, x0, x_end, v_end)
        calls.append((x0.copy(), x_end.copy(), v_end, v_star.copy()))
        return v_star

    monkeypatch.setattr(mc, "_first_passage_variance", recording)
    return calls


def bridge_knots(vols, maturity):
    """knot_v and sigmas as `mc._firm_draw` builds them for `_firm_bm_at_default`."""
    clock = vols.clock
    knot_t = np.append(clock.knot_t[clock.knot_t < maturity], maturity)
    return clock(knot_t), (vols.sigmas + vols.sigmas[-1:])[:knot_t.size - 1]


def survival_from(y, mu, v):
    """Probability that y + mu*s + W(s) stays above 0 for s <= v."""
    sd = math.sqrt(v)
    return norm.cdf((y + mu * v) / sd) - math.exp(-2.0 * mu * y) * norm.cdf((-y + mu * v) / sd)


@pytest.fixture(scope="module")
def curve():
    return DiscountCurve(flat_rate=0.03)


@pytest.fixture(scope="module")
def ers():
    return make_ers_contract(rho=-0.5)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SimulationConfig(n_paths=1)
        with pytest.raises(DomainError):
            SimulationConfig(rng_seed=-1)
        with pytest.raises(DomainError):
            SimulationConfig(n_paths=10**12)
        assert SimulationConfig(n_paths=10**6).n_paths == 10**6
        assert SimulationConfig(n_paths=np.int64(10), rng_seed=np.uint32(3)).n_paths == 10

    @pytest.mark.parametrize("value", [True, 1000.0, math.nan, "1000", None])
    @pytest.mark.parametrize("name", ["n_paths", "rng_seed"])
    def test_config_rejects_non_integers(self, name, value):
        with pytest.raises(DomainError):
            SimulationConfig(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["s0", "equity_vol", "dividend_yield", "recovery",
                                      "rho", "stock_count"])
    def test_contract_rejects_non_finite(self, name, value):
        with pytest.raises(DomainError):
            make_ers_contract(**{name: value})

    @pytest.mark.parametrize("start", [1.0, -0.5], ids=["forward", "past"])
    def test_contract_rejects_a_start_other_than_spot(self, start):
        # the three-term NPV form holds for T_0 = 0 only: a forward start was
        # priced with it anyway, and a past start failed on a discount time
        schedule = make_schedule(start, start + 5.0, 2)
        with pytest.raises(DomainError, match=f"spot-starting ERS.*starting at {start}$"):
            ErsContract(s0=20.0, equity_vol=0.2, dividend_yield=0.008, schedule=schedule,
                        recovery=0.4, rho=0.0)

    def test_contract_validation(self):
        with pytest.raises(DomainError):
            make_ers_contract(rho=1.5)
        with pytest.raises(DomainError):
            make_ers_contract(s0=-1.0)
        for stock_count in (0.0, -1.0):
            with pytest.raises(DomainError, match="stock count"):
                make_ers_contract(stock_count=stock_count)


class TestPathRecords:
    """The path count n, and tau and discounted_s_tau on the k <= n paths that default."""

    def records(self, **changes):
        fields = {"n_paths": 5, "tau": np.array([0.5, 1.0, 2.0]),
                  "discounted_s_tau": np.array([18.0, 20.0, 22.0]),
                  "default_prob_closed_form": 0.5}
        return PathRecords(**{**fields, **changes})

    def test_one_entry_per_defaulted_path(self):
        assert self.records().n_paths == 5
        assert self.records(n_paths=np.int64(3)).n_paths == 3
        none = self.records(n_paths=2, tau=np.empty(0), discounted_s_tau=[])
        assert none.n_paths == 2 and none.tau.size == 0
        for p in (0.0, 1.0):
            assert self.records(default_prob_closed_form=p).default_prob_closed_form == p

    @pytest.mark.parametrize("changes, message", [
        ({"n_paths": 5.0}, "n_paths must be an integer"),
        ({"n_paths": True}, "n_paths must be an integer"),
        ({"n_paths": "5"}, "n_paths must be an integer"),
        ({"n_paths": None}, "n_paths must be an integer"),
        ({"n_paths": 0, "tau": np.empty(0), "discounted_s_tau": np.empty(0)},
         "n_paths must be at least 2"),
        ({"n_paths": 1, "tau": np.array([0.5]), "discounted_s_tau": np.array([18.0])},
         "n_paths must be at least 2"),
        ({"n_paths": 2}, r"^tau must be 1-d with one entry per defaulted path, at most "
                         r"n_paths \(2\)"),
        ({"tau": np.array([0.5, 1.0])}, r"^discounted_s_tau must be 1-d .* as tau \(2\)"),
        ({"discounted_s_tau": np.array([18.0, 20.0, 22.0, 24.0])},
         r"^discounted_s_tau must be 1-d .* as tau \(3\)"),
        ({"tau": np.array([[0.5, 1.0, 2.0]])}, "^tau must be 1-d"),
        ({"tau": np.float64(0.5)}, "^tau must be 1-d"),
        ({"discounted_s_tau": np.array([[18.0, 20.0, 22.0]])}, "^discounted_s_tau must be 1-d"),
        ({"discounted_s_tau": np.float64(18.0)}, "^discounted_s_tau must be 1-d"),
        ({"tau": np.array([0.5, np.nan, 2.0])}, "^default time tau must be finite"),
        ({"tau": np.array([0.5, 1.0, np.inf])}, "^default time tau must be finite"),
        ({"tau": np.array([-np.inf, 1.0, 2.0])}, "^default time tau must be finite"),
        ({"discounted_s_tau": np.array([18.0, np.nan, 22.0])}, NON_FINITE_EQUITY),
        ({"discounted_s_tau": np.array([np.inf, 20.0, 22.0])}, NON_FINITE_EQUITY),
        ({"discounted_s_tau": np.array([18.0, 20.0, -np.inf])}, NON_FINITE_EQUITY),
        ({"default_prob_closed_form": math.nan}, "default_prob_closed_form must be a finite"),
        ({"default_prob_closed_form": -0.1}, r"default_prob_closed_form must lie in \[0, 1\]"),
        ({"default_prob_closed_form": 1.5}, r"default_prob_closed_form must lie in \[0, 1\]"),
    ], ids=["n-float", "n-bool", "n-str", "n-none", "n-0", "n-1", "k>n", "tau-shorter",
            "s-longer", "tau-2-d", "tau-0-d", "s-2-d", "s-0-d", "tau-nan", "tau-inf", "tau-neg-inf",
            "s-nan", "s-inf", "s-neg-inf", "pd-nan", "pd-neg", "pd-above-1"])
    def test_rejects(self, changes, message):
        with pytest.raises(DomainError, match=message):
            self.records(**changes)

    def test_the_per_path_layout_is_rejected(self):
        # n entries, +inf and nan on the paths that survive
        with pytest.raises(DomainError, match="must be finite"):
            self.records(tau=np.array([np.inf, 0.5, np.inf, 1.0, 2.0]),
                         discounted_s_tau=np.array([np.nan, 18.0, np.nan, 20.0, 22.0]))


class TestDefaultSampling:
    def test_default_prob_matches_closed_form_with_bridge(self, ers):
        model = flat_at1p(sigma=0.25)
        cfg = SimulationConfig(n_paths=60_000, rng_seed=7)
        paths = simulate_joint_paths(model, ers, cfg)
        pd_cf = 1.0 - at1p_survival(model, ers.maturity)
        pd_mc = paths.tau.size / paths.n_paths
        se = math.sqrt(pd_cf * (1 - pd_cf) / cfg.n_paths)
        assert abs(pd_mc - pd_cf) < 3.5 * se
        assert paths.default_prob_closed_form == pytest.approx(pd_cf)

    @pytest.mark.parametrize("model", [
        flat_at1p(h=1e-6, sigma=0.15),
        SbtvParams(((1e-6, 0.5), (1e-5, 0.5)), 0.0, VolatilityTermStructure((30.0,), (0.15,)))],
        ids=["at1p", "sbtv"])
    def test_remote_barrier_produces_no_defaults(self, ers, model):
        # the reflected weight is positive while the default probability
        # rounds to 0: no negative piece weight and no warning
        paths = simulate_joint_paths(model, ers, SimulationConfig(n_paths=5_000, rng_seed=1))
        assert paths.n_paths == 5_000
        assert paths.tau.size == paths.discounted_s_tau.size == 0

    def test_default_times_identical_across_correlation(self):
        # the firm path consumes the same draws whatever rho is, so default
        # times must coincide at a fixed seed
        model = flat_at1p(sigma=0.3)
        cfg = SimulationConfig(n_paths=4_000, rng_seed=11)
        taus = []
        for rho in (-1.0, 0.0, 0.9):
            paths = simulate_joint_paths(model, make_ers_contract(rho=rho), cfg)
            taus.append(paths.tau)
        assert np.array_equal(taus[0], taus[1])
        assert np.array_equal(taus[0], taus[2])

    @pytest.mark.parametrize("b", [0.0, 0.5, 0.8], ids=["nu>0", "nu=0", "nu<0"])
    @pytest.mark.parametrize("scenarios", [((0.4, 0.7), (0.73, 0.3)),
                                           ((0.3, 0.2), (0.6, 0.5), (0.85, 0.3))],
                             ids=["2-scenarios", "3-scenarios"])
    def test_scenario_default_counts_are_multinomial(self, monkeypatch, scenarios, b):
        # each scenario defaults on n p_i PD_i paths, within 3 SE, read off the
        # starts the defaulted paths take into the first-passage draw
        model = SbtvParams(scenarios, b, THREE_BUCKETS)
        calls, n = record_passages(monkeypatch), 50_000
        draw = mc._firm_draw(model, 5.0, n, 3)
        [(x0, _, _, _)] = calls
        assert x0.size == draw.tau.size
        assert set(np.unique(x0)) <= {-math.log(h) for h, _ in scenarios}
        for h, p in scenarios:
            expected = p * (1.0 - at1p_survival(At1pParams(h, b, THREE_BUCKETS), 5.0))
            se = math.sqrt(expected * (1.0 - expected) / n)
            assert abs(np.count_nonzero(x0 == -math.log(h)) / n - expected) < 3 * se

    def test_one_scenario_sbtv_draws_the_at1p_paths(self, ers):
        at1p = At1pParams(0.4, 0.0, THREE_BUCKETS)
        mix = SbtvParams(at1p.scenarios, 0.0, THREE_BUCKETS)
        cfg = SimulationConfig(n_paths=20_000, rng_seed=17)
        a = simulate_joint_paths(at1p, ers, cfg)
        b = simulate_joint_paths(mix, ers, cfg)
        assert a.tau.size > 0
        assert np.array_equal(a.tau, b.tau)
        assert np.array_equal(a.discounted_s_tau, b.discounted_s_tau)

    def test_default_at_the_maturity_variance_stays_at_maturity(self, monkeypatch, ers):
        # the 5y maturity falls inside the (0.7, 5.7] bucket, where inverting the
        # clock at its own value c(5) rounds to just past 5
        model = At1pParams(0.4, 0.0, VolatilityTermStructure((0.7, 5.7), (0.4, 0.25)))
        v_maturity = model.vols.clock(ers.maturity)
        assert model.vols.clock.inverse(v_maturity) > ers.maturity
        monkeypatch.setattr(mc, "_last_draw", None)  # keep the patched draw out of the slot
        ends = []
        monkeypatch.setattr(mc, "_first_passage_variance", lambda rng, x0, x_end, v_end: (
            ends.append(v_end), np.full(x0.size, v_end))[1])
        paths = simulate_joint_paths(model, ers, SimulationConfig(n_paths=100, rng_seed=1))
        assert ends == [v_maturity]
        assert paths.tau.size > 0 and np.all(paths.tau == ers.maturity)

    def test_equity_martingale_at_default(self):
        # at rho = 0 the equity is independent of the firm, so its
        # discounted, dividend-adjusted value at default has mean s0
        ers = make_ers_contract(rho=0.0)
        paths = simulate_joint_paths(At1pParams(0.4, 0.0, THREE_BUCKETS), ers,
                                     SimulationConfig(n_paths=80_000, rng_seed=5))
        ratio = equity_ratio(paths, ers)
        se = ratio.std(ddof=1) / math.sqrt(ratio.size)
        assert abs(ratio.mean() - 1.0) < 4 * se

    def test_seed_determinism(self, ers):
        model = flat_at1p(sigma=0.3)
        cfg = SimulationConfig(n_paths=3_000, rng_seed=42)
        a = simulate_joint_paths(model, ers, cfg)
        b = simulate_joint_paths(model, ers, cfg)
        assert np.array_equal(a.tau, b.tau)
        assert np.array_equal(a.discounted_s_tau, b.discounted_s_tau)
        c = simulate_joint_paths(model, ers, SimulationConfig(n_paths=3_000, rng_seed=43))
        assert not np.array_equal(a.tau, c.tau)


class TestExactSampler:
    @pytest.mark.parametrize("b", [-300.0, -1.0, 0.0, 0.5, 0.8, 2.0])
    @pytest.mark.parametrize("h", [0.4, 0.9])
    def test_first_passages_are_finite_and_below_the_maturity_variance(self, monkeypatch,
                                                                       h, b):
        # from nu = 300.5, where every path defaults and exp(2 nu x0) would
        # overflow, to nu = -1.5: no warning, and every v* in (0, V)
        calls = record_passages(monkeypatch)
        draw = mc._firm_draw(At1pParams(h, b, THREE_BUCKETS), 5.0, 20_000, 43)
        [(x0, x_end, v_end, v_star)] = calls
        assert v_end == THREE_BUCKETS.clock(5.0) and v_star.size == draw.tau.size
        assert np.isfinite(x_end).all() and np.all((0.0 < v_star) & (v_star < v_end))
        if b == -300.0:
            assert draw.tau.size == 20_000 and np.all(x_end < 0)
        elif b <= 0.8:
            assert 0 < draw.tau.size < 20_000 and np.any(x_end > 0) and np.any(x_end < 0)

    @pytest.mark.parametrize("model", [
        At1pParams(0.4, 0.0, THREE_BUCKETS),
        At1pParams(0.4, 0.5, THREE_BUCKETS),
        At1pParams(0.4, 0.8, THREE_BUCKETS),
        SbtvParams(((0.3, 0.6), (0.7, 0.4)), 0.0, THREE_BUCKETS),
        SbtvParams(((0.3, 0.2), (0.6, 0.5), (0.85, 0.3)), 0.3, THREE_BUCKETS),
        HazardCurve((2.0, 30.0), (0.05, 0.03)),
        HazardCurve((1.0, 3.0, 5.0, 7.0), (0.23, 0.09, 0.05, 0.06)),  # 5y on a knot
        HazardCurve((4.99, 5.0, 10.0), (1e-4, 10.0, 0.02)),  # a step up at maturity
        "lehman-2008-09-12",  # the preset's intensity fit
    ], ids=["b=0", "b=0.5", "b=0.8", "sbtv-2", "sbtv-3", "hazard", "hazard-knot-at-T",
            "hazard-step-at-T", "hazard-lehman"])
    def test_default_time_has_the_conditional_law(self, lehman_calibrations, model):
        # one-sample KS of the default times against (1 - Q(t)) / PD(T), for
        # nu > 0, nu = 0 and nu < 0, for barrier scenarios and for hazard curves
        if isinstance(model, str):
            model = lehman_calibrations[model]["intensity"][0]
        pd = 1.0 - survival(model, 5.0)
        draw = mc._firm_draw(model, 5.0, 200_000, 47)
        assert draw.tau.size > 10_000 and draw.tau.max() <= 5.0
        assert kstest(draw.tau, lambda t: (1.0 - survival(model, t)) / pd).pvalue > 1e-3

    VOLS = [VolatilityTermStructure((10.0,), (0.3,)),
            VolatilityTermStructure((1.0, 3.0, 30.0), (0.35, 0.2, 0.3)),
            VolatilityTermStructure((0.5, 1.0, 2.0, 3.5), (0.4, 0.25, 0.3, 0.45))]
    VOL_IDS = ["no-bucket-end", "3-pieces", "5-pieces-tail"]

    @pytest.mark.parametrize("nu", [0.5, -0.3])
    @pytest.mark.parametrize("vols", VOLS, ids=VOL_IDS)
    def test_radial_bridge_has_the_dense_bridge_law(self, vols, nu):
        # two-sample KS of W1 from the bridge's radius alone against W1 from
        # the 3-d bridge's coordinates, on the same first passages and starts,
        # some exactly at a knot
        knot_v, sigmas = bridge_knots(vols, 5.0)
        rng = np.random.default_rng(19)
        v_star = knot_v[-1] * (1.0 - rng.random(20_000))
        v_star[1::97] = np.resize(knot_v[1:], v_star[1::97].size)
        x0 = np.where(rng.random(v_star.size) < 0.4, -math.log(0.3), -math.log(0.6))
        w1 = mc._firm_bm_at_default(np.random.default_rng(23), v_star, x0, nu, knot_v, sigmas)
        dense = firm_bm_at_default_dense(np.random.default_rng(29), v_star, x0, nu, knot_v,
                                         sigmas)
        assert w1.dtype == np.float64 and w1.shape == v_star.shape and np.isfinite(w1).all()
        assert ks_2samp(w1, dense).pvalue > 1e-3

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("vols", VOLS, ids=VOL_IDS)
    def test_radial_bridge_on_no_path_or_one(self, vols, k):
        # a path that defaults before the first bucket end draws nothing, and
        # its W1 is b(v*) / sigma; one that defaults in the last piece is finite
        knot_v, sigmas = bridge_knots(vols, 5.0)
        for v_star in (0.5 * knot_v[1], 0.5 * (knot_v[-2] + knot_v[-1])):
            v_star, x0, rng = np.full(k, v_star), np.full(k, 0.9), np.random.default_rng(31)
            state = rng.bit_generator.state
            w1 = mc._firm_bm_at_default(rng, v_star, x0, 0.5, knot_v, sigmas)
            assert w1.dtype == np.float64 and w1.shape == (k,) and np.isfinite(w1).all()
            if k == 0 or v_star[0] < knot_v[1]:
                assert rng.bit_generator.state == state
                assert np.array_equal(w1, (0.5 * v_star - x0) / sigmas[0])

    @pytest.mark.parametrize("model, survival", [
        (At1pParams(0.4, 0.0, THREE_BUCKETS), at1p_survival),
        (At1pParams(0.4, 0.5, THREE_BUCKETS), at1p_survival),
        (At1pParams(0.4, 0.8, THREE_BUCKETS), at1p_survival),
        (SbtvParams(((0.3, 0.6), (0.7, 0.4)), 0.0, THREE_BUCKETS), sbtv_survival),
    ], ids=["b=0", "b=0.5", "b=0.8", "sbtv"])
    def test_default_time_matches_closed_form(self, model, survival):
        # one case per first-passage branch: inverse Gaussian (B < 1/2),
        # Levy (B = 1/2) and the defective law (B > 1/2)
        cfg = SimulationConfig(n_paths=200_000, rng_seed=29)
        paths = simulate_joint_paths(model, make_ers_contract(rho=0.5), cfg)
        for t in (1.0, 3.0, 5.0):
            pd_cf = 1.0 - survival(model, t)
            se = math.sqrt(pd_cf * (1 - pd_cf) / cfg.n_paths)
            assert abs(np.count_nonzero(paths.tau <= t) / cfg.n_paths - pd_cf) < 3.5 * se

    @pytest.mark.parametrize("rho", [-0.6, 0.8])
    def test_firm_brownian_at_default_has_girsanov_law(self, rho):
        # With Y = P(0,tau) e^{q tau} S_tau / s0 = exp(a W1(tau) - a^2 tau / 2) * (an
        # independent mean-one factor), a = sigma_S rho, optional stopping gives
        # E[Y; tau <= T] = Q(tau <= T) with the firm's variance-clock drift shifted
        # by a / sigma in each bucket.  Two unequal buckets make W1 depend on the
        # Bessel-bridge draw at the bucket end.
        h, t1, s1, s2 = 0.4, 1.5, 0.4, 0.2
        model = At1pParams(h, 0.0, VolatilityTermStructure((t1, 30.0), (s1, s2)))
        ers = make_ers_contract(rho=rho)
        paths = simulate_joint_paths(model, ers, SimulationConfig(n_paths=200_000, rng_seed=37))
        # padded with a 0 for each path that survives: the mean and SE ignore path order
        y = np.concatenate((equity_ratio(paths, ers),
                            np.zeros(paths.n_paths - paths.tau.size)))
        a = ers.equity_vol * rho
        x0, v1, v2 = -math.log(h), s1 ** 2 * t1, s2 ** 2 * (ers.maturity - t1)
        survived, _ = quad(lambda z: (killed_density(z, x0, -0.5 + a / s1, v1)
                                      * survival_from(z, -0.5 + a / s2, v2)),
                           0.0, x0 + 20.0 * math.sqrt(v1))
        se = y.std(ddof=1) / math.sqrt(y.size)
        assert abs(y.mean() - (1.0 - survived)) < 4 * se

    def test_splitting_a_flat_bucket_leaves_paths_unchanged(self):
        # the bridge terms telescope when both pieces share one vol
        one = At1pParams(0.4, 0.0, VolatilityTermStructure((30.0,), (0.3,)))
        two = At1pParams(0.4, 0.0, VolatilityTermStructure((2.3, 30.0), (0.3, 0.3)))
        ers = make_ers_contract(rho=0.7)
        cfg = SimulationConfig(n_paths=20_000, rng_seed=31)
        a = simulate_joint_paths(one, ers, cfg)
        b = simulate_joint_paths(two, ers, cfg)
        assert 0 < a.tau.size == b.tau.size
        np.testing.assert_allclose(b.tau, a.tau, rtol=1e-12)
        np.testing.assert_allclose(b.discounted_s_tau, a.discounted_s_tau, rtol=1e-12)


class TestFirmDrawSlot:
    """simulate_joint_paths keeps its last firm draw, keyed on the model, the
    maturity, the path count and the seed."""

    MODEL = SbtvParams(((0.3, 0.4), (0.6, 0.6)), 0.0, THREE_BUCKETS)
    HAZARD = HazardCurve((2.0, 30.0), (0.05, 0.03))
    CFG = SimulationConfig(n_paths=20_000, rng_seed=13)

    @pytest.fixture
    def draws(self, monkeypatch):
        """The key of every firm draw made, from an empty slot."""
        monkeypatch.setattr(mc, "_last_draw", None)
        keys, draw = [], mc._firm_draw

        def counted(*key):
            assert mc._last_draw is None  # the old draw goes before the new one is made
            keys.append(key)
            return draw(*key)

        monkeypatch.setattr(mc, "_firm_draw", counted)
        return keys

    def test_hit_is_bit_identical_to_a_cold_draw(self, draws):
        at_half = make_ers_contract(rho=0.5)
        simulate_joint_paths(self.MODEL, make_ers_contract(rho=0.0), self.CFG)
        # an equal model built anew hits, as a recalibrated one does
        hit = simulate_joint_paths(SbtvParams.from_dict(self.MODEL.to_dict()), at_half, self.CFG)
        assert len(draws) == 1
        simulate_joint_paths(flat_at1p(), at_half, self.CFG)
        cold = simulate_joint_paths(self.MODEL, at_half, self.CFG)
        assert len(draws) == 3
        assert hit.tau.size > 0 and hit.n_paths == cold.n_paths == self.CFG.n_paths
        assert np.array_equal(hit.tau, cold.tau)
        assert np.array_equal(hit.discounted_s_tau, cold.discounted_s_tau)
        assert hit.default_prob_closed_form == cold.default_prob_closed_form

    @pytest.mark.parametrize("part", ["b", "H", "sigma", "bucket_end", "maturity", "n_paths",
                                      "rng_seed"])
    def test_each_key_part_misses_when_it_changes(self, draws, part):
        ends, sigmas = THREE_BUCKETS.bucket_ends, THREE_BUCKETS.sigmas
        model, ers, cfg = self.MODEL, make_ers_contract(rho=0.0), self.CFG
        changed = {
            "b": (SbtvParams(model.scenarios, 0.1, THREE_BUCKETS), ers, cfg),
            "H": (SbtvParams(((0.3, 0.4), (0.65, 0.6)), 0.0, THREE_BUCKETS), ers, cfg),
            "sigma": (SbtvParams(model.scenarios, 0.0, VolatilityTermStructure(
                ends, sigmas[:2] + (0.31,))), ers, cfg),
            "bucket_end": (SbtvParams(model.scenarios, 0.0, VolatilityTermStructure(
                (1.0, 2.5, 4.0), sigmas)), ers, cfg),
            "maturity": (model, make_ers_contract(rho=0.0, maturity=4.0), cfg),
            "n_paths": (model, ers, SimulationConfig(n_paths=20_001, rng_seed=13)),
            "rng_seed": (model, ers, SimulationConfig(n_paths=20_000, rng_seed=14)),
        }[part]
        simulate_joint_paths(model, ers, cfg)
        simulate_joint_paths(model, make_ers_contract(rho=0.7), cfg)
        assert len(draws) == 1
        other_model, other_ers, other_cfg = changed
        simulate_joint_paths(other_model, other_ers, other_cfg)
        assert len(draws) == 2

    def test_cells_share_only_read_only_arrays(self, draws):
        a = simulate_joint_paths(self.MODEL, make_ers_contract(rho=0.0), self.CFG)
        b = simulate_joint_paths(self.MODEL, make_ers_contract(rho=0.5), self.CFG)
        assert len(draws) == 1
        assert a.n_paths == b.n_paths == self.CFG.n_paths
        assert b.tau is a.tau
        with pytest.raises(ValueError, match="read-only"):
            b.tau[0] = b.tau[0]
        assert not np.shares_memory(a.discounted_s_tau, b.discounted_s_tau)
        before = a.discounted_s_tau.copy()
        b.discounted_s_tau[:] = 0.0
        assert np.array_equal(a.discounted_s_tau, before)

    def test_the_slot_holds_the_defaulted_paths_only(self, draws):
        # tau, w1 and w2 as float64 on the k defaulted paths, and no per-path array
        paths = simulate_joint_paths(self.MODEL, make_ers_contract(rho=0.0), self.CFG)
        k = paths.tau.size
        assert 0 < k < self.CFG.n_paths and len(self.MODEL.scenarios) == 2
        draw = mc._last_draw[1]
        assert sum(a.nbytes for a in draw if isinstance(a, np.ndarray)) == 24 * k
        assert all(not a.flags.writeable for a in draw if isinstance(a, np.ndarray))

    def test_a_hazard_draw_is_reused_across_correlations(self, draws):
        # no firm Brownian motion: the slot holds tau and w2 only, and every
        # correlation maps the same equity shock
        a = simulate_joint_paths(self.HAZARD, make_ers_contract(rho=-0.5), self.CFG)
        b = simulate_joint_paths(self.HAZARD, make_ers_contract(rho=0.9), self.CFG)
        assert len(draws) == 1 and 0 < a.tau.size < self.CFG.n_paths
        assert b.tau is a.tau
        assert np.array_equal(a.discounted_s_tau, b.discounted_s_tau)
        assert not np.shares_memory(a.discounted_s_tau, b.discounted_s_tau)
        draw = mc._last_draw[1]
        assert draw.w1 is None and draw.tau.nbytes + draw.w2.nbytes == 16 * a.tau.size
        assert not (draw.tau.flags.writeable or draw.w2.flags.writeable)

    def test_a_hazard_draw_between_leaves_a_first_passage_price_cold(self, draws):
        ers, curve = make_ers_contract(rho=0.5), DiscountCurve(flat_rate=0.03)
        cold = ers_fair_spread(flat_at1p(), ers, curve, self.CFG).as_dict()
        assert ers_fair_spread(self.HAZARD, ers, curve, self.CFG).fair_spread_bp > 0
        assert ers_fair_spread(flat_at1p(), ers, curve, self.CFG).as_dict() == cold
        assert [type(key[0]) for key in draws] == [At1pParams, HazardCurve, At1pParams]

    @pytest.mark.parametrize("model", [None, "at1p", THREE_BUCKETS],
                             ids=["none", "name", "vols"])
    def test_rejects_what_is_not_a_model(self, draws, model):
        with pytest.raises(DomainError, match="^no joint simulation for "):
            simulate_joint_paths(model, make_ers_contract(rho=0.0), self.CFG)
        assert draws == []


class TestClosedFormDefaultProbability:
    @pytest.mark.parametrize("kind", ["at1p", "sbtv"])
    def test_is_one_minus_survival_bit_for_bit(self, lehman_calibrations, ers_calibrations,
                                               kind):
        # the draw mixes the kernel's survivals at V as survival() does: on four
        # preset fits and a 3-scenario model with b = -0.7, at maturities on,
        # between and past the vol knots
        models = [ers_calibrations[kind],
                  *(fits[kind][0] for fits in lehman_calibrations.values()),
                  {"at1p": At1pParams(0.6, -0.7, THREE_BUCKETS),
                   "sbtv": SbtvParams(((0.3, 0.2), (0.6, 0.5), (0.85, 0.3)), -0.7,
                                      THREE_BUCKETS)}[kind]]
        for model in models:
            knots = model.vols.bucket_ends
            mids = [0.5 * (a + b) for a, b in zip((0.0, *knots), knots)]
            for maturity in sorted({*knots, *mids, 0.5, 12.0}):
                draw = mc._firm_draw(model, maturity, 1_000, 3)
                assert draw.default_prob_closed_form == 1.0 - survival(model, maturity), maturity


class TestFirmDrawResources:
    """The firm draw holds arrays on the defaulted paths only, and runs on the calling thread."""

    @pytest.mark.parametrize("model", [
        At1pParams(0.1, 0.0, VolatilityTermStructure((30.0,), (0.3,))),
        SbtvParams(((0.08, 0.5), (0.12, 0.5)), 0.0, VolatilityTermStructure((30.0,), (0.3,))),
        HazardCurve((30.0,), (4e-4,))],
        ids=["at1p", "sbtv", "hazard"])
    def test_allocates_no_array_per_path(self, model):
        # about 0.2% of 10^6 paths default: the draw's peak stays under a
        # tenth of one float64 array over all paths
        n = 1_000_000
        tracemalloc.start()
        try:
            draw = mc._firm_draw(model, 5.0, n, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 1_000 < draw.tau.size < 5_000
        assert peak < 8 * n / 10

    def test_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"the firm draw started a thread: {thread!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        model = SbtvParams(((0.3, 0.2), (0.6, 0.5), (0.85, 0.3)), 0.0, THREE_BUCKETS)
        assert mc._firm_draw(model, 5.0, 20_000, 3).tau.size > 0


class TestIntensityPaths:
    def test_default_prob_matches_closed_form(self, ers):
        hazard = HazardCurve((2.0, 30.0), (0.05, 0.03))
        cfg = SimulationConfig(n_paths=80_000, rng_seed=9)
        paths = simulate_intensity_paths(hazard, ers, cfg)
        pd_cf = paths.default_prob_closed_form
        se = math.sqrt(pd_cf * (1 - pd_cf) / cfg.n_paths)
        assert abs(paths.tau.size / paths.n_paths - pd_cf) < 3.5 * se

    @pytest.mark.parametrize("rate", [0.0, 200.0])
    def test_no_path_or_every_path_defaults_at_the_extremes(self, rate):
        # at 200 the survival exp(-1000) underflows to 0, so PD rounds to 1
        hazard = HazardCurve((30.0,), (rate,))
        draw = mc._firm_draw(hazard, 5.0, 20_000, 9)
        assert draw.default_prob_closed_form == (1.0 if rate else 0.0)
        assert draw.tau.size == draw.w2.size == (20_000 if rate else 0)
        assert np.isfinite(draw.tau).all() and np.all((0.0 <= draw.tau) & (draw.tau <= 5.0))
        assert np.isfinite(draw.w2).all()

    def test_default_at_the_maturity_hazard_stays_at_maturity(self, monkeypatch, ers):
        # the clock's inverse takes the cumulative hazard at 5y, and a few ulps
        # past it, where -log(1 - PD u) can round to, to just past 5
        hazard = HazardCurve((0.7, 5.7), (0.4, 0.25))
        c = hazard.clock(ers.maturity) + np.arange(4) * np.spacing(hazard.clock(ers.maturity))
        assert np.all(hazard.clock.inverse(c[1:]) > ers.maturity)
        monkeypatch.setattr(mc, "_last_draw", None)  # keep the patched draw out of the slot
        monkeypatch.setattr(np, "log1p", lambda x: -np.resize(c, x.size))
        paths = simulate_joint_paths(hazard, ers, SimulationConfig(n_paths=100, rng_seed=1))
        assert paths.tau.size > 0 and np.all(paths.tau == ers.maturity)

    def test_is_the_joint_simulation_of_a_hazard_curve(self, ers):
        cfg = SimulationConfig(n_paths=5_000, rng_seed=9)
        hazard = HazardCurve((2.0, 30.0), (0.05, 0.03))
        a, b = simulate_intensity_paths(hazard, ers, cfg), simulate_joint_paths(hazard, ers, cfg)
        assert a.tau.size > 0 and a.tau is b.tau
        assert np.array_equal(a.discounted_s_tau, b.discounted_s_tau)
        with pytest.raises(DomainError, match="needs a HazardCurve, got At1pParams"):
            simulate_intensity_paths(flat_at1p(), ers, cfg)

    def test_zero_hazard_gives_zero_spread(self, curve, ers):
        hazard = HazardCurve((30.0,), (0.0,))
        result = ers_fair_spread(hazard, ers, curve,
                                 SimulationConfig(n_paths=2_000, rng_seed=1))
        assert result.fair_spread_bp == 0.0
        assert result.default_prob_mc == 0.0


class TestResidualNpv:
    @pytest.mark.parametrize("tau", [0.3, 0.5, 2.49, 2.5, 4.999])
    @pytest.mark.parametrize("spread", [0.0, 0.0025])
    def test_simplified_matches_termwise_oracle(self, tau, spread, ers):
        for curve in (DiscountCurve(flat_rate=0.03),
                      DiscountCurve(pillars=((1.0, 0.97), (3.0, 0.90), (6.0, 0.80)))):
            for s_tau in (12.0, 20.0, 31.0):
                simplified = npv_three_term(tau, s_tau, ers, curve, spread)
                termwise = ers_npv_at_default_termwise(tau, s_tau, ers, curve, spread)
                assert simplified == pytest.approx(termwise, abs=1e-10)

    @pytest.mark.parametrize("curve", [
        DiscountCurve(flat_rate=0.03),
        DiscountCurve(pillars=((0.75, 0.985), (1.0, 0.97), (3.0, 0.90))),
    ], ids=["flat", "pillars"])
    def test_terms_at_payment_dates_equal_a_path_by_path_evaluation(self, curve, ers):
        # on, just below and just above every schedule time: bit for bit what
        # scalar discount factors give, summed as _npv_terms sums its tails
        sched = ers.schedule
        times = np.append(sched.start, sched.dates)
        tau = np.concatenate((times, np.nextafter(times[1:], -np.inf),
                              np.nextafter(times[:-1], np.inf)))
        discounted_s_tau = np.random.default_rng(3).uniform(5.0, 30.0, tau.size)
        (fixed, per_spread), _ = mc._npv_terms(tau, discounted_s_tau, ers, curve)
        ks0 = ers.stock_count * ers.s0
        for i, (t, s) in enumerate(zip(tau.tolist(), discounted_s_tau.tolist())):
            last = max(u for u in times.tolist() if u <= t)
            tail = 0.0
            for date, accrual in zip(sched.dates[::-1].tolist(), sched.accruals[::-1].tolist()):
                if date <= t:
                    break
                tail += curve.discount(date) * accrual
            assert fixed[i] == ks0 * curve.discount(last) - ers.stock_count * s, t
            assert per_spread[i] == ks0 * tail, t

    def test_zero_rate_zero_dividend_closed_form(self):
        # with r = q = X = 0 the residual value collapses to S0 - S_tau
        contract = make_ers_contract(dividend_yield=0.0, rho=0.0)
        curve = DiscountCurve(flat_rate=0.0)
        assert npv_three_term(1.3, 14.0, contract, curve, 0.0) == pytest.approx(
            20.0 - 14.0, abs=1e-12)
        assert npv_three_term(1.3, 26.0, contract, curve, 0.0) == pytest.approx(
            20.0 - 26.0, abs=1e-12)

    def test_vectorized_matches_scalar(self, curve, ers):
        taus = np.array([0.4, 1.7, 3.2])
        s = np.array([15.0, 22.0, 18.0])
        vec = npv_three_term(taus, s, ers, curve, 0.001)
        for i in range(3):
            assert vec[i] == pytest.approx(
                npv_three_term(float(taus[i]), float(s[i]), ers, curve, 0.001))

    def test_default_after_maturity_rejected(self, curve, ers):
        with pytest.raises(DomainError):
            npv_three_term(5.5, 20.0, ers, curve, 0.0)
        with pytest.raises(DomainError):
            ers_npv_at_default_termwise(5.5, 20.0, ers, curve, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_default_data_rejected(self, bad):
        def records(tau, discounted_s_tau):
            return PathRecords(n_paths=10, tau=np.array(tau),
                               discounted_s_tau=np.array(discounted_s_tau),
                               default_prob_closed_form=0.2)

        with pytest.raises(DomainError, match="default time tau must be finite"):
            records([bad], [20.0])
        with pytest.raises(DomainError, match=NON_FINITE_EQUITY):
            records([2.0], [bad])
        with pytest.raises(DomainError, match=NON_FINITE_EQUITY):
            records([0.4, 2.0], [15.0, bad])


@pytest.fixture(scope="module")
def crisis_paths():
    model = flat_at1p(sigma=0.3)
    ers = make_ers_contract(rho=0.5)
    cfg = SimulationConfig(n_paths=50_000, rng_seed=13)
    return model, ers, cfg, simulate_joint_paths(model, ers, cfg)


class TestCvaAndFairSpread:
    def test_control_variate_reduces_error_without_bias(self, curve, crisis_paths):
        _, ers, _, paths = crisis_paths
        est = ers_cva_term(paths, ers, curve, 0.001)
        assert est.std_error < est.plain_std_error
        assert abs(est.value - est.plain_value) < 3 * est.plain_std_error

    @pytest.mark.parametrize("spread", [0.0, 0.001, 0.01])
    def test_control_variate_is_the_regression_estimate(self, curve, crisis_paths, spread):
        _, ers, _, paths = crisis_paths
        # the defaulted paths first, then a 0 for each path that survives: the
        # regression's statistics ignore path order
        n, k = paths.n_paths, paths.tau.size
        payoff = np.zeros(n)
        (fixed, per_spread), _ = mc._npv_terms(paths.tau, paths.discounted_s_tau, ers, curve)
        payoff[:k] = ers.lgd * np.maximum(fixed + per_spread * spread, 0.0)
        value, std_error = regression_control_variate(payoff, np.arange(n) < k,
                                                      paths.default_prob_closed_form)
        est = ers_cva_term(paths, ers, curve, spread)
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.std_error == pytest.approx(std_error, rel=1e-12)

    def test_all_paths_default_gives_closed_form_probability_times_mean(self, curve, ers):
        # the indicator has no variance, yet its coefficient is still the mean payoff
        rng = np.random.default_rng(5)
        n = 1_000
        tau, s_tau = rng.uniform(0.0, ers.maturity, n), rng.uniform(5.0, 35.0, n)
        paths = PathRecords(n_paths=n, tau=tau, discounted_s_tau=curve.discount(tau) * s_tau,
                            default_prob_closed_form=0.6)
        payoff = ers.lgd * np.maximum(npv_three_term(tau, s_tau, ers, curve, 0.001), 0.0)
        assert 0 < np.count_nonzero(payoff) < n
        est = ers_cva_term(paths, ers, curve, 0.001)
        assert est.value == pytest.approx(0.6 * payoff.mean(), rel=1e-14)
        assert est.plain_value == pytest.approx(payoff.mean(), rel=1e-14)
        assert est.std_error == pytest.approx(est.plain_std_error, rel=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 37, 500])
    def test_plain_statistics_count_the_surviving_paths(self, curve, ers, k):
        # the plain estimate sees a 0 on each of the n - k paths that survive,
        # as the zero-padded payoff does
        n, rng = 500, np.random.default_rng(k)
        defaulted = np.zeros(n, dtype=bool)
        defaulted[rng.choice(n, size=k, replace=False)] = True
        tau, s_tau = rng.uniform(0.0, ers.maturity, k), rng.uniform(5.0, 35.0, k)
        paths = PathRecords(n_paths=n, tau=tau, discounted_s_tau=curve.discount(tau) * s_tau,
                            default_prob_closed_form=0.3)
        padded = np.zeros(n)
        padded[defaulted] = ers.lgd * np.maximum(
            npv_three_term(tau, s_tau, ers, curve, 0.001), 0.0)
        assert k < 2 or 0 < np.count_nonzero(padded) < k
        est = ers_cva_term(paths, ers, curve, 0.001)
        assert est.plain_value == pytest.approx(padded.mean(), rel=1e-13, abs=0)
        assert est.plain_std_error == pytest.approx(padded.std(ddof=1) / math.sqrt(n),
                                                    rel=1e-13, abs=0)
        result = ers_fair_spread_from_paths(paths, ers, curve)
        assert result.default_prob_mc == k / n == np.mean(defaulted)

    def test_fixed_point_discounts_once_per_path_set(self, curve, crisis_paths, monkeypatch):
        # the Newton steps reuse the residual-value terms built once per path set
        _, ers, _, paths = crisis_paths
        calm = simulate_joint_paths(flat_at1p(sigma=0.2), ers,
                                    SimulationConfig(n_paths=5_000, rng_seed=3))
        calls = []
        discount = DiscountCurve.discount
        monkeypatch.setattr(DiscountCurve, "discount",
                            lambda self, t: calls.append(t) or discount(self, t))
        counts, iterations = [], []
        for path_set in (paths, calm):
            calls.clear()
            result = ers_fair_spread_from_paths(path_set, ers, curve)
            counts.append(len(calls))
            iterations.append(result.diagnostics["iterations"])
        assert iterations[0] != iterations[1]
        assert counts[1] == counts[0]

    @pytest.mark.parametrize("model", [
        flat_at1p(sigma=0.3),
        SbtvParams(((0.3, 0.4), (0.6, 0.6)), 0.0, THREE_BUCKETS),
        HazardCurve((2.0, 30.0), (0.08, 0.05))], ids=["at1p", "sbtv", "intensity"])
    def test_the_curve_is_read_at_the_payment_dates_only(self, monkeypatch, ers, model):
        # the equity at default comes discounted, so no curve read sees the
        # default times: one discount call, on the start and the n payment dates
        reads = []
        for name in ("discount", "rate_integral"):
            real = getattr(DiscountCurve, name)
            monkeypatch.setattr(DiscountCurve, name, lambda self, t, name=name, real=real:
                                reads.append((name, np.size(t))) or real(self, t))
        monkeypatch.setattr(mc, "_last_draw", None)  # a cold draw
        curve = DiscountCurve(pillars=((1.0, 0.97), (3.0, 0.90), (6.0, 0.80)))
        result = ers_fair_spread(model, ers, curve, SimulationConfig(n_paths=20_000, rng_seed=3))
        n = ers.schedule.dates.size
        assert result.diagnostics["paths_defaulted"] > 100 * (n + 1)
        assert max(size for _, size in reads) <= n + 1
        assert reads == [("discount", n + 1)]

    @pytest.mark.parametrize("field, name", [("tau", "default time tau"),
                                             ("discounted_s_tau",
                                              "discounted equity at default discounted_s_tau")])
    def test_non_finite_path_data_rejected(self, crisis_paths, field, name):
        # one bad defaulted path names its input when the path set is built,
        # before any pricing can run an all-nan fixed point
        _, _, _, paths = crisis_paths
        data = {"tau": paths.tau.copy(), "discounted_s_tau": paths.discounted_s_tau.copy()}
        data[field][0] = math.nan
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            PathRecords(n_paths=paths.n_paths, **data,
                        default_prob_closed_form=paths.default_prob_closed_form)

    def test_no_defaults_yields_zero_estimate(self, curve, ers):
        model = flat_at1p(h=1e-6, sigma=0.15)
        paths = simulate_joint_paths(model, ers, SimulationConfig(n_paths=2_000, rng_seed=2))
        est = ers_cva_term(paths, ers, curve, 0.0)
        assert (est.value, est.std_error) == (0.0, 0.0)
        assert est.low_statistics

    def test_fixed_point_contracts_quickly(self, curve, crisis_paths):
        _, ers, cfg, paths = crisis_paths
        result = ers_fair_spread_from_paths(paths, ers, curve)
        trace = result.diagnostics["delta_x_trace_bp"]
        assert result.diagnostics["iterations"] == len(trace) <= 10
        assert all(step > 0 for step in trace[:-1])
        assert trace[-1] == 0.0
        assert result.fair_spread_bp > 0

    def test_fair_spread_zeroes_swap_value(self, curve, crisis_paths):
        _, ers, cfg, paths = crisis_paths
        result = ers_fair_spread_from_paths(paths, ers, curve)
        x = result.fair_spread_bp * 1e-4
        est = ers_cva_term(paths, ers, curve, x)
        annuity = float(np.sum(np.asarray(curve.discount(ers.schedule.dates))
                               * ers.schedule.accruals))
        residual_bp = abs(est.value - x * ers.s0 * annuity) / (ers.s0 * annuity) * 1e4
        assert residual_bp < 1e-10

    def test_spread_increases_with_correlation(self, curve):
        # positive firm/equity correlation is the wrong-way-risk direction:
        # at default the stock has tended to fall with the firm, the residual
        # swap value is larger, and so is the compensating spread
        model = flat_at1p(sigma=0.3)
        cfg = SimulationConfig(n_paths=50_000, rng_seed=17)
        spreads = [ers_fair_spread(model, make_ers_contract(rho=rho), curve, cfg).fair_spread_bp
                   for rho in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        assert all(b > a for a, b in zip(spreads, spreads[1:]))
        assert spreads[-1] > 0
        assert spreads[0] == pytest.approx(0.0, abs=0.5)

    def test_fair_spread_is_the_breakpoint_root(self, curve, crisis_paths):
        _, ers, cfg, paths = crisis_paths
        (fixed, per_spread), annuity = mc._npv_terms(paths.tau, paths.discounted_s_tau, ers, curve)
        c = paths.default_prob_closed_form * ers.lgd / (fixed.size * ers.s0 * annuity)
        roots = fixed_point_by_breakpoints(fixed, per_spread, c)
        result = ers_fair_spread_from_paths(paths, ers, curve)
        assert roots.size == 1
        assert result.fair_spread_bp * 1e-4 == pytest.approx(roots[0], rel=1e-12, abs=0)

    def test_input_without_root_is_degenerate(self, curve):
        # P(default) = 1, zero recovery and every default before the first
        # payment date: the adjustment has slope exactly 1 once all paths are active
        ers = make_ers_contract(recovery=0.0)
        with pytest.raises(DegenerateInputError, match="one-for-one"):
            ers_fair_spread_from_paths(early_default_paths(ers, 1.0), ers, curve)

    def test_nearly_degenerate_input_solves_to_round_off(self, curve):
        ers = make_ers_contract(recovery=0.0)
        paths = early_default_paths(ers, 1.0 - 1e-6)
        result = ers_fair_spread_from_paths(paths, ers, curve)
        x = result.fair_spread_bp * 1e-4
        assert result.fair_spread_bp > 1e7
        leg = x * ers.s0 * result.diagnostics["annuity"]
        assert ers_cva_term(paths, ers, curve, x).value == pytest.approx(leg, rel=1e-13)

    def test_result_serializes(self, curve, crisis_paths):
        import json
        _, ers, cfg, paths = crisis_paths
        result = ers_fair_spread_from_paths(paths, ers, curve)
        json.dumps(result.as_dict())

    def test_zero_premium_annuity_is_degenerate(self, crisis_paths):
        # every discount factor underflows to 0, so the premium annuity is 0
        _, ers, cfg, paths = crisis_paths
        with pytest.raises(DegenerateInputError, match="annuity"):
            ers_fair_spread_from_paths(paths, ers, DiscountCurve(flat_rate=1e308))


class TestSpreadStandardError:
    """The spread solves X = f(X), f = adjustment / (K*S0*annuity), so its
    standard error is SE(f) / (1 - f'(X))."""

    @staticmethod
    def assert_is_the_roots(paths, ers, curve):
        # f' from a finite difference of the adjustment: f is piecewise linear,
        # and no breakpoint of these cells falls within h of the root
        result = ers_fair_spread_from_paths(paths, ers, curve)
        x, h = result.fair_spread_bp * 1e-4, 1e-7
        denom = ers.stock_count * ers.s0 * result.diagnostics["annuity"]
        slope = (ers_cva_term(paths, ers, curve, x + h).value
                 - ers_cva_term(paths, ers, curve, x).value) / (h * denom)
        assert 0.0 < slope < 1.0
        assert result.std_error_bp == pytest.approx(
            result.cva_std_error / denom / (1.0 - slope) * 1e4, rel=1e-9, abs=0)
        return slope

    @pytest.mark.parametrize("model", ["at1p", "sbtv"])
    def test_on_distressed_cells(self, curve, lehman_calibrations, model):
        # about 41% of the paths default, and f' is 0.1 to 0.2
        fit = lehman_calibrations["lehman-2008-09-12"][model][0]
        for rho in (0.0, 0.5):
            ers = make_ers_contract(rho=rho)
            paths = simulate_joint_paths(fit, ers, SimulationConfig(n_paths=100_000))
            assert 0.35 < paths.tau.size / paths.n_paths < 0.47
            assert self.assert_is_the_roots(paths, ers, curve) > 0.05

    def test_on_a_calm_cell(self, curve, ers_calibrations):
        # about 3.7% of the paths default, and f' is small but not 0
        ers = make_ers_contract(rho=0.0)
        paths = simulate_joint_paths(ers_calibrations["at1p"], ers,
                                     SimulationConfig(n_paths=100_000))
        assert 0.03 < paths.tau.size / paths.n_paths < 0.045
        self.assert_is_the_roots(paths, ers, curve)


def solve_numbers(result):
    """The numbers and solver diagnostics that `fair_spread_fresh_arrays` returns."""
    d = result.diagnostics
    return {"fair_spread_bp": result.fair_spread_bp, "std_error_bp": result.std_error_bp,
            "cva_value": result.cva_value, "cva_std_error": result.cva_std_error,
            "iterations": d["iterations"], "delta_x_trace_bp": d["delta_x_trace_bp"],
            "variance_reduction_factor": d["variance_reduction_factor"]}


def spread_records(n, k, seed, s_lo, s_hi, default_prob):
    """k defaults on n paths, uniform in time up to 5y and in P(0,tau) S_tau."""
    rng = np.random.default_rng(seed)
    return PathRecords(n_paths=n, tau=rng.uniform(0.0, 5.0, k),
                       discounted_s_tau=rng.uniform(s_lo, s_hi, k),
                       default_prob_closed_form=default_prob)


class TestSolveInOneBlock:
    """The solve writes its work into one block, and gives what a fresh array at
    every step gives, bit for bit."""

    @pytest.mark.parametrize("args, recovery, settle", [
        ((1_000, 0, 1, 5.0, 30.0, 0.01), 0.4, 1),  # no defaults
        ((1_000, 1, 2, 5.0, 6.0, 0.001), 0.4, 2),  # one default, active at X = 0
        ((2_000, 1_001, 3, 1.0, 5.0, 0.5), 0.4, 2),  # every path active at X = 0
        ((10_000, 4_999, 11, 1.0, 60.0, 0.99), 0.0, 4)],  # the set grows over steps
        ids=["k=0", "k=1", "all-active", "growing"])
    def test_matches_the_solve_with_fresh_arrays(self, curve, args, recovery, settle):
        ers, paths = make_ers_contract(rho=0.5, recovery=recovery), spread_records(*args)
        result = ers_fair_spread_from_paths(paths, ers, curve)
        assert solve_numbers(result) == fair_spread_fresh_arrays(paths, ers, curve)
        assert result.diagnostics["iterations"] == settle

    @pytest.mark.parametrize("model", ["at1p", "sbtv"])
    def test_matches_the_solve_with_fresh_arrays_on_distressed_cells(
            self, curve, lehman_calibrations, model):
        fit = lehman_calibrations["lehman-2008-09-12"][model][0]
        for rho in (0.0, 0.5):
            ers = make_ers_contract(rho=rho)
            paths = simulate_joint_paths(fit, ers, SimulationConfig(n_paths=100_000))
            assert 0.35 < paths.tau.size / paths.n_paths < 0.47
            result = ers_fair_spread_from_paths(paths, ers, curve)
            assert solve_numbers(result) == fair_spread_fresh_arrays(paths, ers, curve)

    def test_input_without_root_still_raises(self, curve):
        ers = make_ers_contract(recovery=0.0)
        paths = early_default_paths(ers, 1.0)
        for solve in (ers_fair_spread_from_paths, fair_spread_fresh_arrays):
            with pytest.raises(DegenerateInputError, match="one-for-one"):
                solve(paths, ers, curve)

    def test_leaves_the_records_as_they_were(self, curve, crisis_paths):
        _, ers, cfg, drawn = crisis_paths
        paths = PathRecords(n_paths=drawn.n_paths, tau=drawn.tau.copy(),
                            discounted_s_tau=drawn.discounted_s_tau.copy(),
                            default_prob_closed_form=drawn.default_prob_closed_form)
        before = paths.tau.copy(), paths.discounted_s_tau.copy()
        results = [ers_fair_spread_from_paths(paths, ers, curve) for _ in range(2)]
        ers_cva_term(paths, ers, curve, 0.001)
        assert solve_numbers(results[0]) == solve_numbers(results[1])
        assert np.array_equal(paths.tau, before[0])
        assert np.array_equal(paths.discounted_s_tau, before[1])
        # the slot's draw is priced as it is, and stays read-only
        hit = simulate_joint_paths(flat_at1p(sigma=0.3), ers, cfg)
        ers_fair_spread_from_paths(hit, ers, curve)
        draw = mc._last_draw[1]
        assert hit.tau is draw.tau
        assert all(not a.flags.writeable for a in draw if isinstance(a, np.ndarray))
