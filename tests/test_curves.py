import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fpcredit import (DiscountCurve, DomainError, PaymentSchedule, make_ers_contract,
                      make_schedule)
from fpcredit.cds import leg_grid
from fpcredit.curves import Clock

# a pillar curve whose forward beyond 1y is about -690, so P(0, t) overflows near 2.03y
OVERFLOWING_PILLARS = ((1.0, 1e-300), (2.0, 1.0))


class TestDiscountCurve:
    def test_zero_rate_identity(self):
        assert DiscountCurve(flat_rate=0.0).discount(5.0) == 1.0

    def test_time_zero(self):
        assert DiscountCurve(flat_rate=0.03).discount(0.0) == 1.0

    def test_flat_rate_value(self):
        assert DiscountCurve(flat_rate=0.03).discount(2.0) == pytest.approx(
            math.exp(-0.06), abs=1e-15)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            DiscountCurve(flat_rate=0.03).discount(-0.1)

    def test_pillars_reproduced_exactly(self):
        pillars = ((1.0, 0.97), (2.0, 0.94), (5.0, 0.85))
        curve = DiscountCurve(pillars=pillars)
        for t, df in pillars:
            assert curve.discount(t) == pytest.approx(df, abs=1e-15)
        assert curve.discount(0.0) == 1.0

    def test_log_linear_between_pillars(self):
        curve = DiscountCurve(pillars=((1.0, 0.95), (3.0, 0.85)))
        expected = math.exp(0.5 * (math.log(0.95) + math.log(0.85)))
        assert curve.discount(2.0) == pytest.approx(expected, rel=1e-14)

    def test_flat_forward_extrapolation(self):
        curve = DiscountCurve(pillars=((1.0, 0.95), (2.0, 0.90)))
        fwd = math.log(0.95 / 0.90)
        assert curve.discount(3.0) == pytest.approx(0.90 * math.exp(-fwd), rel=1e-14)

    def test_constructor_validation(self):
        with pytest.raises(DomainError):
            DiscountCurve()
        with pytest.raises(DomainError):
            DiscountCurve(flat_rate=0.03, pillars=((1.0, 0.9),))
        with pytest.raises(DomainError):
            DiscountCurve(pillars=((2.0, 0.9), (1.0, 0.95)))
        with pytest.raises(DomainError):
            DiscountCurve(pillars=((1.0, 1.2),))
        with pytest.raises(DomainError, match="non-empty"):
            DiscountCurve(pillars=())

    @pytest.mark.parametrize("rate", [0.03, -0.02, 1e308, -1e308])
    def test_flat_rate_is_the_plain_exponential(self, rate):
        # no clock for a flat curve, and no warning where rate * t overflows
        t = np.linspace(0.0, 50.0, 201)
        with np.errstate(over="ignore"):
            expected = np.exp(-rate * t)
        assert np.array_equal(DiscountCurve(flat_rate=rate).discount(t), expected)

    @given(rate=st.floats(0.0, 0.2), t1=st.floats(0.0, 30.0), t2=st.floats(0.0, 30.0))
    def test_non_increasing_for_non_negative_rates(self, rate, t1, t2):
        lo, hi = sorted((t1, t2))
        curve = DiscountCurve(flat_rate=rate)
        assert curve.discount(lo) >= curve.discount(hi)
        assert 0.0 < curve.discount(hi) <= 1.0


class TestRateIntegral:
    CURVES = [DiscountCurve(flat_rate=0.03), DiscountCurve(flat_rate=-0.02),
              DiscountCurve(flat_rate=1e308),
              DiscountCurve(pillars=((0.5, 0.99), (2.0, 0.95), (7.0, 0.80))),
              DiscountCurve(pillars=OVERFLOWING_PILLARS)]
    TIMES = np.concatenate(([0.0, 0.25, 0.5, 1.0, 2.0, 7.0, 30.0, 100.0],
                            np.random.default_rng(5).uniform(0.0, 12.0, 200)))

    @pytest.mark.parametrize("curve", CURVES)
    def test_discount_is_the_exponential_of_its_negative(self, curve):
        # bit for bit, on arrays and on scalars, and without a warning where it overflows
        with np.errstate(over="ignore"):
            expected = np.exp(-curve.rate_integral(self.TIMES))
        assert np.array_equal(curve.discount(self.TIMES), expected)
        for t, df in zip(self.TIMES, expected):
            assert type(curve.rate_integral(float(t))) is float
            assert curve.discount(float(t)) == df
            assert curve.discount(np.asarray(t)) == df

    def test_flat_curve_is_the_rate_times_t(self):
        curve = DiscountCurve(flat_rate=0.03)
        assert np.array_equal(curve.rate_integral(self.TIMES), 0.03 * self.TIMES)
        assert DiscountCurve(flat_rate=1e308).rate_integral(50.0) == math.inf

    def test_pillar_curve_is_minus_the_log_of_its_pillars(self):
        pillars = ((0.5, 0.99), (2.0, 0.95), (7.0, 0.80))
        curve = DiscountCurve(pillars=pillars)
        for t, df in pillars:
            assert curve.rate_integral(t) == pytest.approx(-math.log(df), rel=1e-15)
        assert curve.rate_integral(0.0) == 0.0

    def test_forward_integral_is_the_difference_of_rate_integrals(self):
        # at 1000% both discount factors underflow to 0, and their ratio would be 0 / 0
        forward = DiscountCurve(flat_rate=1000.0).forward_integral(1.0, 2.0)
        assert type(forward) is float and forward == 1000.0
        curve = DiscountCurve(pillars=((0.5, 0.99), (2.0, 0.95), (7.0, 0.80)))
        for t1, t2 in ((0.0, 0.5), (0.3, 1.7), (1.0, 7.0), (5.0, 12.0)):
            assert curve.forward_integral(t1, t2) == pytest.approx(
                math.log(curve.discount(t1) / curve.discount(t2)), rel=1e-13)

    @pytest.mark.parametrize("curve", CURVES)
    def test_negative_time_rejected(self, curve):
        with pytest.raises(DomainError, match="non-negative"):
            curve.rate_integral(-0.1)
        with pytest.raises(DomainError, match="non-negative"):
            curve.rate_integral(np.array([1.0, -1e-300]))

    def test_overflowing_pillar_curve_is_a_typed_error_in_the_legs(self):
        # warnings are errors here, so an overflow warning in discount would fail first
        curve = DiscountCurve(pillars=OVERFLOWING_PILLARS)
        assert curve.discount(100.0) == math.inf
        with pytest.raises(DomainError, match="infinite premium annuity"):
            leg_grid(make_schedule(0.0, 100.0, 4), curve)


class TestClock:
    CLOCK = Clock.from_rates((1.0, 2.5, 4.0), (0.1225, 0.0625, 0.09))

    def test_knots_accumulate_the_rates(self):
        assert np.array_equal(self.CLOCK.knot_t, [0.0, 1.0, 2.5, 4.0])
        assert np.allclose(self.CLOCK.knot_c, [0.0, 0.1225, 0.21625, 0.35125], rtol=1e-15)
        assert self.CLOCK(6.0) == pytest.approx(0.35125 + 2.0 * 0.09, rel=1e-15)
        assert type(self.CLOCK(1.0)) is float and self.CLOCK(0.0) == 0.0

    def test_inverse_undoes_the_clock(self):
        clock = self.CLOCK
        knots = clock.knot_t
        assert np.array_equal(clock.inverse(clock(knots)), knots)
        inside = np.array([1e-9, 0.3, 1.7, 3.1, 3.999])
        tail = np.array([4.5, 12.0, 40.0])
        for t in (inside, tail):
            assert clock.inverse(clock(t)) == pytest.approx(t, rel=1e-15, abs=0.0)
        assert type(clock.inverse(0.1)) is float

    def test_zero_tail_rate_never_reaches_beyond(self):
        clock = Clock.from_rates((1.0, 3.0), (0.02, 0.0))
        assert clock.tail_rate == 0.0
        assert np.array_equal(clock.inverse([0.01, 0.03]), [0.5, np.inf])
        assert clock.inverse(0.05) == math.inf

    def test_rejects_negative_time_and_overflow(self):
        with pytest.raises(DomainError):
            self.CLOCK(-0.1)
        with pytest.raises(DomainError, match="overflows"):
            Clock.from_rates((10.0,), (1e308,))


class TestSchedule:
    def test_quarterly_five_years(self):
        sched = make_schedule(0.0, 5.0, 4)
        assert sched.dates.size == 20
        assert np.all(sched.accruals == 0.25)
        assert sched.end == 5.0

    def test_beta_index(self):
        sched = make_schedule(0.0, 1.0, 2)
        assert list(sched.dates) == [0.5, 1.0]
        assert sched.next_payment_index(0.7) == 2

    def test_accruals_telescope(self):
        sched = make_schedule(0.0, 10.0, 4)
        assert sched.dates.size == 40
        assert np.sum(sched.accruals) == pytest.approx(10.0, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            make_schedule(0.0, 0.0, 4)
        with pytest.raises(DomainError):
            make_schedule(1.0, 0.5, 4)
        with pytest.raises(DomainError):
            make_schedule(0.0, 5.0, 3)
        with pytest.raises(DomainError, match="100 years"):
            make_schedule(0.0, 1e15, 4)  # refused before 4e15 dates are allocated
        assert make_schedule(0.0, 100.0, 12).dates.size == 1200

    @pytest.mark.parametrize("maturity, frequency", [
        (5.1, 2), (-1, 2), (0, 2), (math.nan, 2), (math.inf, 2), (0.1, 4)])
    def test_a_refused_schedule_names_its_end(self, maturity, frequency):
        # through the ERS contract, as a library caller builds one
        with pytest.raises(DomainError, match=f"^schedule from 0.0 to {maturity!r}[ :]"):
            make_ers_contract(maturity=maturity, payment_frequency=frequency)

    def test_a_fractional_schedule_names_its_period(self):
        with pytest.raises(DomainError, match=r"^schedule from 0.0 to 5.1 is not a whole "
                                              r"number of periods of 1/2 year$"):
            make_schedule(0.0, 5.1, 2)

    @given(t=st.floats(0.0, 4.999))
    def test_beta_brackets_time(self, t):
        sched = make_schedule(0.0, 5.0, 4)
        beta = int(sched.next_payment_index(t))
        dates = np.concatenate(([0.0], sched.dates))
        assert dates[beta - 1] <= t < dates[beta]

    def test_beta_right_continuous_at_payment_dates(self):
        sched = make_schedule(0.0, 5.0, 4)
        for i, t_i in enumerate(sched.dates, start=1):
            assert sched.next_payment_index(t_i) == i + 1

    @given(ts=st.lists(st.floats(0.0, 4.99), min_size=2, max_size=6))
    def test_beta_non_decreasing(self, ts):
        sched = make_schedule(0.0, 5.0, 2)
        ts = sorted(ts)
        betas = [int(sched.next_payment_index(t)) for t in ts]
        assert betas == sorted(betas)

    @pytest.mark.parametrize("n", [1, 10, 32, 33, 255, 256, 1200])
    def test_next_payment_index_is_the_binary_search(self, n):
        # counted into a uint8 up to 255 dates and a uint16 above: the index of
        # a binary search either way
        sched = PaymentSchedule(start=0.0, dates=np.sort(
            np.random.default_rng(n).uniform(0.0, 0.1 * n, n)) + np.arange(n) * 1e-3,
            accruals=np.ones(n))
        dates = sched.dates
        keys = np.concatenate((np.random.default_rng(7).uniform(-1.0, dates[-1] + 1.0, 500),
                               dates, np.nextafter(dates, -np.inf), [-0.5, -1e300, 0.0],
                               [dates[-1] + 1.0, 1e300, np.inf, -np.inf, np.nan]))
        for t in (keys, keys[::-1].reshape(2, -1), np.empty(0), np.array([np.nan]),
                  np.array([np.nan, 0.3]), np.array([np.inf, np.nan])):
            got = sched.next_payment_index(t)
            assert got.dtype == np.intp and got.shape == t.shape
            assert np.array_equal(got, np.searchsorted(dates, t, side="right") + 1)
        for key in keys:
            expected = np.searchsorted(dates, key, side="right") + 1
            for t in (float(key), np.asarray(key), np.float64(key)):
                got = sched.next_payment_index(t)
                assert np.shape(got) == () and np.asarray(got).dtype == np.intp
                assert got == expected

    def test_deterministic_construction(self):
        a = make_schedule(0.0, 7.0, 4)
        b = make_schedule(0.0, 7.0, 4)
        assert np.array_equal(a.dates, b.dates)
        assert np.array_equal(a.accruals, b.accruals)
