import math

import pytest

from fpcredit import (At1pParams, CalibrationError, CdsQuote, ConfigurationError,
                      DegenerateInputError, DiscountCurve, DomainError,
                      FpcreditError, HazardCurve, PaymentSchedule, SbtvParams,
                      VolatilityTermStructure, make_schedule)
from fpcredit import cli

NAN, INF = math.nan, math.inf
VOLS = VolatilityTermStructure((5.0,), (0.2,))


class TestErrorBase:
    @pytest.mark.parametrize("cls, base", [
        (DomainError, ValueError), (ConfigurationError, ValueError),
        (CalibrationError, RuntimeError), (DegenerateInputError, ValueError)])
    def test_cli_reports_every_library_error(self, cls, base, capsys, monkeypatch):
        assert issubclass(cls, FpcreditError) and issubclass(cls, base)

        def fail(args):
            raise cls("boom")

        monkeypatch.setattr(cli, "cmd_calibrate", fail)
        assert cli.main(["calibrate", "--preset", "lehman-2007-07-10"]) == 1
        assert capsys.readouterr().err == "error: boom\n"


class TestFiniteInputs:
    @pytest.mark.parametrize("kwargs", [
        dict(tenor=NAN, spread_bp=50.0), dict(tenor=INF, spread_bp=50.0),
        dict(tenor=1.0, spread_bp=NAN), dict(tenor=1.0, spread_bp=INF),
        dict(tenor=1.0, spread_bp=50.0, bid_bp=NAN, ask_bp=60.0),
        dict(tenor=1.0, spread_bp=50.0, bid_bp=40.0, ask_bp=INF),
        dict(tenor="1", spread_bp=50.0)])
    def test_cds_quote(self, kwargs):
        with pytest.raises(DomainError):
            CdsQuote(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(flat_rate=NAN), dict(flat_rate=-INF), dict(flat_rate=True),
        dict(pillars=((1.0, NAN),)), dict(pillars=((NAN, 0.9),)),
        dict(pillars=((1.0, 0.97), (INF, 0.9)))])
    def test_discount_curve(self, kwargs):
        with pytest.raises(DomainError):
            DiscountCurve(**kwargs)

    @pytest.mark.parametrize("start, dates", [
        (0.0, (NAN,)), (0.0, (1.0, INF)), (NAN, (1.0,)), (-INF, (1.0,))])
    def test_payment_schedule(self, start, dates):
        with pytest.raises(DomainError):
            PaymentSchedule(start, dates, accruals=(1.0,) * len(dates))

    @pytest.mark.parametrize("start, end", [(0.0, NAN), (0.0, INF), (NAN, 5.0)])
    def test_make_schedule(self, start, end):
        with pytest.raises(DomainError):
            make_schedule(start, end, 4)

    @pytest.mark.parametrize("ends, sigmas", [
        ((1.0,), (NAN,)), ((1.0,), (INF,)), ((NAN,), (0.2,)), ((1.0, INF), (0.2, 0.2))])
    def test_volatility_term_structure(self, ends, sigmas):
        with pytest.raises(DomainError):
            VolatilityTermStructure(ends, sigmas)

    @pytest.mark.parametrize("ends, lambdas", [
        ((1.0,), (NAN,)), ((1.0,), (INF,)), ((NAN,), (0.02,)), ((1.0, INF), (0.02, 0.02))])
    def test_hazard_curve(self, ends, lambdas):
        with pytest.raises(DomainError):
            HazardCurve(ends, lambdas)

    @pytest.mark.parametrize("h, b", [(NAN, 0.0), (0.4, NAN), (0.4, INF), (0.4, -INF)])
    def test_at1p_params(self, h, b):
        with pytest.raises(DomainError):
            At1pParams(h, b, VOLS)

    @pytest.mark.parametrize("scenarios, b", [
        (((0.4, 0.5), (0.8, 0.5)), NAN), (((0.4, 0.5), (0.8, 0.5)), INF),
        (((NAN, 0.5), (0.8, 0.5)), 0.0), (((0.4, NAN), (0.8, 0.5)), 0.0)])
    def test_sbtv_params(self, scenarios, b):
        with pytest.raises(DomainError):
            SbtvParams(scenarios, b, VOLS)

    @pytest.mark.parametrize("build", [
        lambda: DiscountCurve(pillars=((1.0, "abc"),)),
        lambda: DiscountCurve(pillars=5),
        lambda: VolatilityTermStructure((1.0,), (1e300,)),
        lambda: HazardCurve((10.0,), (1e308,)),
        lambda: HazardCurve.from_dict({"bucket_ends": [10.0], "lambdas": [1e308]}),
        lambda: At1pParams(0.4, [0.5], VOLS),
        lambda: SbtvParams(((0.4, 0.5), (0.8, 0.5)), [0.5, 0.5], VOLS)],
        ids=["pillar-text", "pillars-not-pairs", "variance-overflow", "hazard-overflow",
             "hazard-overflow-from-dict", "at1p-b-list", "sbtv-b-list"])
    def test_ill_typed_or_overflowing_fields(self, build):
        # as a report loaded from JSON can carry them
        with pytest.raises(DomainError):
            build()
