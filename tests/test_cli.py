import functools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fpcredit import (CdsQuoteStrip, DomainError, FpcreditError, read_quote_csv,
                      write_quote_csv)
from fpcredit.cli import PARAMETER_CLASSES, _load_calibration, main
from fpcredit.presets import preset_strip


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("FPCREDIT_OUT_DIR", str(tmp_path))
    return tmp_path


class TestCalibrateCommand:
    def test_preset_all_models_report(self, capsys, outdir):
        code, out, _ = run(capsys, "calibrate", "--preset", "lehman-2008-06-12")
        assert code == 0
        doc = json.loads((outdir / "calibration.json").read_text())
        assert doc["kind"] == "calibration"
        assert set(doc["models"]) == {"intensity", "at1p", "sbtv"}
        for section in doc["models"].values():
            assert section["exact"]
            assert len(section["pillar_survivals"]) == 5
        assert doc["config"]["preset"] == "lehman-2008-06-12"
        assert doc["config"]["preset_checksum"]
        assert "survival_comparison" in doc
        assert "tenor" in out  # comparison table printed

    def test_single_model(self, capsys, outdir):
        code, out, _ = run(capsys, "calibrate", "--preset", "lehman-2007-07-10",
                           "--model", "intensity")
        assert code == 0
        doc = json.loads((outdir / "calibration.json").read_text())
        assert list(doc["models"]) == ["intensity"]
        assert "survival_comparison" not in doc

    def test_unknown_preset_fails(self, capsys):
        code, _, err = run(capsys, "calibrate", "--preset", "nope")
        assert code == 1
        assert "unknown preset" in err

    def test_sbtv_needs_three_quotes(self, capsys, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text("tenor_years,spread_bp\n5.0,100\n")
        code, _, err = run(capsys, "calibrate", "--quotes", str(f), "--model", "sbtv")
        assert code == 1
        assert "3 quotes" in err

    def test_quotes_file_roundtrip(self, capsys, outdir, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text("tenor_years,spread_bp\n1.0,50\n3.0,80\n5.0,100\n")
        code, _, _ = run(capsys, "calibrate", "--quotes", str(f), "--model", "at1p")
        assert code == 0
        doc = json.loads((outdir / "calibration.json").read_text())
        assert doc["config"]["quotes_file"] == str(f)
        assert doc["models"]["at1p"]["parameters"]["bucket_ends"] == [1.0, 3.0, 5.0]

    def test_byte_identical_reruns(self, capsys, outdir):
        run(capsys, "calibrate", "--preset", "lehman-2008-09-12")
        first = (outdir / "calibration.json").read_bytes()
        run(capsys, "calibrate", "--preset", "lehman-2008-09-12")
        assert (outdir / "calibration.json").read_bytes() == first

    def test_explicit_out_path(self, capsys, tmp_path):
        target = tmp_path / "r.json"
        code, _, _ = run(capsys, "calibrate", "--preset", "lehman-2007-07-10",
                         "--model", "intensity", "--out", str(target))
        assert code == 0 and target.exists()


class TestPriceCdsCommand:
    @pytest.fixture
    def report(self, capsys, outdir):
        run(capsys, "calibrate", "--preset", "lehman-2008-06-12")
        return outdir / "calibration.json"

    def test_pillar_quote_reprices_to_zero(self, capsys, report):
        # the 5y quote of this strip is 277 bp; at that spread the contract
        # is worth ~0 for the calibrated model
        code, out, _ = run(capsys, "price-cds", "--params", str(report),
                           "--model", "at1p", "--tenor", "5", "--spread-bp", "277")
        assert code == 0
        postponed = float(out.split("price (postponed): ")[1].split(" bp")[0])
        assert abs(postponed) < 0.01
        fair = float(out.split("fair spread (postponed): ")[1].split(" bp")[0])
        assert fair == pytest.approx(277.0, abs=0.01)

    def test_off_pillar_tenor_between_quotes(self, capsys, report):
        code, out, _ = run(capsys, "price-cds", "--params", str(report),
                           "--model", "intensity", "--tenor", "4", "--spread-bp", "300")
        assert code == 0
        fair = float(out.split("fair spread (postponed): ")[1].split(" bp")[0])
        assert 258.0 < fair < 315.0  # between the 3y and 5y quotes

    def test_zero_spread_price_positive(self, capsys, report):
        code, out, _ = run(capsys, "price-cds", "--params", str(report),
                           "--model", "sbtv", "--tenor", "5", "--spread-bp", "0")
        assert code == 0
        assert float(out.split("price (postponed): ")[1].split(" bp")[0]) > 0

    def test_missing_params_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "price-cds", "--params", str(tmp_path / "no.json"),
                           "--model", "at1p", "--tenor", "5", "--spread-bp", "100")
        assert code == 1
        assert "not found" in err

    def test_model_absent_from_report(self, capsys, outdir):
        run(capsys, "calibrate", "--preset", "lehman-2008-06-12", "--model", "intensity")
        code, _, err = run(capsys, "price-cds", "--params",
                           str(outdir / "calibration.json"),
                           "--model", "sbtv", "--tenor", "5", "--spread-bp", "100")
        assert code == 1
        assert "not present" in err


class TestBadInputsExitWithMessage:
    """Each probe ends in exit 1 and one `error:` line, never a traceback."""

    def check(self, capsys, *argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    def test_nan_spread_in_quotes_file(self, capsys, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text("tenor_years,spread_bp\n1.0,50\n3.0,nan\n5.0,100\n")
        assert "spread_bp" in self.check(capsys, "calibrate", "--quotes", str(f))

    def test_nan_flat_rate(self, capsys):
        assert "flat_rate" in self.check(capsys, "calibrate", "--preset", "lehman-2007-07-10",
                                         "--flat-rate", "nan")

    def test_nan_barrier_exponent(self, capsys):
        assert "b must be" in self.check(capsys, "calibrate", "--preset", "lehman-2007-07-10",
                                         "--model", "at1p", "--b", "nan")

    @pytest.mark.parametrize("model", ["at1p", "sbtv"])
    @pytest.mark.parametrize("h1", ["nan", "1.5"])
    def test_barrier_outside_unit_interval(self, capsys, model, h1):
        assert "(0, 1)" in self.check(capsys, "calibrate", "--preset", "lehman-2007-07-10",
                                      "--model", model, "--h1", h1)

    @pytest.mark.parametrize("content", [
        '{"bucket_ends": [1.0]}',
        '{"schema_version": "1", "kind": "ers-pricing", "models": {}}',
        "not json",
        "[1, 2]"])
    def test_foreign_report(self, capsys, tmp_path, content):
        f = tmp_path / "r.json"
        f.write_text(content)
        self.check(capsys, "price-cds", "--params", str(f), "--model", "at1p",
                   "--tenor", "5", "--spread-bp", "100")

    @pytest.mark.parametrize("rho", ["abc", ""])
    def test_unparseable_correlation(self, capsys, rho):
        assert "--rho" in self.check(capsys, "price-ers", "--preset", "ers-paper-2009-09-16",
                                     "--rho", rho)

    def test_missing_quotes_file(self, capsys, tmp_path):
        assert "missing.csv" in self.check(capsys, "calibrate",
                                           "--quotes", str(tmp_path / "missing.csv"))

    def test_missing_output_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "calibrate", "--preset", "lehman-2007-07-10",
                             "--out", str(tmp_path / "absent" / "c.json"))
        assert code == 1 and err.startswith("error: ") and "absent" in err
        assert out == ""  # refused before any model was fitted

    def test_missing_output_directory_from_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FPCREDIT_OUT_DIR", str(tmp_path / "absent"))
        code, out, err = run(capsys, "price-ers", "--preset", "ers-paper-2009-09-16",
                             "--models", "intensity", "--rho", "0", "--paths", "2000")
        assert code == 1 and err.startswith("error: ") and "absent" in err
        assert out == ""

    def test_zero_premium_annuity(self, capsys):
        # every discount factor underflows to 0, so the ERS premium leg is 0
        assert "annuity" in self.check(capsys, "price-ers", "--preset", "ers-paper-2009-09-16",
                                       "--flat-rate", "1e308", "--models", "intensity",
                                       "--rho", "0", "--paths", "2000")

    @pytest.mark.parametrize("drop", ["bucket_ends", "sigmas", "h_over_v0"])
    def test_report_with_missing_keys(self, capsys, outdir, drop):
        run(capsys, "calibrate", "--preset", "lehman-2008-06-12", "--model", "at1p")
        path = outdir / "calibration.json"
        doc = json.loads(path.read_text())
        del doc["models"]["at1p"]["parameters"][drop]
        path.write_text(json.dumps(doc))
        assert drop in self.check(capsys, "price-cds", "--params", str(path),
                                  "--model", "at1p", "--tenor", "5", "--spread-bp", "100")

    def test_deeply_nested_report(self, capsys, tmp_path):
        f = tmp_path / "r.json"
        f.write_text("[" * 100_000)
        assert "not a JSON file" in self.check(capsys, "price-cds", "--params", str(f),
                                               "--model", "at1p", "--tenor", "5",
                                               "--spread-bp", "100")

    @pytest.mark.parametrize("model", ["intensity", "at1p", "sbtv"])
    @pytest.mark.parametrize("rate, message", [("1e308", "zero premium annuity"),
                                               ("-1000", "infinite premium annuity")])
    def test_overflowing_discount_rate(self, capsys, model, rate, message):
        assert message in self.check(capsys, "calibrate", "--preset", "lehman-2007-07-10",
                                     "--model", model, f"--flat-rate={rate}")


@functools.lru_cache(maxsize=None)
def _calibration_report_paths() -> tuple[str, list]:
    """A real calibration report's text and the path to every value in it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        main(["calibrate", "--preset", "lehman-2008-06-12", "--out", str(path)])
        text = path.read_text()
    paths = []

    def walk(node, prefix):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            paths.append(prefix + (key,))
            if isinstance(value, (dict, list)):
                walk(value, prefix + (key,))

    walk(json.loads(text), ())
    return text, paths


@st.composite
def mutated_reports(draw):
    """A real report with keys dropped or values replaced, as JSON text."""
    text, paths = _calibration_report_paths()
    doc = json.loads(text)
    for path in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3)):
        node = doc
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]]  # an earlier mutation may have removed it
        except (KeyError, IndexError, TypeError):
            continue
        if not isinstance(node, (dict, list)):
            continue
        value = draw(st.sampled_from(["drop", None, "abc", "2", "0", float("nan"), "1e400",
                                      -1.0, 0, 1e300, True, [], {}, [[1.0]], [0.5, 0.5]]))
        if value == "drop":
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return json.dumps(doc).replace('"1e400"', "1e400")


class TestReportLoadingProperty:
    @given(st.one_of(st.text(), mutated_reports()),
           st.sampled_from(["intensity", "at1p", "sbtv"]))
    @settings(max_examples=300, deadline=None)
    def test_any_report_text_gives_a_model_or_a_typed_error(self, tmp_path_factory, text,
                                                          model):
        path = tmp_path_factory.mktemp("report") / "r.json"
        path.write_text(text, encoding="utf-8")
        try:
            params, _ = _load_calibration(path, model)
        except FpcreditError:
            pass
        else:
            assert isinstance(params, PARAMETER_CLASSES[model])
        # and the command built on it never ends in a traceback
        assert main(["price-cds", "--params", str(path), "--model", model,
                     "--tenor", "5", "--spread-bp", "100"]) in (0, 1)


class TestPriceErsCommand:
    def test_small_run_report_shape(self, capsys, outdir):
        code, out, _ = run(capsys, "price-ers", "--preset", "ers-paper-2009-09-16",
                           "--models", "at1p", "--rho", "0,1", "--paths", "20000",
                           "--seed", "7")
        assert code in (0, 2)
        doc = json.loads((outdir / "ers_pricing.json").read_text())
        assert doc["kind"] == "ers-pricing"
        assert doc["rhos"] == [0.0, 1.0]
        assert set(doc["results"]["at1p"]) == {"0.0", "1.0"}
        cell = doc["results"]["at1p"]["1.0"]
        assert cell["fair_spread_bp"] > cell["std_error_bp"] > 0
        assert doc["config"]["simulation"]["n_paths"] == 20000
        assert doc["config"]["simulation"]["rng_seed"] == 7

    def test_low_statistics_exit_code(self, capsys, outdir, tmp_path):
        # a near-riskless strip produces almost no defaults: the run
        # completes but flags low statistics
        f = tmp_path / "q.csv"
        f.write_text("tenor_years,spread_bp\n1.0,0.01\n3.0,0.02\n5.0,0.03\n")
        code, _, _ = run(capsys, "price-ers", "--quotes", str(f),
                         "--models", "at1p", "--rho", "1", "--paths", "5000",
                         "--seed", "3")
        assert code == 2
        doc = json.loads((outdir / "ers_pricing.json").read_text())
        assert doc["results"]["at1p"]["1.0"]["diagnostics"]["low_statistics"]

    def test_fixed_point_failure_exits_with_message(self, capsys, outdir, monkeypatch):
        from fpcredit import mc
        monkeypatch.setattr(mc, "ers_fair_spread_from_paths",
                            functools.partial(mc.ers_fair_spread_from_paths, max_iter=1))
        code, _, err = run(capsys, "price-ers", "--preset", "ers-paper-2009-09-16",
                           "--models", "at1p", "--rho", "0.5", "--paths", "5000",
                           "--seed", "7")
        assert code == 1
        assert err.startswith("error: fair-spread iteration did not converge")

    def test_deterministic_reruns(self, capsys, outdir):
        args = ("price-ers", "--preset", "ers-paper-2009-09-16", "--models",
                "intensity", "--rho", "0", "--paths", "10000", "--seed", "5")
        run(capsys, *args)
        first = (outdir / "ers_pricing.json").read_bytes()
        run(capsys, *args)
        assert (outdir / "ers_pricing.json").read_bytes() == first


class TestQuoteCsv:
    def test_roundtrip_identity(self):
        strip = preset_strip("ers-paper-2009-09-16")
        text = write_quote_csv(strip)
        back = read_quote_csv(text, recovery=strip.recovery)
        assert back.quotes == strip.quotes
        assert write_quote_csv(back) == text

    def test_mid_from_bid_ask(self):
        strip = read_quote_csv("tenor_years,spread_bp,bid_bp,ask_bp\n1.0,,25,31\n")
        assert strip.quotes[0].spread_bp == 28.0

    def test_malformed_value_names_line_and_column(self):
        with pytest.raises(DomainError, match="line 3.*'spread_bp'"):
            read_quote_csv("tenor_years,spread_bp\n1.0,50\n3.0,abc\n")

    def test_missing_header(self):
        with pytest.raises(DomainError, match="header"):
            read_quote_csv("years,bp\n1.0,50\n")

    @pytest.mark.parametrize("text, column", [("spread_bp,tenor_years\n5\n", "tenor_years"),
                                              ("tenor_years,spread_bp\n1.0,50\n3.0\n",
                                               "spread_bp")])
    def test_short_row_names_line_and_column(self, text, column):
        with pytest.raises(DomainError, match=f"line {text.count(chr(10))}.*'{column}'"):
            read_quote_csv(text)

    @given(st.one_of(
        st.text(),
        st.lists(st.lists(st.sampled_from(["tenor_years", "spread_bp", "bid_bp", "ask_bp", "",
                                           "1", "3.0", "5", "-2", "0", "28", "nan", "1e400",
                                           "abc", '"', "\r", "\x00", "\n"]),
                          max_size=5).map(",".join), max_size=5).map("\n".join)))
    @settings(max_examples=300, deadline=None)
    def test_any_text_gives_a_strip_or_a_typed_error(self, text):
        try:
            assert isinstance(read_quote_csv(text), CdsQuoteStrip)
        except FpcreditError:
            pass

    def test_inverted_bid_ask_rejected(self):
        with pytest.raises(DomainError, match="bid"):
            read_quote_csv("tenor_years,spread_bp,bid_bp,ask_bp\n1.0,28,31,25\n")
