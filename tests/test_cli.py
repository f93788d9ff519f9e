import dataclasses
import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpcredit import CdsQuoteStrip, DomainError, FpcreditError, make_ers_contract, read_quote_csv
from fpcredit.cli import PARAMETER_CLASSES, _load_calibration, build_parser, main
from fpcredit.presets import ERS_CONTRACT_TERMS, preset_checksum, preset_strip
from oracles import early_default_paths


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

    def test_quotes_file_with_byte_order_mark(self, capsys, outdir, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark
        f = tmp_path / "q.csv"
        text = "tenor_years,spread_bp\n1.0,50\n3.0,80\n5.0,100\n"
        reports = []
        for encoding in ("utf-8", "utf-8-sig"):
            f.write_text(text, encoding=encoding)
            code, _, err = run(capsys, "calibrate", "--quotes", str(f))
            assert code == 0, err
            reports.append((outdir / "calibration.json").read_bytes())
        assert f.read_bytes().startswith(b"\xef\xbb\xbf")
        assert reports[0] == reports[1]

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

    def test_report_with_byte_order_mark(self, capsys, report, tmp_path):
        # the same report re-saved by an editor that writes a UTF-8 byte-order mark
        bom = tmp_path / "bom.json"
        bom.write_text(report.read_text(encoding="utf-8"), encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        outputs = []
        for path in (report, bom):
            code, out, err = run(capsys, "price-cds", "--params", str(path),
                                 "--model", "sbtv", "--tenor", "5", "--spread-bp", "277")
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]

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

    def test_quote_tenor_off_the_quarters(self, capsys, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text("tenor_years,spread_bp\n1.0,50\n2.1,80\n5.0,100\n")
        assert self.check(capsys, "calibrate", "--quotes", str(f)) == (
            "error: quote tenor 2.1y is not a whole number of quarterly periods\n")

    def test_nan_flat_rate(self, capsys):
        assert "flat_rate" in self.check(capsys, "calibrate", "--preset", "lehman-2007-07-10",
                                         "--flat-rate", "nan")

    def test_nan_barrier_exponent(self, capsys):
        assert "b must be" in self.check(capsys, "calibrate", "--preset", "lehman-2007-07-10",
                                         "--model", "at1p", "--b", "nan")

    @pytest.mark.parametrize("model", ["at1p", "sbtv"])
    @pytest.mark.parametrize("h1", ["nan", "1.5"])
    def test_barrier_outside_unit_interval(self, capsys, model, h1):
        err = self.check(capsys, "calibrate", "--preset", "lehman-2007-07-10",
                         "--model", model, "--h1", h1)
        assert "(0, 1)" in err and err.endswith(f", got {float(h1)!r}\n")

    def test_sbtv_h1_that_leaves_no_room_for_h2(self, capsys):
        assert "room for H2" in self.check(capsys, "calibrate", "--preset", "lehman-2008-06-12",
                                           "--model", "sbtv", "--h1", "0.999999")

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

    @pytest.mark.parametrize("rho", ["abc", "", "0,0"])
    def test_unparseable_correlation(self, capsys, rho):
        assert "--rho" in self.check(capsys, "price-ers", "--preset", "ers-paper-2009-09-16",
                                     "--rho", rho)

    def test_repeated_model(self, capsys):
        assert "--models" in self.check(capsys, "price-ers", "--preset", "ers-paper-2009-09-16",
                                        "--models", "at1p,at1p", "--rho", "0")

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

    @pytest.mark.parametrize("tenor", ["2.1", "0", "-1", "nan"])
    def test_bad_tenor_is_named(self, capsys, outdir, tenor):
        run(capsys, "calibrate", "--preset", "lehman-2008-06-12", "--model", "intensity")
        err = self.check(capsys, "price-cds", "--params", str(outdir / "calibration.json"),
                         "--model", "intensity", f"--tenor={tenor}", "--spread-bp", "100")
        [line] = err.splitlines()
        assert f"tenor {float(tenor)!r} years" in line

    def test_tenor_above_cap(self, capsys, outdir):
        run(capsys, "calibrate", "--preset", "lehman-2008-06-12", "--model", "intensity")
        assert "100 years" in self.check(capsys, "price-cds", "--params",
                                         str(outdir / "calibration.json"), "--model",
                                         "intensity", "--tenor", "1e15", "--spread-bp", "100")

    def test_path_count_above_cap(self, capsys):
        assert "n_paths" in self.check(capsys, "price-ers", "--preset", "ers-paper-2009-09-16",
                                       "--models", "intensity", "--rho", "0",
                                       "--paths", "1000000000000")

    def test_inexact_fit_names_each_model(self, capsys):
        # at -30% the discount factors reach e^300 and no fit reprices within 0.01 bp
        err = self.check(capsys, "calibrate", "--preset", "lehman-2007-07-10",
                         "--flat-rate=-30")
        lines = err.splitlines()
        assert len(lines) == 3
        for line, model in zip(lines, ("intensity", "at1p", "sbtv")):
            assert line.startswith(f"error: {model}: fit not exact, max |repricing error|")

    @pytest.mark.parametrize("drop", ["bucket_ends", "sigmas", "h_over_v0"])
    def test_report_with_missing_keys(self, capsys, outdir, drop):
        run(capsys, "calibrate", "--preset", "lehman-2008-06-12", "--model", "at1p")
        path = outdir / "calibration.json"
        doc = json.loads(path.read_text())
        del doc["models"]["at1p"]["parameters"][drop]
        path.write_text(json.dumps(doc))
        assert drop in self.check(capsys, "price-cds", "--params", str(path),
                                  "--model", "at1p", "--tenor", "5", "--spread-bp", "100")

    def test_report_with_empty_pillars(self, capsys, outdir):
        run(capsys, "calibrate", "--preset", "lehman-2008-06-12", "--model", "at1p")
        path = outdir / "calibration.json"
        doc = json.loads(path.read_text())
        doc["config"]["pillars"] = []
        path.write_text(json.dumps(doc))
        assert "pillar" in self.check(capsys, "price-cds", "--params", str(path),
                                      "--model", "at1p", "--tenor", "5", "--spread-bp", "100")

    def test_report_whose_pillar_curve_overflows(self, capsys, outdir):
        # the forward beyond 2y is about -690, so P(0, t) overflows on a 100y schedule
        run(capsys, "calibrate", "--preset", "lehman-2008-06-12", "--model", "at1p")
        path = outdir / "calibration.json"
        doc = json.loads(path.read_text())
        doc["config"]["pillars"] = [[1.0, 1e-300], [2.0, 1.0]]
        path.write_text(json.dumps(doc))
        err = self.check(capsys, "price-cds", "--params", str(path), "--model", "at1p",
                         "--tenor", "100", "--spread-bp", "100")
        assert "infinite premium annuity" in err and "RuntimeWarning" not in err

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


SWEEP_VALUES = ("nan", "inf", "0", "-0.5", "-1e6", "1e300")


class TestNumericFlagSweep:
    """Every numeric flag, given nan, inf, 0, a negative value and a huge value,
    ends in a clean run or an error message, never in a traceback."""

    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("sweep") / "calibration.json"
        assert main(["calibrate", "--preset", "lehman-2008-06-12", "--out", str(path)]) == 0
        return path

    def check(self, capsys, *argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refuses a non-integer with a usage line
            code = exc.code
        out, err = capsys.readouterr()
        assert (code in (0, 2) and out) or (code in (1, 2) and "error: " in err)

    @pytest.mark.parametrize("value", SWEEP_VALUES)
    @pytest.mark.parametrize("flag", ["--flat-rate", "--h1", "--b", "--recovery"])
    def test_calibrate(self, capsys, flag, value):
        self.check(capsys, "calibrate", "--preset", "lehman-2007-07-10", f"{flag}={value}")

    @pytest.mark.parametrize("value", SWEEP_VALUES)
    @pytest.mark.parametrize("flag", ["--flat-rate", "--h1", "--b", "--recovery"])
    def test_calibrate_sbtv(self, capsys, flag, value):
        # SBTV alone: with every model, an error of an earlier one ends the run first
        self.check(capsys, "calibrate", "--preset", "lehman-2008-06-12", "--model", "sbtv",
                   f"{flag}={value}")

    @pytest.mark.parametrize("b", ["-300", "-500", "-1000"])
    def test_calibrate_sbtv_at_moderately_negative_b(self, capsys, b):
        # some step-1 polishes reach points where survival vanishes, and at -1000
        # TRF's gradient overflows at a start with finite spreads
        self.check(capsys, "calibrate", "--preset", "lehman-2008-06-12", "--model", "sbtv",
                   f"--b={b}")

    @pytest.mark.parametrize("value", SWEEP_VALUES)
    @pytest.mark.parametrize("flag", ["--tenor", "--spread-bp"])
    def test_price_cds(self, capsys, report, flag, value):
        argv = {"--tenor": "5", "--spread-bp": "100", flag: value}
        self.check(capsys, "price-cds", "--params", str(report), "--model", "sbtv",
                   *(f"{k}={v}" for k, v in argv.items()))

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-5", "1" + "0" * 300])
    def test_price_ers_paths(self, capsys, value):
        self.check(capsys, "price-ers", "--preset", "ers-paper-2009-09-16",
                   "--models", "intensity", "--rho", "0", f"--paths={value}")


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

    def test_degenerate_fixed_point_exits_with_message(self, capsys, outdir, monkeypatch):
        # zero recovery and a path set on which every default comes before the
        # first payment date: the fair-spread equation has no root
        from fpcredit import cli, mc
        monkeypatch.setitem(cli.ERS_CONTRACT_TERMS, "recovery", 0.0)
        monkeypatch.setattr(mc, "simulate_joint_paths",
                            lambda model, ers, cfg: early_default_paths(ers, 1.0))
        code, _, err = run(capsys, "price-ers", "--preset", "ers-paper-2009-09-16",
                           "--models", "at1p", "--rho", "0.5", "--paths", "5000",
                           "--seed", "7")
        assert code == 1
        assert err.startswith("error: fair ERS spread undefined")

    def test_sweep_draws_each_model_once_and_reports_each_cell_as_run_alone(
            self, capsys, outdir, monkeypatch):
        # scripts/run_ers_table.py's sweep runs model by model, one draw per model,
        # the hazard model's included, and prints and saves each cell as a cold
        # run of it alone
        from fpcredit import mc
        draws, draw = [], mc._firm_draw
        monkeypatch.setattr(mc, "_firm_draw", lambda *key: draws.append(key) or draw(*key))
        monkeypatch.setattr(mc, "_last_draw", None)
        models, rhos = ["at1p", "sbtv", "intensity"], ["-1", "-0.2", "0", "0.5", "1"]
        sweep = ("price-ers", "--preset", "ers-paper-2009-09-16", "--paths", "20000")
        code, out, _ = run(capsys, *sweep, "--models", ",".join(models),
                           f"--rho={','.join(rhos)}")
        assert code == 0 and len(draws) == 3
        results = json.loads((outdir / "ers_pricing.json").read_text())["results"]
        rows = []
        for rho in rhos:
            cells = []
            for model in models:
                monkeypatch.setattr(mc, "_last_draw", None)
                _, alone, _ = run(capsys, *sweep, "--models", model, f"--rho={rho}")
                row = alone.splitlines()[1]
                cells.append(row[7:])
                cell = json.loads((outdir / "ers_pricing.json").read_text())["results"][model]
                assert cell == {str(float(rho)): results[model][str(float(rho))]}
            rows.append(f"{row[:6]} " + " ".join(cells))
        assert out.splitlines()[1:1 + len(rhos)] == rows

    @pytest.mark.parametrize("rho", build_parser().parse_args(["price-ers"]).rho.split(","))
    def test_study_terms_are_the_contract_defaults(self, rho):
        # the benchmark prices the contract from make_ers_contract's defaults
        def assert_fields_equal(a, b):
            for f in dataclasses.fields(a):
                x, y = getattr(a, f.name), getattr(b, f.name)
                if dataclasses.is_dataclass(x):
                    assert_fields_equal(x, y)
                else:
                    assert np.array_equal(x, y), f.name

        assert_fields_equal(make_ers_contract(rho=float(rho)),
                            make_ers_contract(rho=float(rho), **ERS_CONTRACT_TERMS))

    @pytest.mark.parametrize("name, checksum", [
        ("lehman-2007-07-10", "324a1d2ed26e536c"), ("lehman-2008-06-12", "0a78ffc86010222a"),
        ("lehman-2008-09-12", "5743f4320e586754"), ("ers-paper-2009-09-16", "4c80c19dd6b58349")])
    def test_preset_checksums_are_pinned(self, name, checksum):
        assert preset_checksum(name) == checksum

    def test_deterministic_reruns(self, capsys, outdir):
        args = ("price-ers", "--preset", "ers-paper-2009-09-16", "--models",
                "intensity", "--rho", "0", "--paths", "10000", "--seed", "5")
        run(capsys, *args)
        first = (outdir / "ers_pricing.json").read_bytes()
        run(capsys, *args)
        assert (outdir / "ers_pricing.json").read_bytes() == first


class TestQuoteCsv:
    def test_reads_the_ers_preset_exactly(self):
        strip = preset_strip("ers-paper-2009-09-16")
        text = ("tenor_years,spread_bp,bid_bp,ask_bp\n"
                "1.0,28.0,25.0,31.0\n"
                "3.0,36.5,34.0,39.0\n"
                "5.0,44.5,42.0,47.0\n"
                "7.0,48.5,46.0,51.0\n"
                "10.0,52.5,50.0,55.0\n")
        assert read_quote_csv(text, recovery=strip.recovery).quotes == strip.quotes

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
