"""The scripts run end to end against the library they drive."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fpcredit.calibration import STEP1_POLISH_STARTS

ROOT = Path(__file__).resolve().parent.parent


def run_script(script, args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script, args", [("run_ers_table.py", ["--paths", "2000"]),
                                          ("run_lehman_calibration.py", [])])
def test_script_runs_without_traceback(tmp_path, script, args):
    done = run_script(script, args, cwd=tmp_path)
    assert done.returncode in (0, 2), done.stderr
    assert "Traceback" not in done.stderr
    assert any(tmp_path.glob("*.json"))  # the report lands in the working directory


def test_calibration_traffic_prints_one_line_per_fit():
    done = run_script("calibration_traffic.py", ["--strips", "2"])
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(x["convention"], x["model"]) for x in lines] == 2 * [
        (convention, model) for convention in ("postponed", "exact")
        for model in ("intensity", "at1p", "sbtv")]
    assert all("parameters" in x or "error" in x for x in lines)
    fitted = [x for x in lines if "parameters" in x]
    assert fitted and all(len(x["repricing_errors_bp"]) == len(x["spreads_bp"])
                          and max(map(abs, x["repricing_errors_bp"])) < 0.01 for x in fitted)
    step1s = [x["diagnostics"]["step1"] for x in fitted if x["model"] == "sbtv"]
    assert step1s and all(1 <= s["polishes"] <= STEP1_POLISH_STARTS for s in step1s)


def test_ers_traffic_prints_one_line_per_cell():
    done = run_script("ers_traffic.py", ["--paths", "3000", "--seeds", "1"])
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(x["preset"], x["seed"], x["model"], x["rho"]) for x in lines] == [
        (preset, 20090916, model, rho) for preset in ("ers-paper-2009-09-16", "lehman-2008-09-12")
        for model in ("at1p", "sbtv", "intensity") for rho in (-1.0, -0.2, 0.0, 0.5, 1.0)]
    assert all(x["result"]["diagnostics"]["n_paths"] == 3000 for x in lines)
    for preset in ("ers-paper-2009-09-16", "lehman-2008-09-12"):
        # the intensity model is blind to the correlation: one price at every rho
        anchor = [x["result"] for x in lines if (x["preset"], x["model"]) == (preset, "intensity")]
        assert anchor[0]["fair_spread_bp"] > 0 and all(r == anchor[0] for r in anchor)


def test_ers_traffic_prints_the_same_bytes_on_a_rerun():
    # the baseline that a change's "byte-identical ERS traffic" rests on
    runs = [run_script("ers_traffic.py", ["--paths", "3000", "--seeds", "1"]) for _ in range(2)]
    assert all(done.returncode == 0 for done in runs), runs[0].stderr
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout


def test_traffic_diff_pairs_lines_and_reports_changes(tmp_path):
    # a small calibration run against a copy in reverse order (lines pair by their
    # labels) with one fit's survivals moved and another fit turned into an error
    done = run_script("calibration_traffic.py", ["--strips", "1"])
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    changed = []
    for x in reversed(lines):
        if (x["convention"], x["model"]) == ("exact", "at1p"):
            x = {**x, "pillar_survivals": [q * (1.0 + 1e-6) for q in x["pillar_survivals"]]}
        elif (x["convention"], x["model"]) == ("exact", "sbtv"):
            x = {"strip": x["strip"], "convention": "exact", "model": "sbtv",
                 "spreads_bp": x["spreads_bp"], "error": "CalibrationError: made up"}
        changed.append(x)
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text(done.stdout)
    new.write_text("".join(json.dumps(x) + "\n" for x in changed))

    same = run_script("traffic_diff.py", [str(old), str(old)])
    assert same.returncode == 0, same.stderr
    assert same.stdout.splitlines() == [f"{len(lines)} paired lines, {len(lines)} identical",
                                        "no numeric field changes"]
    diff = run_script("traffic_diff.py", [str(old), str(new)])
    assert diff.returncode == 0, diff.stderr
    out = diff.stdout.splitlines()
    assert out[0] == f"{len(lines)} paired lines, {len(lines) - 2} identical"
    label = f"strip={lines[0]['strip']} convention=exact"
    assert [line for line in out if line.startswith("error differs")] == [
        f"error differs at {label} model=sbtv: None -> 'CalibrationError: made up'"]
    assert [line for line in out if line.startswith("pillar_survivals[]:")] == [
        f"pillar_survivals[]: max abs {max(lines[4]['pillar_survivals']) * 1e-6:.3g} at "
        f"{label} model=at1p; max rel 1e-06 at {label} model=at1p"]


def test_traffic_diff_max_rel_fails_a_mismatch_or_a_move_above_it(tmp_path):
    def write(name, lines):
        path = tmp_path / name
        path.write_text("".join(json.dumps(x) + "\n" for x in lines))
        return str(path)

    def cell(seed, spread, trace, **extra):
        return {"preset": "p", "seed": seed, "model": "at1p", "rho": 0.0,
                "result": {"fair_spread_bp": spread, "delta_x_trace_bp": trace}, **extra}

    old = write("old.jsonl", [cell(1, 300.0, [300.0, 1e-6, 0.0]), cell(2, 80.0, [80.0, 0.0])])
    close = write("close.jsonl", [cell(1, 300.0 * (1 + 1e-13), [300.0, 1e-6 * (1 + 1e-11), 0.0]),
                                  cell(2, 80.0, [80.0, 0.0])])
    cases = {
        "moved": [cell(1, 300.0 * (1 + 1e-9), [300.0, 1e-6, 0.0]), cell(2, 80.0, [80.0, 0.0])],
        # a small entry moves by 1e-2 of itself, 3e-11 of the largest entry
        "small entry": [cell(1, 300.0, [300.0, 1.01e-6, 0.0]), cell(2, 80.0, [80.0, 0.0])],
        "one side": [cell(1, 300.0, [300.0, 1e-6, 0.0])],
        "error": [cell(1, 300.0, [300.0, 1e-6, 0.0]), cell(2, 80.0, [80.0, 0.0], error="E")],
        "warnings": [cell(1, 300.0, [300.0, 1e-6, 0.0]),
                     cell(2, 80.0, [80.0, 0.0], warnings=["w"])],
        "length": [cell(1, 300.0, [300.0, 1e-6]), cell(2, 80.0, [80.0, 0.0])],
        "null": [cell(1, None, [300.0, 1e-6, 0.0]), cell(2, 80.0, [80.0, 0.0])],
        "dropped": [cell(1, 300.0, [300.0, 1e-6, 0.0]),
                    {"preset": "p", "seed": 2, "model": "at1p", "rho": 0.0,
                     "result": {"delta_x_trace_bp": [80.0, 0.0]}}]}
    for new in [close] + [write(f"{i}.jsonl", lines) for i, lines in enumerate(cases.values())]:
        assert run_script("traffic_diff.py", [old, new]).returncode == 0
    done = run_script("traffic_diff.py", [old, close, "--max-rel", "1e-10"])
    assert done.returncode == 0, done.stdout
    assert "delta_x_trace_bp[]: max abs 1e-17" in done.stdout
    for name, lines in cases.items():
        done = run_script("traffic_diff.py", [old, write("new.jsonl", lines),
                                              "--max-rel", "1e-10"])
        assert done.returncode == 1, (name, done.stdout)
    assert "only in OLD at preset=p seed=2 model=at1p rho=0.0: result.fair_spread_bp" in done.stdout
    assert "above 1e-14: result.delta_x_trace_bp[], result.fair_spread_bp" in run_script(
        "traffic_diff.py", [old, close, "--max-rel", "1e-14"]).stdout


def test_traffic_diff_reports_bool_and_text_changes(tmp_path):
    # a flipped bool and a dropped text field change no number, yet fail --max-rel 0
    def cell(name, low_statistics, **diagnostics):
        return {"preset": "p", "seed": 1, "model": name, "rho": 0.0,
                "result": {"fair_spread_bp": 4.7, "exact": None,
                           "diagnostics": {"low_statistics": low_statistics, **diagnostics}}}

    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text("".join(json.dumps(x) + "\n" for x in (
        cell("at1p", False), cell("intensity", False, model="intensity"))))
    new.write_text("".join(json.dumps(x) + "\n" for x in (
        cell("at1p", True), cell("intensity", False))))
    assert run_script("traffic_diff.py", [str(old), str(old), "--max-rel", "0"]).returncode == 0
    for args, code in (([], 0), (["--max-rel", "0"], 1)):
        done = run_script("traffic_diff.py", [str(old), str(new), *args])
        assert done.returncode == code, done.stdout
        assert done.stdout.splitlines() == [
            "2 paired lines, 0 identical",
            "result.diagnostics.low_statistics differs at preset=p seed=1 model=at1p rho=0.0: "
            "False -> True",
            "only in OLD at preset=p seed=1 model=intensity rho=0.0: result.diagnostics.model"]


def test_traffic_diff_reports_spread_gaps_in_joint_standard_errors(tmp_path):
    # |X_new - X_old| / sqrt(SE_old^2 + SE_new^2) over the pairs whose lines
    # both hold a spread and its standard error; the exit code ignores it
    def cell(rho, spread, se=None):
        result = {"fair_spread_bp": spread}
        if se is not None:
            result["std_error_bp"] = se
        return {"preset": "p", "seed": 1, "model": "at1p", "rho": rho, "result": result}

    def write(name, lines):
        path = tmp_path / name
        path.write_text("".join(json.dumps(x) + "\n" for x in lines))
        return str(path)

    old = write("old.jsonl", [cell(-1.0, 0.0, 0.0), cell(0.0, 10.0, 0.3), cell(0.5, 20.0, 0.5),
                              cell(1.0, 30.0), {"preset": "p", "seed": 1, "model": "sbtv",
                                                "rho": 0.0, "error": "E"}])
    new = write("new.jsonl", [cell(-1.0, 0.0, 0.0), cell(0.0, 10.5, 0.4), cell(0.5, 21.5, 0.5),
                              cell(1.0, 99.0), {"preset": "p", "seed": 1, "model": "sbtv",
                                                "rho": 0.0, "error": "E"}])
    line = ("result.fair_spread_bp in joint SE: max 2.12 at preset=p seed=1 model=at1p rho=0.5; "
            "1 of 3 pairs above 2")
    for args in ([], ["--max-rel", "1e9"]):
        done = run_script("traffic_diff.py", [old, new, *args])
        assert done.returncode == 0, done.stdout
        assert done.stdout.splitlines()[-1] == line
    moved = write("moved.jsonl", [cell(-1.0, 0.1, 0.0), cell(0.0, 10.0, 0.3), cell(0.5, 20.0, 0.5)])
    done = run_script("traffic_diff.py", [old, moved])
    assert done.returncode == 0 and done.stdout.splitlines()[-1] == (
        "result.fair_spread_bp in joint SE: max inf at preset=p seed=1 model=at1p rho=-1.0; "
        "1 of 3 pairs above 2")
    calibration = write("calibration.jsonl", [{"strip": "s", "model": "at1p",
                                               "parameters": {"h": 0.4}}])
    assert "joint SE" not in run_script("traffic_diff.py", [calibration, calibration]).stdout
