"""The example scripts run end to end against the CLI they drive."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [("run_ers_table.py", ["--paths", "2000"]),
                                          ("run_lehman_calibration.py", [])])
def test_script_runs_without_traceback(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode in (0, 2), done.stderr
    assert "Traceback" not in done.stderr
    assert any(tmp_path.glob("*.json"))  # the report lands in the working directory
