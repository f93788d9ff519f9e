"""Self-test of the benchmark: every workload at a tiny size (2,000 paths,
one strip), untraced and traced, emits every metric of BENCHMARK.json with
its unit and runs its checks.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(run_py: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--paths", "2000", "--strips", "1"],
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("seed, trace", [(20090916, 0), (5, 1)])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, seed, trace):
    proc = run_bench(HERE / "run.py", workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)


def test_fails_without_a_result_when_the_library_is_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path / HERE.name / "run.py", "ers-sweep", 1, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
