"""The benchmark in perfbench/ reaches into fpcredit by name, and its tracer
skips names it cannot find, so a rename would silently zero its per-layer
metrics.  These tests read the names from perfbench's sources (without
importing or writing anything there) and resolve each one on fpcredit."""

import ast
import importlib
from pathlib import Path

import pytest

import fpcredit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def module_constant(filename: str, name: str):
    tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in perfbench/{filename}")


TRACED = [(module, attr) for module, attrs in module_constant("spans.py", "TRACED").items()
          for attr in attrs]


@pytest.mark.parametrize("module, attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"fpcredit.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("name", sorted(module_constant("workloads.py", "CALIBRATORS").values()))
def test_calibrator_resolves(name):
    assert callable(getattr(fpcredit, name))


# fair-spread diagnostics perfbench reads by name: run.py sums "iterations" into
# mc.fixed_point_iters, and check_distressed in workloads.py gates on the last
# entry of "delta_x_trace_bp"
FAIR_SPREAD_KEYS = {"iterations": "run.py", "delta_x_trace_bp": "workloads.py"}


@pytest.mark.parametrize("key, filename", FAIR_SPREAD_KEYS.items())
def test_fair_spread_key_is_read_by_name(key, filename):
    assert f'diagnostics.get("{key}"' in (PERFBENCH / filename).read_text(encoding="utf-8")


def test_fair_spread_diagnostics_carry_the_keys():
    model = fpcredit.At1pParams(h_over_v0=0.4, b=0.0,
                                vols=fpcredit.VolatilityTermStructure((30.0,), (0.3,)))
    result = fpcredit.ers_fair_spread(model, fpcredit.make_ers_contract(rho=0.5),
                                      fpcredit.DiscountCurve(flat_rate=0.03),
                                      fpcredit.SimulationConfig(n_paths=5_000, rng_seed=1))
    assert set(FAIR_SPREAD_KEYS) <= set(result.diagnostics)
    trace = result.diagnostics["delta_x_trace_bp"]
    assert result.diagnostics["iterations"] == len(trace)
    assert trace[-1] == 0.0
