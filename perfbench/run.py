"""fpcredit benchmark: one workload per run, one caller in one process.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the library is imported from `src/` next to this
directory.  The run makes whole passes over the workload, at least one and
then another while the median pass so far says it ends no later than half a
pass after --seconds, then prints every metric with its unit and, as the
last line, one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`.  With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are the
per-layer metrics, measured by replaying the same passes with every
fpcredit layer wrapped in spans (see spans.py).  The end-to-end times are
paced: converted to seconds at a fixed reference speed of the host by the
kernels in pace.py; each timing line also prints the raw wall time.

--paths and --strips shrink the workload for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from spans import Tracer, instrument
from workloads import CALIBRATE_PRESETS, DEFAULT_SEED, ERS_PATHS, WORKLOADS, Pass

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 3

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "op_latency_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "setup.import_s": "s",
    "presets.expand_s": "s",
    "survival.calls": "calls/pass",
    "survival.busy_s": "s/pass",
    "survival.us_per_call": "us",
    "cds.calls": "calls/pass",
    "cds.busy_s": "s/pass",
    "cds.us_per_call": "us",
    "curves.discount_calls": "calls/pass",
    "curves.busy_s": "s/pass",
    "calibration.intensity_s": "s/pass",
    "calibration.at1p_s": "s/pass",
    "calibration.sbtv_s": "s/pass",
    "calibration.sbtv_step1_s": "s/pass",
    "calibration.sbtv_step1_evals": "evals/pass",
    "calibration.brentq_iters": "iters/pass",
    "calibration.failures": "count",
    "mc.simulate_s": "s/pass",
    "mc.simulate_calls": "calls/pass",
    "mc.path_steps": "steps/pass",
    "mc.ns_per_path_step": "ns",
    "mc.useful_path_ratio": "ratio",
    "mc.fixed_point_s": "s/pass",
    "mc.fixed_point_iters": "iters/pass",
    "mc.cva_calls": "calls/pass",
    "mc.variance_reduction": "ratio",
    "mc.wnv_bp2s": "bp2.s",
    "mc.failures": "count",
    "trace.overhead_s": "s/pass",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--paths", type=int, default=ERS_PATHS,
                        help="Monte Carlo paths per ERS cell")
    parser.add_argument("--strips", type=int, default=len(CALIBRATE_PRESETS),
                        choices=range(1, len(CALIBRATE_PRESETS) + 1),
                        help="presets per calibrate pass")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_fpcredit():
    if not (SRC / "fpcredit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fpcredit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fpcredit
    if Path(fpcredit.__file__).resolve().parent != (SRC / "fpcredit").resolve():
        raise SystemExit(f"perfbench: imported fpcredit from {fpcredit.__file__}, not {SRC}")
    return fpcredit


def probe_setup(args):
    """The set-up a desk user pays in a fresh process: import and build the inputs."""
    start = perf_counter()
    fp = import_fpcredit()
    imported = perf_counter()
    WORKLOADS[args.workload].build(fp, args.seed, args.strips, args.paths)
    print(json.dumps({"import_s": imported - start, "expand_s": perf_counter() - imported}))


def measure_setup(args, pace):
    """Raw and paced wall times of SETUP_PROBES fresh set-up processes.  The
    caller has imported fpcredit already, so the bytecode and file caches
    are warm."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--strips", str(args.strips), "--paths", str(args.paths)]
    walls, paced, probes = [], [], []
    for _ in range(SETUP_PROBES):
        before = pace.before("process")
        start = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        walls.append(perf_counter() - start)
        paced.append(pace.paced("process", before, walls[-1]))
        probes.append(json.loads(proc.stdout.splitlines()[-1]))
    return walls, paced, probes


def run_passes(fp, workload, inputs, budget_s, pace):
    """Whole passes: at least one, and another while it should end no later than
    half a pass after the budget, judged by the median pass so far."""
    passes, took = [], []
    start = perf_counter()
    while not passes or perf_counter() - start + statistics.median(took) / 2 <= budget_s:
        began = perf_counter()
        passes.append(workload.run_pass(fp, inputs, len(passes),
                                        Pass(gate=nullcontext, pace=pace)))
        took.append(perf_counter() - began)
    return passes


def warm_up(fp, inputs):
    """Load scipy's and numpy's lazily imported parts before timing."""
    curve = inputs.curve
    strip = inputs.strips[0][1] if hasattr(inputs, "strips") else inputs.strip
    model, _ = fp.calibrate_at1p(strip, curve)
    fp.bootstrap_intensity(strip, curve)
    fp.ers_fair_spread(model, fp.make_ers_contract(rho=0.5), curve,
                       fp.SimulationConfig(n_paths=1000, rng_seed=1))


def timing_line(name, unit, paced, raw):
    """Median plus the highest percentile with at least ten samples beyond
    it, of the paced samples, then the raw median."""
    ordered = sorted(paced)
    n = len(ordered)
    tail = (f"p{100 * (n - 10) // n} {ordered[n - 11]:.4f} {unit}" if n > 10
            else "tail n/a (n <= 10)")
    return (f"{name:<18} p50 {statistics.median(ordered):.4f} {unit}   {tail}   (n={n})   "
            f"raw p50 {statistics.median(raw):.4f} {unit}")


def info(fp):
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
    loc = sum(len(p.read_text(encoding="utf-8").splitlines())
              for p in sorted((SRC / "fpcredit").rglob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "fpcredit": fp.__version__, "git_sha": sha, "src_loc": loc}


def median(values):
    return statistics.median(values) if values else 0.0


def wnv_samples(passes):
    """Work-normalised variance, SE^2 x seconds, of every cell with a non-zero SE."""
    return [r.std_error_bp ** 2 * s for p in passes for _, _, s, r in p.cells
            if r.std_error_bp > 0]


def layer_metrics(tracer, traced, untraced, probes):
    n = len(traced)
    reports = [r for p in traced for r in p.reports]
    cells = [c for p in traced for c in p.cells]
    joint = [r for _, _, _, r in cells if r.diagnostics.get("grid_points")]
    path_steps = sum(r.diagnostics["n_paths"] * (r.diagnostics["grid_points"] - 1)
                     for r in joint)
    simulated = sum(r.diagnostics.get("n_paths", 0) for _, _, _, r in cells)
    defaulted = sum(r.diagnostics.get("paths_defaulted", 0) for _, _, _, r in cells)
    survival_calls, survival_busy = tracer.layer("survival")
    cds_calls, cds_busy = tracer.layer("cds")
    curve_calls, curve_busy = tracer.layer("curves")
    overhead = statistics.fmean(t.paced_wall_s - u.paced_wall_s for t, u in zip(traced, untraced))
    return {
        "setup.import_s": median([p["import_s"] for p in probes]),
        "presets.expand_s": median([p["expand_s"] for p in probes]),
        "survival.calls": survival_calls / n,
        "survival.busy_s": survival_busy / n,
        "survival.us_per_call": survival_busy / survival_calls * 1e6 if survival_calls else 0.0,
        "cds.calls": cds_calls / n,
        "cds.busy_s": cds_busy / n,
        "cds.us_per_call": cds_busy / cds_calls * 1e6 if cds_calls else 0.0,
        "curves.discount_calls": curve_calls / n,
        "curves.busy_s": curve_busy / n,
        "calibration.intensity_s": tracer.total_s("calibration.bootstrap_intensity") / n,
        "calibration.at1p_s": tracer.total_s("calibration.calibrate_at1p") / n,
        "calibration.sbtv_s": tracer.total_s("calibration.calibrate_sbtv") / n,
        "calibration.sbtv_step1_s": tracer.total_s("calibration._sbtv_step1") / n,
        "calibration.sbtv_step1_evals": sum(
            r.diagnostics.get("step1", {}).get("objective_evaluations", 0) for r in reports) / n,
        "calibration.brentq_iters": sum(
            sum(r.diagnostics.get("iterations", ())) for r in reports) / n,
        "calibration.failures": sum(p.calibration_failures for p in traced),
        "mc.simulate_s": (tracer.total_s("mc.simulate_joint_paths")
                          + tracer.total_s("mc.simulate_intensity_paths")) / n,
        "mc.simulate_calls": (tracer.calls("mc.simulate_joint_paths")
                              + tracer.calls("mc.simulate_intensity_paths")) / n,
        "mc.path_steps": path_steps / n,
        "mc.ns_per_path_step": (tracer.total_s("mc.simulate_joint_paths") / path_steps * 1e9
                                if path_steps else 0.0),
        "mc.useful_path_ratio": defaulted / simulated if simulated else 0.0,
        "mc.fixed_point_s": tracer.total_s("mc.ers_fair_spread_from_paths") / n,
        "mc.fixed_point_iters": sum(r.diagnostics.get("iterations", 0)
                                    for _, _, _, r in cells) / n,
        "mc.cva_calls": tracer.calls("mc.ers_cva_term") / n,
        "mc.variance_reduction": median([r.diagnostics.get("variance_reduction_factor", 0.0)
                                         for r in joint if r.std_error_bp > 0]),
        "mc.wnv_bp2s": median(wnv_samples(untraced)),
        "mc.failures": sum(p.mc_failures for p in traced),
        "trace.overhead_s": overhead,
        "trace.overhead_ratio": overhead / statistics.fmean(u.paced_wall_s for u in untraced),
    }


def main(argv=None):
    args = parse_args(argv)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc
    if args.probe_setup:
        probe_setup(args)
        return 0

    workload = WORKLOADS[args.workload]
    fp = import_fpcredit()
    from pace import Pace  # imports numpy and scipy, which the set-up probe times

    pace = Pace()
    setup_walls, setup_paced, probes = measure_setup(args, pace)
    inputs = workload.build(fp, args.seed, args.strips, args.paths)
    warm_up(fp, inputs)

    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run_passes(fp, workload, inputs, budget, pace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = list(untraced)
    tracer = None
    if args.trace:
        tracer = Tracer()
        with instrument(tracer):
            traced = [workload.run_pass(fp, inputs, i, Pass(gate=tracer.recording, pace=pace))
                      for i in range(len(untraced))]
        passes += traced

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    unit_paced = [p.paced[name] for p in untraced for name in p.units]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={len(untraced)}")
    print("info " + json.dumps(info(fp)))
    print(timing_line("setup_s", "s", setup_paced, setup_walls))
    print(timing_line("wall_s", "s", [p.paced_wall_s for p in untraced],
                      [p.wall_s for p in untraced]))
    print(timing_line("op_latency_s", "s", unit_paced,
                      [p.steps[name] for p in untraced for name in p.units])
          + f"   [one sample = {workload.unit}]")
    wnv = wnv_samples(untraced)
    if wnv:
        print(f"{'ers_wnv_bp2s':<18} p50 {statistics.median(wnv):.6f} bp2.s   (n={len(wnv)})")
    print(f"{'peak_rss_mb':<18} {peak_rss_mb:.1f} MB")
    print(f"{'check_fail_ratio':<18} {len(failures)}/{attempted} = "
          f"{len(failures) / attempted if attempted else 0.0:g}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")

    if args.trace:
        metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                   for name, value in layer_metrics(tracer, traced, untraced, probes).items()}
        print("span profile (self time, largest first):")
        print("\n".join(tracer.profile_lines()[:25]))
    else:
        values = {"setup_s": statistics.median(setup_paced),
                  "wall_s": statistics.median(p.paced_wall_s for p in untraced),
                  "op_latency_s": statistics.median(unit_paced),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not failures and attempted > 0, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
