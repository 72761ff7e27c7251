"""zeipel benchmark: one workload, timed for a fixed wall-clock budget.

    python3 perfbench/run.py --workload ephemeris --seed 1 --seconds 20 --trace 0

Run from anywhere inside a full checkout; the package is imported from the
checkout's `src/`.  With `--trace 0` it measures set-up time, repeats whole
untraced passes until the budget is spent and reports the end-to-end
metrics.  Times are host-scaled: each pass (and each set-up) is divided by
a fixed calibration loop timed next to it, see `workloads.calibration`.  With `--trace 1` it alternates untraced and traced passes and
reports the per-layer metrics.  Either way the outputs of the last pass are
checked, and the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import bootstrap

bootstrap.pin()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "pos_err_o2_km": "km",
    "pos_err_o1_km": "km",
    "mean_drift_o2": "1",
    "peak_rss_mb": "MB",
}


def log(msg):
    print(f"# {msg}", flush=True)


def provenance():
    sha = "unknown (not a git checkout)"
    if (bootstrap.ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(bootstrap.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or sha
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "threads": {var: os.environ[var] for var in bootstrap.THREAD_VARS},
    }


def measure_setup(workload, seed):
    """Median host-scaled wall time of fresh processes that import zeipel,
    numpy and scipy and build the inputs."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = workloads.calibration()
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run([sys.executable, str(probe), workload, str(seed)], check=True,
                       stdout=subprocess.DEVNULL)
        wall.append(time.perf_counter() - t0)
        scaled.append(workloads.host_scaled(wall[-1], 0.5 * (before + workloads.calibration())))
    log("setup wall s: " + " ".join(f"{t:.4f}" for t in wall))
    return statistics.median(scaled)


def log_pass(label, k, ps):
    log(f"{label} pass {k}: wall {ps.seconds:.4f} s, host-scaled {ps.scaled:.4f} s, "
        f"table cache hits {ps.hits} misses {ps.misses}, "
        f"ops {ps.attempted} failed {ps.failed}")


def spent(started, seconds, durations):
    """True when another pass of median length would overrun the budget."""
    return time.perf_counter() - started + statistics.median(durations) > seconds


def run_untraced(inp, out_dir, seconds):
    passes = []
    started = time.perf_counter()
    while not passes or not spent(started, seconds, [p.seconds for p in passes]):
        passes.append(workloads.timed_pass(inp, out_dir))
        log_pass("untraced", len(passes), passes[-1])
    return passes


def run_traced(inp, out_dir, seconds):
    """Alternate untraced and traced passes; per-layer medians over the
    traced ones, overhead = median traced - median untraced host-scaled time."""
    plain, traced, layer = [], [], []
    started = time.perf_counter()
    while not traced or not spent(started, seconds, [p.seconds + t.seconds for p, t in zip(plain, traced)]):
        plain.append(workloads.timed_pass(inp, out_dir))
        log_pass("untraced", len(plain), plain[-1])
        tr = tracer.Tracer()
        with tr.installed():
            traced.append(workloads.timed_pass(inp, out_dir))
        log_pass("traced", len(traced), traced[-1])
        layer.append(tr.metrics(traced[-1].hits, traced[-1].misses))
    metrics = {name: statistics.median(m[name] for m in layer) for name, _ in tracer.PER_LAYER[:-1]}
    metrics["trace.overhead_s"] = (statistics.median(t.scaled for t in traced)
                                   - statistics.median(p.scaled for p in plain))
    return plain + traced, metrics


def measure(workload, seed, seconds, trace, tiny=False):
    """Run one workload and return the result object printed as the last
    line.  `tiny` shrinks the inputs (for the self-test)."""
    log(f"workload {workload} seed {seed} seconds {seconds:g} trace {trace}")
    log("provenance " + json.dumps(provenance(), sort_keys=True))
    out_dir = bootstrap.ROOT / ".perfbench_out" / f"{workload}-{os.getpid()}"
    try:
        if trace == 0:
            setup_s = measure_setup(workload, seed)
        inp = workloads.make_inputs(workload, seed, tiny)
        if trace == 0:
            passes = run_untraced(inp, out_dir, seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            passes, values = run_traced(inp, out_dir, seconds)
        accuracy, failures = workloads.check(inp, passes[-1])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for msg in failures:
        log(f"CHECK FAILED: {msg}")
    if trace == 0:
        wall = [p.seconds for p in passes]
        log(f"run_s: median of {len(passes)} host-scaled passes; wall median {statistics.median(wall):.4f} s, "
            f"min {min(wall):.4f} s, max {max(wall):.4f} s")
        values = {"setup_s": setup_s, "run_s": statistics.median(p.scaled for p in passes),
                  **accuracy, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
    else:
        units = dict(tracer.PER_LAYER)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    for name, m in metrics.items():
        log(f"{name} = {m['value']!r} {m['unit']}")
    return {
        "correct": not failures and len(metrics) == len(units),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
