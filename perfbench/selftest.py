"""Self-test of the benchmark at tiny sizes (about a minute):

    python3 perfbench/selftest.py

It shows that every metric named in BENCHMARK.json is reported with its
unit on every workload, in both modes, with all checks passing; that a
perturbed analytic position fails the ephemeris checks; and that a
non-symplectic Jacobian fails the jacobian checks.  Exit code 0 when all
of that holds, 1 otherwise.
"""

import bootstrap

bootstrap.pin()

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def declared_metrics():
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def clean_pass(workload, out_dir, problems):
    """A tiny pass whose unaltered outputs must pass the checks."""
    inp = workloads.make_inputs(workload, SEED, tiny=True)
    ps = workloads.timed_pass(inp, out_dir)
    failures = workloads.check(inp, ps)[1]
    if failures:
        problems.append(f"{workload}: unaltered outputs failed the checks: {failures}")
    return inp, ps


def main():
    problems = []
    end_to_end, per_layer = declared_metrics()
    for workload in workloads.WORKLOADS:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            result = run.measure(workload, SEED, 0.0, trace, tiny=True)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != declared:
                problems.append(f"{workload} trace {trace}: metrics {sorted(got.items())} "
                                f"differ from BENCHMARK.json {sorted(declared.items())}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: correct {result['correct']}, "
                                f"failed {result['failed']}")

    out_dir = bootstrap.ROOT / ".perfbench_out" / "selftest"
    try:
        inp, ps = clean_pass("ephemeris", out_dir, problems)
        path = ps.data[0]["paths"]["o2"]
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[2].split(",")
        col = header.index("x")
        row[col] = repr(float(row[col]) + 5.0)  # 5 km off in one sample
        lines[2] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        failures = workloads.check(inp, ps)[1]
        print("# perturbed analytic position:", failures)
        if not failures:
            problems.append("a 5 km error in one analytic position passed the ephemeris checks")

        inp, ps = clean_pass("jacobian", out_dir, problems)
        ps.data[0]["fwd"] = ps.data[0]["fwd"].copy()
        ps.data[0]["fwd"][0, 3] += 1e-4
        failures = workloads.check(inp, ps)[1]
        print("# non-symplectic Jacobian:", failures)
        if not any("symplectic" in f for f in failures):
            problems.append("a non-symplectic forward Jacobian passed the jacobian checks")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for p in problems:
        print("SELFTEST FAIL:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
