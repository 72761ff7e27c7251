"""The benchmark's own calls into zeipel: one tiny pass of each workload in
`perfbench/workloads.py`, then its output checks, so that a change to a map
entry the benchmark calls fails the test suite and not only a benchmark run."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload", ("ephemeris", "halving", "long_arc", "jacobian"))
def test_tiny_pass_runs_and_checks(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    inp = workloads.make_inputs(workload, 1, tiny=True)
    ps = workloads.timed_pass(inp, tmp_path)
    _, failures = workloads.check(inp, ps)
    assert ps.attempted > 0 and ps.failed == 0
    assert failures == []
