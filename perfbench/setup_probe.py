"""One set-up of the benchmark, timed from outside by run.py: start Python,
import zeipel with numpy and scipy, and generate a workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

import bootstrap

bootstrap.pin()

import workloads  # noqa: E402  (imports zeipel, numpy and scipy)

workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
