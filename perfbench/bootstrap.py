"""Process set-up shared by the benchmark's entry points.

Import this module, and call `pin()`, before numpy is imported: the BLAS
and OpenMP pools read their thread counts once, at load time.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin():
    """Pin BLAS/OpenMP to one thread and make `import zeipel` load the
    checkout's own source tree.  Exits with code 2 when the checkout has no
    `src/zeipel`, so the benchmark never measures some other installed copy."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "zeipel" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no zeipel package under {SRC}; run from a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
