"""Process set-up shared by the benchmark and its set-up probe.

The benchmark always measures the ``wavecrit`` sources of the checkout it
lives in.  A copy installed elsewhere must never stand in for them, so the
import is pinned to ``<checkout>/src`` and refused when that tree is absent.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_package():
    """Cap BLAS/OpenMP pools at nproc, then import wavecrit from ``src``.

    Must run before anything imports numpy: the pool sizes are read once,
    when the libraries load.  Child processes inherit the caps.
    """
    for var in _THREAD_VARS:
        os.environ[var] = str(nproc())
    package_dir = SRC / "wavecrit"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no wavecrit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wavecrit
    import wavecrit.cli  # noqa: F401  (imports every layer module)

    if Path(wavecrit.__file__).resolve().parent != package_dir:
        raise SystemExit(f"perfbench: imported wavecrit from {wavecrit.__file__}, not {package_dir}")
    return wavecrit
