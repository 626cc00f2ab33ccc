"""What the modules share: the bracket 3 + |y| of the weights and the kernel
bounds, the result container of a numerically checked inequality, and the
one block rule for the temporaries of a sweep too large to hold whole (the
modulus pair checks and Jensen trials, the lam blocks of the kernels' table
and envelopes and the row blocks of their products, the identity residual's
blocks of history levels, the weighted maxima of a marched field, a march's
blocks of levels and its free band): a block stays in the heap a fresh
process reuses, not in memory mapped and trimmed anew."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BLOCK_ELEMENTS = 16000  # float64 values, 125 KiB: under glibc's 128 KiB mmap threshold


def row_blocks(rows: int, cols: int):
    """Slices of at least one and at most BLOCK_ELEMENTS // cols rows that
    cover ``rows`` rows of ``cols`` columns, the last one clipped."""
    step = max(1, BLOCK_ELEMENTS // max(cols, 1))
    return (slice(i, min(i + step, rows)) for i in range(0, rows, step))


def bracket(y):
    """Shifted absolute bracket 3 + |y|; always >= 3 so log stays positive."""
    arr = np.asarray(y, dtype=float)
    out = 3.0 + np.abs(arr)
    return float(out) if arr.ndim == 0 else out


@dataclass
class WeightReport:
    """Outcome of an inequality check over a sampled region.

    ``fitted_constant`` is the extremal value the sweep produced (a sup, an
    inf or a worst residual depending on the check).  ``samples`` holds
    CSV-exportable rows described by ``columns``, kept only by the checks
    whose rows are read: the decay profile and the zone check.
    """

    region: str
    fitted_constant: float
    passed: bool
    columns: tuple = ()
    samples: list = field(default_factory=list)
