"""Slow, independent oracles that the tests hold the solver to.

``linear_propagator`` evaluates the free solution at one point with the u1
window integrated by adaptive quadrature; ``duhamel_apply`` re-sums the
whole forcing history at one level instead of advancing the lattice
recurrence of ``wavecrit.solver.march``.  Neither is part of the package.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate

from wavecrit.exponents import strauss_exponent
from wavecrit.solver import (
    CharacteristicGrid,
    RadialData,
    SolutionRun,
    _forcing,
)


def linear_propagator(data: RadialData, t: float, r: float) -> float:
    """Free solution at a single point with the u1 window integrated by
    adaptive quadrature: the independent oracle the tests compare the
    lattice and fine-table paths against."""
    if t < 0.0:
        raise ValueError("time must be non-negative")
    ra = abs(r)
    eps = data.amplitude
    if ra < 1e-7:  # the two-point formula's limit on the axis
        return eps * (data.u0(t) + t * data.u0_derivative(t) + t * data.u1(t))

    def h1(x):
        return 0.5 * x * eps * data.u1(abs(x))

    xp, xm = t + ra, t - ra
    pts = [x for x in (-data.support_radius, 0.0, data.support_radius) if xm < x < xp]
    window = integrate.quad(h1, xm, xp, points=pts or None, limit=200)[0]
    two_point = 0.5 * (xp * (eps * data.u0(abs(xp))) - xm * (eps * data.u0(abs(xm)))) / ra
    return float(two_point + window / ra)


def _history_prefix(grid: CharacteristicGrid, g_level: np.ndarray) -> np.ndarray:
    """Cumulative lattice trapezoid of (rho/2) g(rho); constant beyond support."""
    h = grid.h
    hvals = 0.5 * (h * np.arange(grid.r_nodes)) * g_level
    return np.concatenate([[0.0], np.cumsum(0.5 * (hvals[1:] + hvals[:-1]) * h)])


def _duhamel_level(
    grid: CharacteristicGrid,
    prefixes: list,
    g_levels: list,
    i: int,
) -> np.ndarray:
    """Forcing contribution at level i from all strictly earlier levels.

    Returns r * Lu at the off-axis nodes and Lu itself at the axis node.
    """
    h = grid.h
    nr = grid.r_nodes
    j = np.arange(nr)
    acc = np.zeros(nr)
    axis = 0.0
    for k in range(i):
        w = 0.5 * h if k == 0 else h
        m = i - k
        qk = prefixes[k]
        hi = np.minimum(m + j, nr - 1)
        lo = np.minimum(np.abs(m - j), nr - 1)
        acc += w * (qk[hi] - qk[lo])
        if m < nr:
            axis += w * (m * h) * g_levels[k][m]
    out = np.empty(nr)
    out[0] = axis
    out[1:] = acc[1:]
    return out


def duhamel_apply(run: SolutionRun, t_level: int, r):
    """Forcing term Lu at stored level ``t_level`` and lattice radius r, or
    at an array of lattice radii (returning an array of the same shape).

    The slow oracle for ``march``: every term of the forcing history is
    summed afresh.  Every level strictly below must already be computed
    (it is, for any completed or blown-up run).
    """
    grid = run.grid
    if not 0 <= t_level < run.field.shape[0]:
        raise ValueError(f"level {t_level} not stored")
    r_arr = np.asarray(r, dtype=float)
    j = np.rint(r_arr / grid.h).astype(int)
    if np.any(np.abs(r_arr - j * grid.h) > 1e-9 * np.maximum(1.0, np.abs(r_arr))) \
            or np.any((j < 0) | (j >= grid.r_nodes)):
        raise ValueError(f"radius {r} is not a lattice node")
    p = strauss_exponent(3)
    g_levels = [_forcing(run.spec, p, np.abs(run.field[k])) for k in range(t_level)]
    prefixes = [_history_prefix(grid, g) for g in g_levels]
    out = _duhamel_level(grid, prefixes, g_levels, t_level)
    lu = np.where(j == 0, out[0], out[j] / (np.maximum(j, 1) * grid.h))
    return float(lu) if lu.ndim == 0 else lu

