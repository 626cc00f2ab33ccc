"""Iteration apparatus for the blow-up side: slicing levels, exponent
recursions with closed forms, the doubly-exponential growth ledger, the
weighted solution functional and a divergence-onset predictor.

All growth arithmetic lives in log space; the amplitude sequence grows like
p**j in the exponent and would overflow floats within a handful of steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exponents import strauss_exponent
from .kernels import KernelConfig, data_kernel, source_kernel
from .modulus import ModulusSpec, convex_companion, threshold_product
from .solver import _forcing


def slicing_level(j: int) -> float:
    """Nested slicing sequence 2 - 2**-(j+1); increasing with limit 2."""
    if j < 0:
        raise ValueError("slicing index must be non-negative")
    return 2.0 - 2.0 ** (-(j + 1))


def exponent_sequences(n: int, J: int):
    """Recursions a_{j+1} = 1 + a_j p, b_{j+1} = p-1 + b_j p,
    s_{j+1} = 1/p + s_j p from (1, 0, 1 + 1/p); rows 0..J.

    Every row is cross-checked against the geometric closed forms
        a_j = (p/(p-1)) p^j - 1/(p-1),
        b_j = p^j - 1,
        s_j = (p/(p-1)) p^j - 1/((p-1) p),
    and a drift beyond 1e-9 relative raises.
    """
    if J < 0:
        raise ValueError("J must be non-negative")
    p = strauss_exponent(n)
    a = np.empty(J + 1)
    b = np.empty(J + 1)
    s = np.empty(J + 1)
    a[0], b[0], s[0] = 1.0, 0.0, 1.0 + 1.0 / p
    for j in range(J):
        a[j + 1] = 1.0 + a[j] * p
        b[j + 1] = (p - 1.0) + b[j] * p
        s[j + 1] = 1.0 / p + s[j] * p
    pj = p ** np.arange(J + 1, dtype=float)
    a_closed = p / (p - 1.0) * pj - 1.0 / (p - 1.0)
    b_closed = pj - 1.0
    s_closed = p / (p - 1.0) * pj - 1.0 / ((p - 1.0) * p)
    for rec, closed, name in ((a, a_closed, "a"), (b, b_closed, "b"), (s, s_closed, "sigma")):
        drift = np.max(np.abs(rec - closed) / np.maximum(np.abs(closed), 1.0))
        if drift > 1e-9:
            raise ArithmeticError(f"{name}-sequence drifted from closed form: {drift:g}")
    return a, b, s


@dataclass(frozen=True)
class IterationConstants:
    """Calibration bundle for the growth ledger and the onset predictor.

    ``c0`` and ``m0`` scale the amplitude recursion and its growth floor,
    ``c6`` and ``c7`` the onset predictor's time scale and base, and
    ``epsilon_exp`` is the small exponent loss in the onset's tau(t).
    The constants are existential in the analysis; the defaults make the
    ledger well defined, and onset times computed from them are meaningful
    for ordering modulus families, not as absolute lifespans.
    """

    c0: float = 1.0
    c6: float = 1.0
    c7: float = 1.0
    m0: float = 1.0
    epsilon_exp: float = 0.01

    def __post_init__(self):
        if any(v <= 0.0 for v in (self.c0, self.c6, self.c7, self.m0)):
            raise ValueError("iteration constants must be strictly positive")
        if not 0.0 < self.epsilon_exp <= 0.1:
            raise ValueError("epsilon_exp is a small exponent; need 0 < eps <= 0.1")


@dataclass(frozen=True)
class GrowthLedger:
    """log of the amplitude sequence plus its guaranteed growth floor."""

    log_m: np.ndarray
    log_c5: float
    j1: int
    floor_margin: np.ndarray  # log_m[j] - p^j log_c5 for j >= j1


def growth_sequence(n: int, constants: IterationConstants, J: int) -> GrowthLedger:
    """Amplitude recursion in log space with its closed growth floor.

    log M_{j+1} = p log M_j + log(c0 2^{-(2j+3)} / (3 ell_{2j+2} (a_j p + 1))),
    and the floor log M_j >= p^j log C5 holds for every j >= j1 where
        C4 = c0 (p-1) / (12 p),
        C5 = m0 (4p)^{-p/(p-1)^2} C4^{1/(p-1)},
        j1 = ceil(log C4 / log(4p) - p/(p-1)).
    """
    p = strauss_exponent(n)
    a, _, _ = exponent_sequences(n, max(J, 1))
    log_m = np.empty(J + 1)
    log_m[0] = math.log(constants.m0)
    for j in range(J):
        coeff = math.log(constants.c0) - (2 * j + 3) * math.log(2.0) - math.log(
            3.0 * slicing_level(2 * j + 2) * (a[j] * p + 1.0)
        )
        log_m[j + 1] = p * log_m[j] + coeff
    log_c4 = math.log(constants.c0 * (p - 1.0) / (12.0 * p))
    log_c5 = (
        math.log(constants.m0)
        - p * math.log(4.0 * p) / (p - 1.0) ** 2
        + log_c4 / (p - 1.0)
    )
    j1 = max(0, math.ceil(log_c4 / math.log(4.0 * p) - p / (p - 1.0)))
    pj = p ** np.arange(J + 1, dtype=float)
    margin = log_m - pj * log_c5
    return GrowthLedger(
        log_m=log_m, log_c5=log_c5, j1=j1, floor_margin=margin,
    )


@dataclass
class IterationLedger:
    """Rows (j, ell_{2j}, a_j, b_j, sigma_j, log_m_j) plus the growth floor."""

    rows: list = field(default_factory=list)
    log_c5: float = 0.0
    j1: int = 0


def build_ledger(n: int, constants: IterationConstants, J: int) -> IterationLedger:
    a, b, s = exponent_sequences(n, J)
    growth = growth_sequence(n, constants, J)
    rows = [
        (j, slicing_level(2 * j), float(a[j]), float(b[j]), float(s[j]), float(growth.log_m[j]))
        for j in range(J + 1)
    ]
    return IterationLedger(rows=rows, log_c5=growth.log_c5, j1=growth.j1)


# --------------------------------------------------------------------------
# solution functionals

def weighted_functional(run, cfg: KernelConfig, q: float, t: float) -> float:
    """Radial integral of u(t) mu(|u(t)|)^{1/p} against the diagonal source
    kernel, over the stored radius range (4 pi r^2 measure).

    Non-negative whenever the field, data and forcing are.
    """
    if run.spec is None:
        raise ValueError("functional needs a modulus-bearing run")
    i = run.level_index(t)
    r = run.radii
    kernel = source_kernel(cfg, q, t, t, r)
    vals = convex_companion(run.spec, 3, run.field[i]) * kernel * 4.0 * math.pi * r * r
    return float(np.trapezoid(vals, dx=run.grid.h))


def integral_identity_residual(run, cfg: KernelConfig, q: float, t: float) -> float:
    """Defect of the kernel-weighted space-average identity at time t.

    The identity writes the kernel average of u(t) as a data term (cosh
    kernel), a velocity term (t times the source kernel at s = 0) and the
    forcing history weighted by (t - s) and the source kernel.  For an
    exact solution the two sides agree; on a marched field the residual
    shrinks at the scheme's order under grid refinement.
    """
    i = run.level_index(t)
    h = run.grid.h
    p = strauss_exponent(3)
    r = run.radii
    meas = 4.0 * math.pi * r * r
    eps = run.data.amplitude

    # one row per level time s_k = k h; the last row at exactly t (s <= t)
    s = h * np.arange(i + 1)
    s[i] = t
    eta = source_kernel(cfg, q, t, s, r)
    lhs = float(np.trapezoid(run.field[i] * eta[i] * meas, dx=h))

    u0v = eps * np.asarray([run.data.u0(x) for x in r])
    u1v = eps * np.asarray([run.data.u1(x) for x in r])
    data_term = float(np.trapezoid(u0v * data_kernel(cfg, q, t, r) * meas, dx=h))
    vel_term = t * float(np.trapezoid(u1v * eta[0] * meas, dx=h))

    # trapezoid in s over levels 0..i; the level-i term has (t - s) = 0
    forcing = _forcing(run.spec, p, np.abs(run.field[:i]))
    inner = np.trapezoid(forcing * eta[:i] * meas, dx=h, axis=1)
    w = np.full(i, h)
    w[:1] = 0.5 * h
    duhamel = float((w * (t - s[:i])) @ inner)
    return lhs - (data_term + vel_term + duhamel)


def divergence_onset(
    n: int,
    constants: IterationConstants,
    spec: ModulusSpec,
    t_max: float,
    grid_points: int = 512,
) -> Optional[float]:
    """Earliest time at which the iterated lower bound starts to diverge.

    The iteration's base is c7 * K(tau(t))**(p/(p-1)) with
    tau(t) = (c6 t)^{-((n-1)/2 + 1/p + eps)} and K the threshold product;
    once the base exceeds 1, the j -> infinity limit of the lower-bound
    sequence blows up.  Returns None when the base never exceeds 1 up to
    t_max (the global-existence-side prediction).
    """
    p = strauss_exponent(n)
    alpha = (n - 1.0) / 2.0 + 1.0 / p + constants.epsilon_exp
    tau_cap = min(spec.tau0, math.exp(-1.0))
    # nudge inside the admissible regime so rounding cannot push tau past tau0
    t_lo = tau_cap ** (-1.0 / alpha) / constants.c6 * (1.0 + 1e-9)
    if t_lo > t_max:
        return None

    def base(t: float) -> float:
        tau = (constants.c6 * t) ** (-alpha)
        return constants.c7 * threshold_product(spec, n, tau) ** (p / (p - 1.0))

    ts = np.geomspace(t_lo, t_max, grid_points)
    values = np.asarray([base(t) for t in ts])
    above = np.nonzero(values > 1.0)[0]
    if len(above) == 0:
        return None
    k = int(above[0])
    if k == 0:
        return float(ts[0])
    lo, hi = ts[k - 1], ts[k]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if base(mid) > 1.0:
            hi = mid
        else:
            lo = mid
    return float(hi)
