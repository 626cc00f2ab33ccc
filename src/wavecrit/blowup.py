"""Iteration apparatus for the blow-up side: slicing levels, exponent
recursions with closed forms, the iteration ledger (one record: the
exponent rows, the doubly-exponential amplitudes and their growth floor),
the kernel-weighted integral identity residual, whose Duhamel history is
reduced from a march's stream of level blocks, and a divergence-onset
predictor.

All growth arithmetic lives in log space; the amplitude sequence grows like
p**j in the exponent and would overflow floats within a handful of steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exponents import strauss_exponent
from .kernels import KernelConfig, data_and_source_kernels
from .modulus import ModulusSpec, mu_power, threshold_product
from .solver import CharacteristicGrid, march


def slicing_level(j: int) -> float:
    """Nested slicing sequence 2 - 2**-(j+1); increasing with limit 2."""
    if j < 0:
        raise ValueError("slicing index must be non-negative")
    return 2.0 - 2.0 ** (-(j + 1))


@np.errstate(over="ignore")  # p^J past the float range is refused, naming J
def exponent_sequences(n: int, J: int):
    """Recursions a_{j+1} = 1 + a_j p, b_{j+1} = p-1 + b_j p,
    s_{j+1} = 1/p + s_j p from (1, 0, 1 + 1/p); rows 0..J, within a few
    ulps of the geometric closed forms
        a_j = (p/(p-1)) p^j - 1/(p-1),
        b_j = p^j - 1,
        s_j = (p/(p-1)) p^j - 1/((p-1) p).
    A J whose largest term, a_J, passes the float range is refused before
    any row is allocated, as ``build_ledger`` refuses it.
    """
    if J < 0:
        raise ValueError("J must be non-negative")
    p = strauss_exponent(n)
    # p > 1, so a J past the largest float takes p to an infinite power
    a_last = p / (p - 1.0) * np.power(p, min(J, 1e308)) - 1.0 / (p - 1.0)
    if not np.isfinite(a_last):
        raise ArithmeticError(f"J={J} overflows the ledger: a_J is {a_last:g}")
    a = np.empty(J + 1)
    b = np.empty(J + 1)
    s = np.empty(J + 1)
    a[0], b[0], s[0] = 1.0, 0.0, 1.0 + 1.0 / p
    for j in range(J):
        a[j + 1] = 1.0 + a[j] * p
        b[j + 1] = (p - 1.0) + b[j] * p
        s[j + 1] = 1.0 / p + s[j] * p
    return a, b, s


# Existential constants of the analysis: C0 and M0 scale the amplitude recursion
# and its growth floor, EPSILON_EXP is the exponent loss in the onset's tau(t).
# Onset times computed from them order modulus families; they are not lifespans.
C0 = 1.0
M0 = 1.0
EPSILON_EXP = 0.01


@dataclass(frozen=True)
class IterationLedger:
    """Rows (j, ell_{2j}, a_j, b_j, sigma_j, log M_j) for j = 0..J, and the
    growth floor log M_j >= p^j log C5 for j >= j1, with floor_margin[j] =
    log M_j - p^j log C5."""

    rows: tuple
    log_c5: float
    j1: int
    floor_margin: np.ndarray


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused at the end
def build_ledger(n: int, J: int) -> IterationLedger:
    """The iteration ledger: exponent sequences and amplitude recursion in
    log space, with the closed growth floor.

    log M_{j+1} = p log M_j + log(C0 2^{-(2j+3)} / (3 ell_{2j+2} (a_j p + 1)))
    from log M_0 = log M0, and the floor log M_j >= p^j log C5 holds for every
    j >= j1 where
        C4 = C0 (p-1) / (12 p),
        C5 = M0 (4p)^{-p/(p-1)^2} C4^{1/(p-1)},
        j1 = ceil(log C4 / log(4p) - p/(p-1)).
    """
    p = strauss_exponent(n)
    a, b, s = exponent_sequences(n, J)
    log_m = np.empty(J + 1)
    log_m[0] = math.log(M0)
    for j in range(J):
        coeff = math.log(C0) - (2 * j + 3) * math.log(2.0) - math.log(
            3.0 * slicing_level(2 * j + 2) * (a[j] * p + 1.0)
        )
        log_m[j + 1] = p * log_m[j] + coeff
    log_c4 = math.log(C0 * (p - 1.0) / (12.0 * p))
    log_c5 = (
        math.log(M0)
        - p * math.log(4.0 * p) / (p - 1.0) ** 2
        + log_c4 / (p - 1.0)
    )
    j1 = max(0, math.ceil(log_c4 / math.log(4.0 * p) - p / (p - 1.0)))
    rows = tuple(
        (j, slicing_level(2 * j), float(a[j]), float(b[j]), float(s[j]), float(log_m[j]))
        for j in range(J + 1)
    )
    margin = log_m - p ** np.arange(J + 1, dtype=float) * log_c5
    if not np.isfinite(margin[-1]):  # log M_J ~ -c p^J overflows before p^J does
        raise ArithmeticError(f"J={J} overflows the ledger: log M_J is {log_m[-1]:g}")
    return IterationLedger(rows=rows, log_c5=log_c5, j1=j1, floor_margin=margin)


# --------------------------------------------------------------------------
# the integral identity

def integral_identity_residual(run, cfg: KernelConfig, q: float, t: float) -> float:
    """Defect of the kernel-weighted space-average identity at time t.

    The identity writes the kernel average of u(t) as a data term (cosh
    kernel), a velocity term (t times the source kernel at s = 0) and the
    forcing history weighted by (t - s) and the source kernel.  For an
    exact solution the two sides agree; on a marched field the residual
    shrinks at the scheme's order under grid refinement.

    t must be a level of ``run``, whose grid, cut at t, is marched again with
    no cap: each block of the run's own levels adds its forcing terms.
    """
    h, levels = run.grid.h, run.field.shape[0]
    if not abs(t) < h * levels:  # nan, inf or past the run, refused before it is rounded
        raise ValueError(f"time t={t} is not a marched level")
    i = int(round(t / h))
    if abs(t - i * h) > 1e-9 * max(1.0, t) or not 0 <= i < levels:
        raise ValueError(f"time t={t} is not a marched level")
    p = strauss_exponent(3)
    r = run.radii
    meas = 4.0 * math.pi * r * r
    eps = run.data.amplitude

    # one row per level time s_k = k h; the last row at exactly t (s <= t)
    s = h * np.arange(i + 1)
    s[i] = t
    cosh_row, eta = data_and_source_kernels(cfg, q, t, s, r)

    # trapezoid in s over levels 0..i; the level-i term has (t - s) = 0.  Each level's
    # radial trapezoid reduces its own row, so blocks of levels give the whole-array bits
    inner, lhs = np.zeros(i), []

    def reduce(i0, rows):
        b = slice(i0, min(i0 + len(rows), i))  # the block's history levels
        if run.spec is not None and b.start < b.stop:
            forcing = mu_power(run.spec, p, np.abs(rows[:b.stop - i0]))
            inner[b] = np.trapezoid(forcing * eta[b] * meas, dx=h, axis=1)
        if i0 <= i < i0 + len(rows):
            lhs.append(float(np.trapezoid(rows[i - i0] * eta[i] * meas, dx=h)))

    march(run.data, run.spec, CharacteristicGrid(h, max(i, 1), run.grid.r_nodes), math.inf, reduce)
    u0v = eps * run.data.u0(r)
    u1v = eps * run.data.u1(r)
    data_term = float(np.trapezoid(u0v * cosh_row * meas, dx=h))
    vel_term = t * float(np.trapezoid(u1v * eta[0] * meas, dx=h))
    w = np.full(i, h)
    w[:1] = 0.5 * h
    duhamel = float((w * (t - s[:i])) @ inner)
    return lhs[0] - (data_term + vel_term + duhamel)


def _onset_bases(spec: ModulusSpec, n: int, taus: list, c7: float) -> np.ndarray:
    """c7 K(tau)^(p/(p-1)) at each tau of a list, K the threshold product,
    from one ``threshold_product`` call; the power in Python, point by
    point (an array power differs in the last bits), inf past the floats."""
    p = strauss_exponent(n)
    values = []
    for product in threshold_product(spec, n, np.array(taus)).tolist():
        try:
            values.append(c7 * product ** (p / (p - 1.0)))
        except OverflowError:
            values.append(math.inf)
    return np.array(values)


def divergence_onset(n: int, spec: ModulusSpec, t_max: float,
                     c6: float = 1.0, c7: float = 1.0) -> Optional[float]:
    """Earliest time at which the iterated lower bound starts to diverge.

    The iteration's base is c7 * K(tau(t))**(p/(p-1)) with
    tau(t) = (c6 t)^{-((n-1)/2 + 1/p + EPSILON_EXP)}, K the threshold
    product and c6, c7 > 0; once the base exceeds 1, the j -> infinity limit
    of the lower-bound sequence blows up; its first crossing of 1 on 512
    geometric points of [t_lo, t_max], scanned at once, is bisected 80
    times.  Returns None when the base never exceeds 1 up to t_max (the
    global-existence-side prediction), which must be positive and finite.
    A t_max below t_lo, the first time whose tau(t) lies in the near-zero
    regime (tau <= min(tau0, 1/e)), predicts nothing and is refused, naming
    both; so is a t_max whose tau(t_max) underflows to 0 (past about
    t = 1e227 / c6 at n = 3).
    """
    if not (0.0 < c6 < math.inf and 0.0 < c7 < math.inf):  # refuses nan too
        raise ValueError(f"onset constants must be positive and finite, got c6={c6}, c7={c7}")
    if not 0.0 < t_max < math.inf:  # refuses nan too
        raise ValueError(f"t_max must be positive and finite, got t_max={t_max}")
    p = strauss_exponent(n)
    alpha = (n - 1.0) / 2.0 + 1.0 / p + EPSILON_EXP
    tau_cap = min(spec.tau0, math.exp(-1.0))
    # nudge inside the admissible regime so rounding cannot push tau past tau0
    t_lo = tau_cap ** (-1.0 / alpha) / c6 * (1.0 + 1e-9)
    if t_lo > t_max:
        raise ValueError(f"t_max={t_max:g} never reaches the near-zero regime, "
                         f"which starts at t_lo={t_lo:.6g}")
    if (c6 * t_max) ** (-alpha) == 0.0:
        t_hi = math.ulp(0.0) ** (-1.0 / alpha) / c6
        raise ValueError(f"t_max={t_max:g} is past t={t_hi:.6g}, where tau(t) = (c6 t)^(-{alpha:.6g}) "
                         f"underflows to 0")

    def bases(ts: list) -> np.ndarray:
        return _onset_bases(spec, n, [(c6 * t) ** (-alpha) for t in ts], c7)

    ts = np.geomspace(t_lo, t_max, 512).tolist()
    above = np.nonzero(bases(ts) > 1.0)[0]
    if len(above) == 0:
        return None
    k = int(above[0])
    if k == 0:
        return ts[0]
    lo, hi = ts[k - 1], ts[k]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if bases([mid])[0] > 1.0:
            hi = mid
        else:
            lo = mid
    return hi
