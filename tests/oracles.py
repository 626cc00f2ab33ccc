"""Slow, independent oracles that the tests hold the package to.

``mu_direct`` evaluates mu from each family's closed form as its docstring
writes it, and LogPower's continuation in the cubic Hermite basis, instead
of in log space and Horner form as ``wavecrit.modulus.mu_power`` does;
``linear_propagator`` evaluates the free solution at one point, off the
lattice, with the u1 window integrated by adaptive quadrature instead of
read from a trapezoid table; ``free_wave_two_tables`` is the free part on
every lattice node by the two-point formula with its displacement and
velocity terms read from two foot tables, as ``wavecrit.solver.FreeWave``
read it before one table of their sum replaced them, and ``mixed_bump`` a
datum on which the two round differently; ``duhamel_apply`` re-sums the
whole forcing history at one level, with the forcing |u|^p
``mu_direct``(|u|), instead of advancing the lattice recurrence of
``wavecrit.solver.march`` with its log-space forcing; ``march_field`` is
that march with its level stream collected into the field the march does
not store, and ``march_level_by_level`` the march as a plain loop of one
level at a time, every node written, which ``march`` must match bit for
bit; ``kernel_bounds_by_call`` is ``wavecrit.kernels.kernel_bounds_check``
as one public kernel call per (t, s), each building its own table, which the
grouped sweep must match bit for bit; ``concavity_whole_grid`` and
``convexity_whole_grid`` are the pair checks of ``wavecrit.modulus`` with
every grid pair in one array, and ``kernels_whole_array`` is
``wavecrit.kernels.data_and_source_kernels`` with its scaled table and
source envelope each built as one array and contracted over the package's
blocks, and ``jensen_whole_draw`` is
``wavecrit.modulus.jensen_margin`` with every trial drawn and reduced in one
array, which the blocked sweeps, fills and draws must match bit for bit;
``key_integral_quad`` and ``zone_value_quad`` are the key integral of
``wavecrit.weights.key_integral`` and one sample of
``wavecrit.weights.zone_bound_check`` by scipy's adaptive quadrature over
the whole window, as the package summed them before its log-bracket Gauss
rule, and ``key_integral_mp`` is the key integral by mpmath's tanh-sinh
quadrature, one interval per decade of the window, and ``zone_value_mp``
one zone sample by the same mpmath rule; ``data_kernel_n3`` is the data
kernel's lam integral for n = 3 in closed form, and
``source_kernel_quad`` the source kernel's by mpmath's quadrature, neither
on the package's lam mesh.  None is part of the package.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace

import mpmath
import numpy as np
from scipy import integrate

from wavecrit.exponents import kernel_exponent, strauss_exponent
from wavecrit.kernels import (
    KernelBoundsReport,
    KernelConfig,
    _lam_rule,
    _scaled_eigenfunction,
    data_kernel,
    source_kernel,
)
from wavecrit.modulus import (
    DoubleLogGlobal,
    IteratedLogBlowup,
    LogOnePlus,
    LogPower,
    ModulusSpec,
    PowerLaw,
    TripleLogGlobal,
    convex_companion,
    mu_eval,
    mu_power,
    threshold_product,
)
from wavecrit.reporting import row_blocks
from wavecrit.solver import (
    DEFAULT_CAP,
    CharacteristicGrid,
    FreeWave,
    RadialData,
    cone_edge,
    default_bump,
    march,
)
from wavecrit.weights import _cone_weight, bracket, log_weight


def _near(family, tau: np.ndarray) -> np.ndarray:
    """The family's near-zero closed form on an array of 0 < tau <= tau0."""
    if isinstance(family, PowerLaw):
        return tau ** family.gamma
    if isinstance(family, LogOnePlus):
        return np.log1p(tau) ** family.gamma
    L = -np.log(tau)  # log(1/tau), with no overflow of 1/tau at subnormal tau
    if isinstance(family, LogPower):
        return family.cl * L ** -family.gamma
    p = strauss_exponent(family.n)
    if isinstance(family, DoubleLogGlobal):
        return L ** (-1.0 / p) * np.log(L) ** family.gamma
    logk = L  # log^k(1/tau), k logs of 1/tau
    for _ in range(family.k - 1):
        logk = np.log(logk)
    if isinstance(family, IteratedLogBlowup):
        return L ** (-1.0 / p) * logk ** family.gamma
    if isinstance(family, TripleLogGlobal):
        return L ** (-1.0 / p) / np.log(L) * logk ** family.gamma
    raise TypeError(f"unknown modulus family: {family!r}")


def _logpower_far(spec: ModulusSpec, tau: np.ndarray) -> np.ndarray:
    """LogPower on an array of tau > tau0: cl (log tau)^gamma from 3 on, and
    below 3 the cubic Hermite interpolant on [tau0, 3] of the end values and
    slopes of the two branches, its slopes clamped to the Fritsch-Carlson
    circle alpha^2 + beta^2 <= 9 (in units of the secant) so that it stays
    monotone."""
    cl, gamma = spec.family.cl, spec.family.gamma
    a, b = spec.tau0, 3.0
    y0, y1 = cl * math.log(1.0 / a) ** -gamma, cl * math.log(b) ** gamma
    d0 = cl * gamma * math.log(1.0 / a) ** (-gamma - 1.0) / a  # d/dtau of cl log(1/tau)^-gamma
    d1 = cl * gamma * math.log(b) ** (gamma - 1.0) / b  # d/dtau of cl log(tau)^gamma
    secant = (y1 - y0) / (b - a)
    alpha, beta = max(d0 / secant, 0.0), max(d1 / secant, 0.0)
    if alpha * alpha + beta * beta > 9.0:
        shrink = 3.0 / math.hypot(alpha, beta)
        alpha, beta = shrink * alpha, shrink * beta
    s = (np.minimum(tau, b) - a) / (b - a)
    h00, h10 = 2 * s**3 - 3 * s**2 + 1, s**3 - 2 * s**2 + s
    h01, h11 = -2 * s**3 + 3 * s**2, s**3 - s**2
    bridge = y0 * h00 + y1 * h01 + (b - a) * secant * (alpha * h10 + beta * h11)
    return np.where(tau >= b, cl * np.log(np.maximum(tau, b)) ** gamma, bridge)


def mu_direct(spec: ModulusSpec, tau):
    """mu at tau >= 0 (scalar or array): 0 at 0, the near-zero closed form
    up to tau0 (everywhere for the global families) and, for LogPower, its
    continuation past tau0.  Arguments past tau0 of the other log types are
    refused."""
    arr = np.atleast_1d(np.asarray(tau, dtype=float))
    far = arr > spec.tau0
    if isinstance(spec.family, (PowerLaw, LogOnePlus)):
        far[:] = False
    elif far.any() and not isinstance(spec.family, LogPower):
        raise ValueError(f"an argument is past tau0 = {spec.tau0} of {spec.family!r}")
    near = (arr > 0.0) & ~far
    out = np.zeros_like(arr)
    out[near] = _near(spec.family, arr[near])
    if far.any():
        out[far] = _logpower_far(spec, arr[far])
    return float(out[0]) if np.ndim(tau) == 0 else out


def linear_propagator(data: RadialData, t: float, r: float) -> float:
    """Free solution at a single point with the u1 window integrated by
    adaptive quadrature: the independent oracle the tests hold
    ``wavecrit.solver.FreeWave``, which ``march`` and ``linear_decay_check``
    read, to."""
    if t < 0.0:
        raise ValueError("time must be non-negative")
    ra = abs(r)
    eps = data.amplitude
    if ra < 1e-7:  # the two-point formula's limit on the axis
        return eps * (data.u0(t) + t * data.u0_prime(t) + t * data.u1(t))

    def h1(x):
        return 0.5 * x * eps * data.u1(abs(x))

    xp, xm = t + ra, t - ra
    pts = [x for x in (-data.support_radius, 0.0, data.support_radius) if xm < x < xp]
    window = integrate.quad(h1, xm, xp, points=pts or None, limit=200)[0]
    two_point = 0.5 * (xp * (eps * data.u0(abs(xp))) - xm * (eps * data.u0(abs(xm)))) / ra
    return float(two_point + window / ra)


def mixed_bump(amplitude: float = 1.0) -> RadialData:
    """``default_bump`` with the velocity 0.7 times its displacement: both
    profiles nonzero, the one kind of datum whose free part
    ``free_wave_two_tables`` and ``FreeWave`` round differently."""
    bump = default_bump(amplitude)
    return replace(bump, u1=lambda r: 0.7 * bump.u0(r))


def free_wave_two_tables(data: RadialData, grid: CharacteristicGrid, eps=None) -> np.ndarray:
    """v(t_i, r_j) on every level i and off-axis node j = 1..r_nodes - 1,
    by the two-point formula (P(t+r) - P(t-r)) / (2r) + (Q1(|t+r|) -
    Q1(|t-r|)) / r read from two foot tables, P(hn) = hn eps u0(h|n|) and
    the u1 prefix Q1(h|n|), in ``FreeWave``'s former order of operations.
    ``eps`` is the data's amplitude or a vector of amplitudes, which then
    gains a trailing rung axis."""
    h, nt, nr = grid.h, grid.t_levels, grid.r_nodes
    eps = data.amplitude if eps is None else eps

    def col(x):
        return x[:, None] if np.ndim(eps) else x

    feet = np.arange(-(nr - 1), nt + nr)
    p = col(h * feet) * np.multiply.outer(data.u0(h * np.abs(feet)), eps)
    r = h * np.arange(nr)
    vals = np.multiply.outer(0.5 * r, eps) * col(data.u1(r))
    q1 = np.zeros_like(vals)
    q1[1:] = np.cumsum(0.5 * (vals[1:] + vals[:-1]) * col(np.diff(r)), axis=0)
    q = q1[np.minimum(np.abs(feet), nr - 1)]
    i, j = np.arange(nt + 1)[:, None], np.arange(1, nr)
    plus, minus = nr - 1 + i + j, nr - 1 + i - j
    rj = col(r[1:])
    return (p[plus] - p[minus]) * 0.5 / rj + (q[plus] - q[minus]) / rj


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


def march_field(data: RadialData, spec, grid: CharacteristicGrid, cap: float = DEFAULT_CAP):
    """(run, field) of ``wavecrit.solver.march``: every block of levels its
    stream hands out, copied and joined into the (levels x r_nodes) field."""
    blocks = []
    run = march(data, spec, grid, cap, reduce=lambda i0, rows: blocks.append(rows.copy()))
    return run, np.concatenate(blocks)


def duhamel_apply(field: np.ndarray, grid: CharacteristicGrid, spec, t_level: int, r):
    """Forcing term Lu at level ``t_level`` of ``field`` and lattice radius
    r, or at an array of lattice radii (returning an array of the same
    shape).

    The slow oracle for ``march``: every term of the forcing history of
    ``spec`` is summed afresh.  Every level strictly below must be in
    ``field`` (it is, for any completed or blown-up run).
    """
    if not 0 <= t_level < field.shape[0]:
        raise ValueError(f"level {t_level} not in the field")
    r_arr = np.asarray(r, dtype=float)
    j = np.rint(r_arr / grid.h).astype(int)
    if np.any(np.abs(r_arr - j * grid.h) > 1e-9 * np.maximum(1.0, np.abs(r_arr))) \
            or np.any((j < 0) | (j >= grid.r_nodes)):
        raise ValueError(f"radius {r} is not a lattice node")
    p = strauss_exponent(3)
    g_levels = []
    for k in range(t_level):  # the direct formula, not the march's log-space kernel
        a = np.abs(field[k])
        g_levels.append(a ** p * mu_direct(spec, a) if spec else np.zeros_like(a))
    prefixes = [_history_prefix(grid, g) for g in g_levels]
    out = _duhamel_level(grid, prefixes, g_levels, t_level)
    lu = np.where(j == 0, out[0], out[j] / (np.maximum(j, 1) * grid.h))
    return float(lu) if lu.ndim == 0 else lu



def march_level_by_level(data: RadialData, spec, grid: CharacteristicGrid, cap: float = 1e6):
    """(field, status, last level) of ``wavecrit.solver.march``, marched one
    level at a time: each level's free part read by ``FreeWave.level`` on
    its Huygens band, every node of it written (0.0 off the band and past
    the cone), its forcing ``mu_power`` judged on its own peak.  The
    arithmetic is the march's, in its order, so on any machine a march
    matches it bit for bit, sign bits included; a forcing argument past
    the ``admissible`` ceiling is raised by ``mu_power``."""
    free = FreeWave(data, grid)
    h, nt, nr = grid.h, grid.t_levels, grid.r_nodes
    p, r = strauss_exponent(3), free.r
    reach = cone_edge(grid, data, 0)  # half-width of the Huygens band
    limit = min(cap, sys.float_info.max)
    field = np.full((nt + 1, nr), np.nan)  # every entry of a marched level is written
    field[0] = free.u0[:nr] * data.amplitude
    rlu, rlu_prev, q = np.zeros(nr + 1), np.zeros(nr + 1), np.zeros(nr + 1)  # W_{i-1}, W_{i-2}
    axis = np.zeros(nt + 1)
    g = np.zeros(nr)
    n = cone_edge(grid, data, 1) + 1
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(nt + 1):
            if i:
                e = n - 1
                work = 0.5 * r[:n] * g[:n]
                q[1:n] = np.cumsum((work[1:] + work[:-1]) * (0.5 * h))
                q[n] = q[e]
                weight = 0.5 * h if i == 1 else h
                m_top = min(nt - (i - 1), e)
                axis[i:i + m_top] += r[1:m_top + 1] * weight * g[1:m_top + 1]
                rlu_prev[1:n] = rlu[:e] + rlu[2:n + 1] - rlu_prev[1:n] + (q[2:n + 1] - q[:e]) * weight
                rlu_prev, rlu = rlu, rlu_prev
                level = field[i]
                lo = max(1, i - reach)
                level[1:lo] = level[n:] = 0.0
                level[lo:n] = free.level(i, lo, n)
                level[0] = free.axis[i] + axis[i]
                level[1:n] += rlu[1:n] / r[1:n]
                n = cone_edge(grid, data, i + 1) + 1
            abs_level = np.abs(field[i])
            peak = abs_level[:n].max()
            if i > 0 and not peak <= limit:
                return field[:i + 1], "blew_up", i
            if spec is not None and i < nt:
                g[:n] = mu_power(spec, p, abs_level[:n])
    return field, "completed", nt


def kernel_bounds_by_call(cfg: KernelConfig) -> KernelBoundsReport:
    """``wavecrit.kernels.kernel_bounds_check`` evaluated call by call: at
    each t the data kernel and the source kernel at s = 0 on |r| <= R, the
    source kernel at 21 values of s < t on |r| <= R + s, and the diagonal
    source kernel on |r| <= R + t, each a public kernel call that builds
    its own table."""
    n, q = cfg.n, kernel_exponent(cfg.n)
    fracs = np.linspace(0.0, 1.0, 9)
    samples = []
    a0 = b0 = b1 = math.inf
    b2 = 0.0
    for t in np.linspace(0.0, 50.0, 41):
        r_in = fracs * cfg.R
        a0 = min(a0, float(np.min(data_kernel(cfg, q, t, r_in))))
        b0 = min(b0, float(np.min(source_kernel(cfg, q, t, 0.0, r_in) * bracket(t))))

        for s in np.linspace(0.0, 0.95 * t, 21) if t > 0 else []:
            r_s = fracs * (cfg.R + s)
            ratio = source_kernel(cfg, q, t, s, r_s) * bracket(t) * bracket(s) ** q
            k = int(np.argmin(ratio))
            b1 = min(b1, float(ratio[k]))
            samples.append(("lower", float(t), float(s), float(r_s[k]), float(ratio[k])))

        r_t = fracs * (cfg.R + t)
        diag = source_kernel(cfg, q, t, t, r_t)
        ratio = diag * bracket(t) ** (0.5 * (n - 1)) * bracket(t - r_t) ** (q - 0.5 * (n - 3))
        k = int(np.argmax(ratio))
        b2 = max(b2, float(ratio[k]))
        samples.append(("upper", float(t), float(t), float(r_t[k]), float(ratio[k])))

    constants = (a0, b0, b1, b2)
    return KernelBoundsReport(
        region=f"n={n}, q={q:.6g}, t in [0, 50], lam0={cfg.lambda0:g}, R={cfg.R:g}",
        a0=a0, b0=b0, b1=b1, b2=b2,
        passed=all(math.isfinite(c) and c > 0.0 for c in constants),
        columns=("item", "t", "s", "r", "ratio"),
        samples=samples,
    )


def concavity_whole_grid(family, taus):
    """(increasing, concave, margin) of ``wavecrit.modulus._monotone_concave``
    with the midpoints and averages of every ordered grid pair in one
    (len(taus), len(taus)) array."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = np.exp(family.log_mu(-np.log(taus)))
        if not np.all(np.diff(vals) > 0.0):
            return False, False, math.nan
    mid = np.exp(family.log_mu(-np.log(0.5 * (taus[:, None] + taus[None, :]))))
    margin = float(np.max(0.5 * (vals[:, None] + vals[None, :]) - mid))
    return True, margin <= 1e-12 * float(np.max(vals)), margin


def convexity_whole_grid(spec: ModulusSpec, n: int, grid):
    """(worst, passed) of ``wavecrit.modulus.convexity_check``, the largest
    midpoint excess of the convex companion over every ordered pair of the
    grid's non-negative points in one array, and its verdict."""
    g = np.asarray(grid, dtype=float)
    pos = np.sort(g[g >= 0.0])
    vals = convex_companion(spec, n, pos)
    slack = 1e-12 * max(float(np.max(np.abs(vals))), 1e-300)
    mid = convex_companion(spec, n, 0.5 * (pos[:, None] + pos[None, :]))
    worst = float(np.max(mid - 0.5 * (vals[:, None] + vals[None, :])))
    return worst, worst <= slack


def jensen_whole_draw(spec: ModulusSpec, n: int, trials: int, cells: int, seed: int,
                      v_max: float = 2.0) -> float:
    """``wavecrit.modulus.jensen_margin`` with v and alpha each drawn as one
    (trials, cells) array, in turn, from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.0, v_max, size=(trials, cells))
    alpha = rng.uniform(0.0, 1.0, size=(trials, cells))
    total = alpha.sum(axis=1)
    total = np.where(total > 0.0, total, 1.0)
    lhs = convex_companion(spec, n, (v * alpha).sum(axis=1) / total)
    rhs = (convex_companion(spec, n, v) * alpha).sum(axis=1) / total
    return float(np.max((lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)))


def _source_envelope_whole(cfg: KernelConfig, t: float, s, lam, m: float):
    """The sinh envelope times e^{lam m} of every s (rows) and lam (columns)
    in one array."""
    s_col = np.atleast_1d(np.asarray(s, dtype=float))[:, None]
    z = np.maximum(lam * (t - s_col), 1e-300)
    return np.expm1(-2.0 * z) / (-2.0 * z) * np.exp(-lam * (cfg.R + s_col - m))


def kernels_whole_array(cfg: KernelConfig, q: float, t: float, s, r):
    """``wavecrit.kernels.data_and_source_kernels(cfg, q, t, s, r)`` with the
    table w_i x_i^q phi(lam_i r) e^{-lam_i m}, m the largest radius, and the
    source envelope each built as one whole array, then contracted over the
    lam blocks of ``row_blocks(N, len(r))`` and, within each, the package's
    row blocks of the envelope, in order, as the package sums them; the
    quadrature rule and the scaled eigenfunction are the package's."""
    lam, wq, first, power = _lam_rule(cfg, q)
    scale = np.power(cfg.lambda0, power)
    r_arr = np.abs(np.ravel(r))
    m = r_arr.max()
    table = wq[:, None] * _scaled_eigenfunction(cfg.n, lam[:, None] * r_arr) * np.exp(
        lam[:, None] * (r_arr - m))
    data_row = 0.5 * (np.exp(-lam * (cfg.R - m)) + np.exp(-lam * (cfg.R + 2.0 * t - m)))
    source_rows = _source_envelope_whole(cfg, t, s, lam, m)

    def contract(rows):
        rows = np.atleast_2d(rows)
        out = np.zeros((len(rows), r_arr.size))
        for b in row_blocks(*table.shape):
            for c in row_blocks(len(rows), max(table[b].shape)):
                out[c] += np.ascontiguousarray(rows[c, b]) @ table[b]
        return (out + first) * scale

    return contract(data_row)[0], contract(source_rows)


def _phi_mp(n: int, z):
    """The eigenfunction at one mpf radius z >= 0, unscaled (DLMF 10.39)."""
    nu = mpmath.mpf(n) / 2 - 1
    if z == 0:
        return (2 * mpmath.pi) ** (mpmath.mpf(n) / 2) / (2 ** nu * mpmath.gamma(nu + 1))
    return (2 * mpmath.pi) ** (mpmath.mpf(n) / 2) * mpmath.besseli(nu, z) / z ** nu


def kernels_mp(cfg: KernelConfig, q: float, t: float, s: float, r):
    """``data_kernel(cfg, q, t, r)`` and ``source_kernel(cfg, q, t, s, r)``
    at one s: the package's lam rule, the graded mesh lam_i = lam0 (i/N)^3
    with trapezoid weights and its first cell phi(0) lam_1^{q+1} / (q + 1),
    summed in mpmath from the unscaled eigenfunction and envelopes
    e^{-lam(R+t)} cosh(lam t) and e^{-lam(R+t)} sinh(lam(t-s)) / (lam(t-s)),
    where nothing overflows or cancels."""
    with mpmath.workdps(30):
        big_n, lam0, R, t, s = cfg.quad_points, *map(mpmath.mpf, (cfg.lambda0, cfg.R, t, s))
        lam = [lam0 * (mpmath.mpf(i) / big_n) ** 3 for i in range(big_n + 1)]
        # the trapezoid rule on lam_1, ..., lam_N; the first cell [0, lam_1] is its own
        w = [(lam[min(i + 1, big_n)] - lam[max(i - 1, 1)]) / 2 for i in range(1, big_n + 1)]
        first = _phi_mp(cfg.n, 0) * lam[1] ** (q + 1) / (q + 1)
        data, source = [], []
        for rj in np.abs(np.ravel(r)):
            terms = [(wi * li ** q * mpmath.exp(-li * (R + t)) * _phi_mp(cfg.n, li * mpmath.mpf(rj)),
                      li) for wi, li in zip(w, lam[1:])]
            data.append(first + sum(g * mpmath.cosh(li * t) for g, li in terms))
            source.append(first + sum(g * (mpmath.sinh(li * (t - s)) / (li * (t - s)) if t > s
                                           else 1) for g, li in terms))
        shape = np.shape(r)
        return (np.array([float(v) for v in data]).reshape(shape),
                np.array([float(v) for v in source]).reshape(shape))


def data_kernel_n3(cfg: KernelConfig, t: float, r: float) -> float:
    """``data_kernel(cfg, kernel_exponent(3), t, r)`` at one radius, the
    integral itself: phi(z) = 4 pi sinh(z)/z splits it into
    (pi/r)[I(R-r) - I(R+r) + I(R+2t-r) - I(R+2t+r)], where I(a), the
    integral of e^{-lam a} lam^{q-1} over (0, lam0], is a^{-q} gamma(q, lam0 a)
    (its real part where a < 0) and lam0^q / q at a = 0; at r = 0, mpmath's
    quadrature of the integrand."""
    with mpmath.workdps(40):
        q = mpmath.mpf(kernel_exponent(3))
        lam0, R, t, r = (mpmath.mpf(v) for v in (cfg.lambda0, cfg.R, t, abs(r)))
        if r == 0:
            return float(mpmath.quad(lambda lam: mpmath.exp(-lam * (R + t)) * mpmath.cosh(lam * t)
                                     * _phi_mp(3, 0) * lam ** q, [0, lam0]))

        def part(a):
            return lam0 ** q / q if a == 0 else mpmath.re(a ** -q * mpmath.gammainc(q, 0, lam0 * a))

        return float(mpmath.pi / r * (part(R - r) - part(R + r) + part(R + 2 * t - r)
                                      - part(R + 2 * t + r)))


def source_kernel_quad(cfg: KernelConfig, t: float, s: float, r: float) -> float:
    """``source_kernel(cfg, kernel_exponent(cfg.n), t, s, r)`` at one (s, r),
    the integral itself: mpmath's quadrature of e^{-lam(R+t)}
    sinh(lam(t-s))/(lam(t-s)) phi(lam r) lam^q over (0, lam0].  Its closed
    form would need gamma(q - 1, .), which diverges term by term."""
    with mpmath.workdps(30):
        q = mpmath.mpf(kernel_exponent(cfg.n))
        lam0, R, t, s, r = (mpmath.mpf(v) for v in (cfg.lambda0, cfg.R, t, s, abs(r)))

        def integrand(lam):
            ratio = mpmath.sinh(lam * (t - s)) / (lam * (t - s)) if t > s else 1
            return mpmath.exp(-lam * (R + t)) * ratio * _phi_mp(cfg.n, lam * r) * lam ** q

        return float(mpmath.quad(integrand, [0, lam0]))


def _key_integrand(xi: float, eps0: float, spec: ModulusSpec):
    """g(eta) = omega(<eta>)^{-p} <xi + eta> mu(arg) / <eta> of the key
    integral, arg = eps0 / (omega(<eta>) <xi> <eta>^{1/p}), on one float."""
    p = strauss_exponent(3)
    bx = bracket(xi)

    def g(eta):
        wbr = log_weight(bracket(eta))
        arg = eps0 / (wbr * bx * bracket(eta) ** (1.0 / p))
        return wbr ** (-p) * bracket(xi + eta) * mu_eval(spec, arg) / bracket(eta)

    return g


def key_integral_quad(xi: float, eps0: float, spec: ModulusSpec) -> float:
    """The key integral: g over [-|xi|, |xi|] by adaptive quadrature with
    breakpoints at +-|xi|/2.  It leaves the peak at eta = 0 unresolved once
    |xi| >> 1 (it collapses at xi = 1e8), so it holds only moderate xi."""
    a = abs(xi)
    return integrate.quad(_key_integrand(xi, eps0, spec), -a, a,
                          points=[-0.5 * a, 0.5 * a], limit=400)[0]


def key_integral_mp(xi: float, eps0: float, spec: ModulusSpec) -> float:
    """The key integral: g over [-|xi|, |xi|] by mpmath's tanh-sinh
    quadrature on the intervals cut at 0 and at +-10^k, k >= 0, so the peak
    at eta = 0 and every decade of the tail each get their own."""
    a = abs(xi)
    cuts = [10.0 ** k for k in range(int(math.log10(a)) + 1) if 10.0 ** k < a]
    points = [-a, *(-c for c in reversed(cuts)), 0.0, *cuts, a]
    g = _key_integrand(xi, eps0, spec)
    return float(mpmath.quad(lambda eta: g(float(eta)), points))


def _zone_integrand(spec: ModulusSpec, eps0: float):
    """<x>^{1-p} [log <x>]^{-1/p} (loglog <x>) threshold_product(eps0/<x>)
    of the zone bound, on one float."""
    p = strauss_exponent(3)

    def integrand(x):
        bx = bracket(x)
        return (bx ** (1.0 - p) * math.log(bx) ** (-1.0 / p) * math.log(math.log(bx))
                * threshold_product(spec, 3, eps0 / bx))

    return integrand


def zone_value_quad(spec: ModulusSpec, eps0: float, t: float, r: float) -> float:
    """One sample's bound value of ``zone_bound_check``: the prefactor
    times the inner integral over [t - r, t + r] by adaptive quadrature,
    with a breakpoint at 0 when the window straddles it."""
    pts = [0.0] if t - r < 0.0 < t + r else None
    integral = integrate.quad(_zone_integrand(spec, eps0), t - r, t + r, points=pts,
                              limit=400)[0]
    return _cone_weight(t, r) / r * integral


def zone_value_mp(spec: ModulusSpec, eps0: float, t: float, r: float) -> float:
    """One sample's bound value of ``zone_bound_check``: the prefactor
    times the inner integral over [t - r, t + r] by mpmath's tanh-sinh
    quadrature on the intervals cut at 0 and at +-10^k, k >= 0, so a window
    of many decades gets one interval per decade."""
    lo, hi = t - r, t + r
    top = max(abs(lo), abs(hi))
    cuts = [c for k in range(int(math.log10(top)) + 1) for c in (-(10.0 ** k), 10.0 ** k)]
    points = sorted({lo, hi, *(c for c in [0.0, *cuts] if lo < c < hi)})
    g = _zone_integrand(spec, eps0)
    return _cone_weight(t, r) / r * float(mpmath.quad(lambda x: g(float(x)), points))
