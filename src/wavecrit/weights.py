"""Light-cone weights, weighted norms and the decay verification toolkit.

The decay check weighs a march's levels from tables with one entry per
lattice diagonal (``_cone_tables``), not one per node."""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .exponents import strauss_exponent, weight_exponent
from .modulus import ModulusSpec, mu_eval, threshold_product
from .reporting import WeightReport, bracket
from .solver import (DEFAULT_CAP, CharacteristicGrid, FreeWave, cone_edge, march, refuse_bytes,
                     strided_rows)

_DECAY_STEP = 0.5  # time between the levels ``linear_decay_check`` samples
_DECAY_DR = 0.125  # radius between its samples in the Huygens band
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)  # on [-1, 1]
_RULE_TOL = 1e-13  # relative agreement of two successive sums of _log_bracket_gauss
_MAX_PANELS = 512  # its largest sum, 8192 nodes, fits one reporting.row_blocks block


def log_weight(tau):
    """Logarithmic weight (log tau)**(1/p(3)) for tau >= 3."""
    arr = np.asarray(tau, dtype=float)
    if np.any(arr < 3.0):
        raise ValueError("log weight is defined for tau >= 3")
    out = np.log(arr) ** (1.0 / strauss_exponent(3))
    return float(out) if arr.ndim == 0 else out


def _cone_weight(t, r):
    """omega(<t-|r|>) <t+|r|> <t-|r|>^{kappa-1} with kappa = 1 + 1/p(3)."""
    inv_p = 1.0 / strauss_exponent(3)
    tmr = bracket(np.asarray(t) - np.abs(np.asarray(r)))
    tpr = bracket(np.asarray(t) + np.abs(np.asarray(r)))
    return log_weight(tmr) * tpr * tmr ** inv_p


def _cone_tables(grid):
    """``_cone_weight``'s factors at t - r = h(i - j), t + r = h(i + j):
    omega(<t-r>) and <t-r>^{1/p} for j - i = -t_levels..r_nodes - 1 (the
    bracket is even), and <t+r> for i + j = 0..t_levels + r_nodes - 1."""
    h, nt, nr = grid.h, grid.t_levels, grid.r_nodes
    tmr = bracket(h * np.arange(-nt, nr))
    return log_weight(tmr), tmr ** (1.0 / strauss_exponent(3)), bracket(h * np.arange(nt + nr))


def _block_maxima(grid, data, tables, i0: int, rows: np.ndarray) -> np.ndarray:
    """The cone-weighted max of |u| on each of the levels i0, i0 + 1, ...
    held in ``rows``, cut at the cone edge of the last one (u is 0 past
    it): the one block reduction of a march's levels.

    Level i reads the ``_cone_tables(grid)`` entries of j - i and i + j,
    j = 0..n-1, through strided views of the tables, in ``_cone_weight``'s
    order.  At a dyadic h every lattice coordinate is exact, so these are
    ``_cone_weight``'s maxima at t = ih, r = jh bit for bit; elsewhere
    t - r is fl(h(i - j)), not fl(ih) - fl(jh), and a maximum may move in
    its last bits.
    """
    lw, tmr_p, tpr = tables
    k, start = len(rows), grid.t_levels - i0  # j - i + t_levels of level i0 at j = 0
    n = cone_edge(grid, data, i0 + k - 1) + 1
    w = strided_rows(lw, start, k, n, -1) * strided_rows(tpr, i0, k, n, 1)
    w *= strided_rows(tmr_p, start, k, n, -1)
    w *= rows[:, :n]  # w > 0, so |w u| = w |u| in floats
    return np.abs(w, out=w).max(axis=1)


def _decay_report(times, level_max, denom: float, region: str) -> WeightReport:
    """The decay rule shared by marched and free fields.

    ``level_max`` holds the cone-weighted maximum of each level at
    ``times``.  The running sup divided by the data norms ``denom`` is the
    fitted constant; the check passes when the final running sup exceeds
    its value at the first level at or past half the last time by no more
    than 20%.  Zero data pass vacuously with constant 0.
    """
    running = np.maximum.accumulate(level_max)
    half = running[np.searchsorted(times, times[-1] / 2.0)]
    return WeightReport(
        region=region,
        fitted_constant=float(running[-1] / denom) if denom != 0.0 else 0.0,
        passed=bool(denom == 0.0 or running[-1] <= 1.2 * half),
        columns=("t", "weighted_max"),
        samples=[(float(t), float(m)) for t, m in zip(times, level_max)],
    )


def data_norms(data):
    """Grid-sup data norms: (weighted sup of u0 and u0', weighted sup of u1).

    The first norm weights the profile with <r>^kappa and its derivative
    with <r>^{kappa+1}; the second weights u1 with <r>^{kappa+1}.  The sup
    is scanned on 4097 radii of [0, support_radius + 1]; the weights grow
    in r but the profiles vanish beyond the support, so nothing is lost.
    """
    kappa = weight_exponent(3)
    r = np.linspace(0.0, data.support_radius + 1.0, 4097)
    w = log_weight(bracket(r))
    eps = data.amplitude
    u0 = eps * data.u0(r)
    du0 = eps * data.u0_prime(r)
    u1 = eps * data.u1(r)
    a_norm = float(np.max(w * bracket(r) ** kappa * np.abs(u0))
                   + np.max(w * bracket(r) ** (kappa + 1.0) * np.abs(du0)))
    b_norm = float(np.max(w * bracket(r) ** (kappa + 1.0) * np.abs(u1)))
    return a_norm, b_norm


def linear_decay_check(data, horizon: float) -> WeightReport:
    """Verify the weighted boundedness of the linear evolution of ``data``.

    Samples the free solution at t = k _DECAY_STEP < horizon + _DECAY_STEP / 2,
    k >= 0 (a horizon not between _DECAY_STEP / 2 and _DECAY_STEP times the
    largest float is refused, and so, before anything is allocated, is one
    whose samples and free wave exceed physical memory), on the lattice of
    ``march`` with step h = _DECAY_DR / m, m the least
    integer with 16 h <= R (the resolution ``march`` asks of the support
    radius R); data ``march`` refuses are refused.  By the strong Huygens
    principle the free wave vanishes off the band t - R <= r <= t + R, so
    each level reads every m-th node of the band (r >= 0) from the march's
    ``solver.FreeWave``, its axis value included, weighs them in one array
    call and applies the decay rule shared with ``decay_profile_check``.
    """
    end = horizon + 0.5 * _DECAY_STEP  # the sampled times are those below it
    if not _DECAY_STEP < end < _DECAY_STEP * sys.float_info.max:  # refuses nan too
        raise ValueError(f"horizon must be above half the sample step {_DECAY_STEP:g} and below "
                         f"{_DECAY_STEP * sys.float_info.max:g}, got horizon={horizon}")
    radius = data.support_radius
    m = math.ceil(2.0 / radius)
    if 2.0 / m > radius:  # 2 / m is 16 h, rounded as the march rounds it
        m += 1
    h = _DECAY_DR / m
    count = math.ceil(end / _DECAY_STEP)  # the sampled times, as np.arange counts them
    grid = CharacteristicGrid.cover(h, (count - 1) * _DECAY_STEP, radius)
    nt, nr = grid.t_levels, grid.r_nodes
    # the times and their maxima; the free wave's table, its feet, their scaled copy and the
    # u0 samples, its axis limit and u0' samples, and 4 radial tables
    doubles = 2 * count + 4 * (nt + 2 * nr) + 2 * (nt + 1) + 4 * nr
    refuse_bytes(8 * doubles, f"horizon={horizon}: {count} samples and a free wave of "
                              f"{nt + 1} x {nr} levels")
    times = np.arange(0.0, end, _DECAY_STEP)
    free = FreeWave(data, grid)
    levels_per_time = round(_DECAY_STEP / h)
    half_band = m * math.floor(radius / _DECAY_DR)  # in nodes
    level_max = np.empty(len(times))
    for k, t in enumerate(times):
        i = k * levels_per_time
        lo, stop = max(i - half_band, 0), i + half_band + 1
        v = np.abs(free.level(i, max(lo, m), stop)[::m])
        if lo == 0:  # the band reaches the axis
            v = np.concatenate(([abs(free.axis[i])], v))
        level_max[k] = np.max(_cone_weight(t, free.r[lo:stop:m]) * v)
    return _decay_report(times, level_max, sum(data_norms(data)),
                         f"t in [0, {horizon:g}], step {_DECAY_STEP:g}, "
                         f"r step {_DECAY_DR:g} over the Huygens band")


class KeyIntegralResult(NamedTuple):
    value: float
    ratio: float


def _log_bracket_gauss(f, lo: float, hi: float):
    """The integral of f(3 + x) over x in [lo, hi], 0 <= lo <= hi, and its
    error estimate.

    ``f`` takes the bracket b = 3 + x as an array.  The rule is composite
    16-node Gauss-Legendre in u = log b on equal panels, which spreads a
    peak of width O(1) near x = 0 over panels as wide in u as the tail's.
    The panel count doubles from one, each sum one call of ``f`` on all its
    nodes, until two successive sums agree to _RULE_TOL relative or the
    next doubling would pass _MAX_PANELS.  The estimate is the last
    difference of two sums: above _RULE_TOL * |value| the sum did not
    converge, and a non-finite integrand leaves it nan.
    """
    u0, u1 = math.log(3.0 + lo), math.log(3.0 + hi)
    panels, prev = 1, None
    while True:
        half = 0.5 * (u1 - u0) / panels
        mid = u0 + half * (2.0 * np.arange(panels) + 1.0)
        b = np.exp(mid[:, None] + half * _GAUSS_NODES)
        fb = f(b) * b
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, which each caller tests
            value = half * float(np.sum(fb @ _GAUSS_WEIGHTS))
        if prev is not None:
            err = abs(value - prev)
            if err <= _RULE_TOL * abs(value) or 2 * panels > _MAX_PANELS:
                return value, err
        prev, panels = value, 2 * panels


def key_integral(xi: float, eps0: float, spec: ModulusSpec) -> KeyIntegralResult:
    """The cone-interaction integral and its bound ratio.

    The integrand g(eta) = omega(<eta>)^{-p} <xi + eta> mu(arg) / <eta>
    weights the modulus evaluated along the decaying argument
    arg = eps0 / (omega(<eta>) <xi> <eta>^{1/p}) across the window
    [-|xi|, |xi|].  On the window g(eta) + g(-eta) = 2 <xi> g(eta) / <xi + eta>,
    so the integral, even in xi, is 2 <xi> times the integral of the rest
    over [0, |xi|], summed by ``_log_bracket_gauss``; a sum that is not
    finite (mu past the largest float on the window) or does not converge
    is refused, naming xi.  The companion ratio divides by
    <xi> [log <xi>]^{-1/p} (loglog <xi>) * threshold_product(eps0/<xi>),
    which is the quantity the zone analysis consumes; a threshold product
    (or its tau) or a bound that underflows to 0 is refused, naming xi.
    """
    if not 0.0 < eps0 < 1.0:
        raise ValueError("eps0 must lie in (0, 1)")
    if not math.isfinite(xi):
        raise ValueError(f"xi must be finite, got xi={xi}")
    p = strauss_exponent(3)
    if xi == 0.0:
        return KeyIntegralResult(0.0, 0.0)
    bx = bracket(xi)

    def integrand(b):
        wbr = log_weight(b)
        return wbr ** (-p) * mu_eval(spec, eps0 / bx / (wbr * b ** (1.0 / p))) / b

    half, err = _log_bracket_gauss(integrand, 0.0, abs(xi))
    if not math.isfinite(half):
        raise ValueError(f"key integral's integrand is not finite on the window at xi={xi}: "
                         f"the sum is {half}")
    if not err <= _RULE_TOL * abs(half):
        raise ValueError(f"key integral did not converge at xi={xi}: "
                         f"{half:.17g} with error estimate {err:.3g}")
    value = 2.0 * bx * half
    tau = eps0 / bx
    product = threshold_product(spec, 3, tau) if tau > 0.0 else 0.0
    if product == 0.0:
        raise ValueError(f"threshold product underflows to 0 at xi={xi} "
                         f"(tau=eps0/<xi>={tau:.6g}): the ratio has no bound to divide by")
    bound = bx * math.log(bx) ** (-1.0 / p) * math.log(math.log(bx)) * product
    if bound == 0.0:
        raise ValueError(f"the ratio's bound underflows to 0 at xi={xi} "
                         f"(threshold product {product:.6g}): it has no bound to divide by")
    return KeyIntegralResult(value, value / bound)


_ZONES = {
    "I": lambda t, r: t >= 2.0 * r,
    "II": lambda t, r: r <= 1.0 and t <= 2.0 * r,
    "III": lambda t, r: r >= 1.0 and r <= t <= 2.0 * r,
}


def classify_zone(t: float, r: float) -> str:
    if not (t >= 0.0 and r >= 0.0):  # refuses nan too
        raise ValueError(f"zone samples need t, r >= 0, got t={t}, r={r}")
    if not (t < math.inf and r < math.inf):
        raise ValueError(f"zone samples need finite t and r, got t={t}, r={r}")
    for name, pred in _ZONES.items():
        if pred(t, r):
            return name
    raise ValueError(f"({t}, {r}) lies in no zone")


def zone_bound_check(spec: ModulusSpec, eps0: float, region_samples) -> WeightReport:
    """Evaluate the weighted source bound at (t, r) samples, zone by zone.

    The inner integral runs over xi in [t-r, t+r] with the integrand
    <xi>^{1-p} [log <xi>]^{-1/p} (loglog <xi>) threshold_product(eps0/<xi>);
    the prefactor [log <t-r>]^{1/p} <t+r> <t-r>^{1/p} / r multiplies it.
    The integrand is even in xi: a window that straddles 0 is split there,
    its negative part reflected, and each part summed by
    ``_log_bracket_gauss``.  Pass needs every sample finite with an error
    estimate within 1e-6 relative (plus 1e-12); a sample whose t + r passes
    the largest float, or whose smallest tau = eps0 / <t + r> underflows to
    0, is refused by name.
    """
    if not 0.0 < eps0 < 1.0:
        raise ValueError("eps0 must lie in (0, 1)")
    p = strauss_exponent(3)

    def integrand(b):
        return (b ** (1.0 - p) * np.log(b) ** (-1.0 / p) * np.log(np.log(b))
                * threshold_product(spec, 3, eps0 / b))

    rows = []
    sup = {name: 0.0 for name in _ZONES}
    ok = True
    for t, r in region_samples:
        t, r = float(t), float(r)
        if r <= 0.0:
            raise ValueError("zone samples need r > 0")
        zone = classify_zone(t, r)
        if t + r == math.inf:
            raise ValueError(f"zone sample t + r overflows at t={t}, r={r}")
        if eps0 / bracket(t + r) == 0.0:
            raise ValueError(f"eps0={eps0:g} / <t + r> underflows to 0 at t={t}, r={r}: "
                             f"the threshold product needs tau > 0")
        parts = [_log_bracket_gauss(integrand, lo, hi)
                 for lo, hi in ((max(t - r, 0.0), t + r), (0.0, r - t)) if lo < hi]
        integral = sum(v for v, _ in parts)
        err = sum(e for _, e in parts)
        value = _cone_weight(t, r) / r * integral
        stable = err <= 1e-6 * abs(integral) + 1e-12
        ok = ok and math.isfinite(value) and stable
        sup[zone] = max(sup[zone], value)
        rows.append((zone, t, r, float(value)))
    return WeightReport(
        region="zones " + ", ".join(f"{z}: sup={sup[z]:.4g}" for z in sup),
        fitted_constant=max(sup.values()),
        passed=ok,
        columns=("zone", "t", "r", "bound_value"),
        samples=rows,
    )


def decay_profile_check(data, spec, grid, cap: float = DEFAULT_CAP):
    """Pointwise-decay verification of the march of ``data``.

    Marches a level stream, which stores no field, and reduces each block
    of levels to their cone-weighted maxima (``_block_maxima``) over the
    grid's ``_cone_tables``, built at the first block; the decay
    rule of ``_decay_report`` reads them over the sum of ``data_norms(data)``:
    the final constant times that sum is the weighted sup norm, the largest
    entry of the ``weighted_max`` column.  Returns (run, report), the report
    None when the run did not complete.
    """
    blocks, tables = [], None

    def reduce(i0, rows):
        nonlocal tables
        tables = tables or _cone_tables(grid)  # past the march's refusals
        blocks.append(_block_maxima(grid, data, tables, i0, rows))

    run = march(data, spec, grid, cap, reduce=reduce)
    if run.status != "completed":
        return run, None
    t = run.times
    return run, _decay_report(t, np.concatenate(blocks), sum(data_norms(data)),
                              f"t in [0, {t[-1]:g}], {len(t)} levels")
