"""Light-cone weights, weighted norms and the decay verification toolkit."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy import integrate

from .exponents import strauss_exponent
from .modulus import ModulusSpec, mu_eval, threshold_product
from .reporting import WeightReport
from .solver import _off_lattice


def bracket(y):
    """Shifted absolute bracket 3 + |y|; always >= 3 so log stays positive."""
    arr = np.asarray(y, dtype=float)
    out = 3.0 + np.abs(arr)
    return float(out) if arr.ndim == 0 else out


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


def _weighted_field(run) -> np.ndarray:
    """The cone-weighted |u| over the stored grid of ``run``."""
    field = np.asarray(run.field)
    if field.size == 0:
        raise ValueError("run stores no levels")
    return _cone_weight(run.times[:, None], run.radii[None, :]) * np.abs(field)


def weighted_sup_norm(run) -> float:
    """Sup over the stored grid of the cone-weighted field."""
    return float(np.max(_weighted_field(run)))


def _decay_report(times, level_max, level_argmax_r, denom: float, region: str) -> WeightReport:
    """The decay rule shared by marched and free fields.

    ``level_max`` holds the cone-weighted maximum of each level at
    ``times`` and ``level_argmax_r`` the radius where it sits.  The running
    sup divided by the data norms ``denom`` is the fitted constant; the
    check passes when the final running sup exceeds its value at the first
    level at or past half the last time by no more than 20%.  Zero data
    pass vacuously with constant 0.
    """
    samples = [(float(t), float(m)) for t, m in zip(times, level_max)]
    if denom == 0.0:
        return WeightReport(region=region, fitted_constant=0.0, worst_point=(),
                            passed=True, columns=("t", "weighted_max"), samples=samples)
    running = np.maximum.accumulate(level_max)
    half = running[np.searchsorted(times, times[-1] / 2.0)]
    k = int(np.argmax(level_max))
    return WeightReport(
        region=region,
        fitted_constant=float(running[-1] / denom),
        worst_point=(float(times[k]), float(level_argmax_r[k])),
        passed=bool(running[-1] <= 1.2 * half),
        columns=("t", "weighted_max"),
        samples=samples,
    )


def data_norms(data, grid_points: int = 4097):
    """Grid-sup data norms: (weighted sup of u0 and u0', weighted sup of u1).

    The first norm weights the profile with <r>^kappa and its derivative
    with <r>^{kappa+1}; the second weights u1 with <r>^{kappa+1}.  The sup
    is scanned on [0, support_radius + 1]; the weights grow in r but the
    profiles vanish beyond the support, so nothing is lost.
    """
    kappa = 1.0 + 1.0 / strauss_exponent(3)
    r = np.linspace(0.0, data.support_radius + 1.0, grid_points)
    w = log_weight(bracket(r))
    eps = data.amplitude
    u0 = eps * np.asarray([data.u0(x) for x in r])
    du0 = eps * np.asarray([data.u0_derivative(x) for x in r])
    u1 = eps * np.asarray([data.u1(x) for x in r])
    a_norm = float(np.max(w * bracket(r) ** kappa * np.abs(u0))
                   + np.max(w * bracket(r) ** (kappa + 1.0) * np.abs(du0)))
    b_norm = float(np.max(w * bracket(r) ** (kappa + 1.0) * np.abs(u1)))
    return a_norm, b_norm


def linear_decay_check(data, horizon: float, step: float = 0.5) -> WeightReport:
    """Verify the weighted boundedness of the linear evolution of ``data``.

    Evaluates the cone-weighted free solution on a grid refined 4x near the
    light cone and applies the decay rule shared with ``decay_profile_check``.
    """
    free = _off_lattice(data)
    times = np.arange(0.0, horizon + 0.5 * step, step)
    level_max = np.empty(len(times))
    level_argmax_r = np.empty(len(times))
    for i, t in enumerate(times):
        r_base = np.arange(0.0, t + data.support_radius + 2.0, step)
        lo, hi = max(0.0, t - 4.0), t + 4.0
        r_fine = np.arange(lo, hi, step / 4.0)
        r = np.unique(np.concatenate([r_base, r_fine]))
        weighted = _cone_weight(t, r) * np.abs(free(t, r))
        k = int(np.argmax(weighted))
        level_max[i], level_argmax_r[i] = weighted[k], r[k]
    return _decay_report(times, level_max, level_argmax_r, sum(data_norms(data)),
                         f"t in [0, {horizon:g}], step {step:g} (cone refined 4x)")


class KeyIntegralResult(NamedTuple):
    value: float
    ratio: float


def key_integral(xi: float, eps0: float, spec: ModulusSpec) -> KeyIntegralResult:
    """Adaptive quadrature of the cone-interaction integral and its bound ratio.

    The integrand weights the modulus evaluated along the decaying argument
    eps0 / (omega(<eta>) <xi> <eta>^{1/p}) across the window [-|xi|, |xi|];
    the companion ratio divides by
    <xi> [log <xi>]^{-1/p} (loglog <xi>) * threshold_product(eps0/<xi>),
    which is the quantity the zone analysis consumes.
    """
    if not 0.0 < eps0 < 1.0:
        raise ValueError("eps0 must lie in (0, 1)")
    p = strauss_exponent(3)
    if xi == 0.0:
        return KeyIntegralResult(0.0, 0.0)
    a = abs(xi)
    bx = bracket(xi)

    def integrand(eta):
        wbr = log_weight(bracket(eta))
        arg = eps0 / (wbr * bx * bracket(eta) ** (1.0 / p))
        return wbr ** (-p) * bracket(xi + eta) * mu_eval(spec, arg) / bracket(eta)

    value, _ = integrate.quad(
        integrand, -a, a, points=[-0.5 * a, 0.5 * a], limit=400
    )
    bound = (
        bx
        * math.log(bx) ** (-1.0 / p)
        * math.log(math.log(bx))
        * threshold_product(spec, 3, eps0 / bx)
    )
    return KeyIntegralResult(float(value), float(value / bound))


_ZONES = {
    "I": lambda t, r: t >= 2.0 * r >= 0.0,
    "II": lambda t, r: 0.0 <= r <= 1.0 and t <= 2.0 * r,
    "III": lambda t, r: r >= 1.0 and r <= t <= 2.0 * r,
}


def classify_zone(t: float, r: float) -> str:
    for name, pred in _ZONES.items():
        if pred(t, r):
            return name
    raise ValueError(f"({t}, {r}) lies in no zone (needs t, r >= 0)")


def zone_bound_check(spec: ModulusSpec, eps0: float, region_samples) -> WeightReport:
    """Evaluate the weighted source bound at (t, r) samples, zone by zone.

    The inner integral runs over xi in [t-r, t+r] with the integrand
    <xi>^{1-p} [log <xi>]^{-1/p} (loglog <xi>) threshold_product(eps0/<xi>);
    the prefactor [log <t-r>]^{1/p} <t+r> <t-r>^{1/p} / r multiplies it.
    Pass needs every sample finite with a converged quadrature.
    """
    if not 0.0 < eps0 < 1.0:
        raise ValueError("eps0 must lie in (0, 1)")
    p = strauss_exponent(3)
    rows = []
    sup = {name: 0.0 for name in _ZONES}
    worst = (0.0, 0.0)
    top = 0.0
    ok = True
    for t, r in region_samples:
        if r <= 0.0:
            raise ValueError("zone samples need r > 0")
        zone = classify_zone(t, r)

        def integrand(x):
            bx = bracket(x)
            return (
                bx ** (1.0 - p)
                * math.log(bx) ** (-1.0 / p)
                * math.log(math.log(bx))
                * threshold_product(spec, 3, eps0 / bx)
            )

        pts = [0.0] if t - r < 0.0 < t + r else None
        integral, err = integrate.quad(integrand, t - r, t + r, points=pts, limit=400)
        value = _cone_weight(t, r) / r * integral
        stable = err <= 1e-6 * abs(integral) + 1e-12
        ok = ok and math.isfinite(value) and stable
        sup[zone] = max(sup[zone], value)
        if value > top:
            top, worst = value, (float(t), float(r))
        rows.append((zone, float(t), float(r), float(value)))
    return WeightReport(
        region="zones " + ", ".join(f"{z}: sup={sup[z]:.4g}" for z in sup),
        fitted_constant=top,
        worst_point=worst,
        passed=ok,
        columns=("zone", "t", "r", "bound_value"),
        samples=rows,
    )


def decay_profile_check(run, norms=None) -> WeightReport:
    """Pointwise-decay verification on a completed run.

    Takes the cone-weighted sup of the field level by level and applies the
    decay rule of ``_decay_report``.  By construction the final constant
    times the data norms equals the weighted sup norm, the largest entry of
    the ``weighted_max`` column.  ``norms`` is ``data_norms(run.data)`` when
    the caller already has it (each evaluation makes 3 * 4097 callbacks).
    """
    if run.status == "blew_up":
        raise ValueError("decay profile is undefined for a run that blew up")
    weighted = _weighted_field(run)
    j = np.argmax(weighted, axis=1)
    t = run.times
    return _decay_report(t, weighted[np.arange(len(j)), j], run.radii[j],
                         sum(norms or data_norms(run.data)),
                         f"t in [0, {t[-1]:g}], {len(t)} levels")
