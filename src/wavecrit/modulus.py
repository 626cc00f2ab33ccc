"""Modulus-of-continuity families, their convex companion and the
threshold classifier.

A modulus here is a continuous, concave, increasing function mu with
mu(0) = 0 that multiplies the critical power nonlinearity.  Six closed-form
families are supported; the log-type ones are defined near zero only and
can be continued monotonically to [0, inf) when a solver needs large
arguments.  The quantity that separates the blow-up families from the
global-existence ones is the small-argument limit of

    mu(tau) * log(1/tau)**(1/p(n)),

which ``classify_strauss_threshold`` estimates from the tail trend on a
log-spaced grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exponents import strauss_exponent
from .reporting import WeightReport

_LN10 = math.log(10.0)


def _tower(k: int) -> float:
    """e-tower with tower(1)=1, tower(2)=e, tower(3)=e**e, ..."""
    value = 1.0
    for _ in range(k - 1):
        value = math.exp(value)
    return value


def iterated_log(x, k: int):
    """k-fold composed logarithm; raises if any intermediate is non-positive."""
    value = np.asarray(x, dtype=float)
    for _ in range(k):
        if np.any(value <= 0.0):
            raise ValueError(f"iterated log undefined after {k} applications")
        value = np.log(value)
    return value


# --------------------------------------------------------------------------
# families

@dataclass(frozen=True)
class PowerLaw:
    """mu(tau) = tau**gamma with gamma in (0, 1]; global-existence class."""

    gamma: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("PowerLaw needs gamma in (0, 1]")


@dataclass(frozen=True)
class LogOnePlus:
    """mu(tau) = log(1+tau)**gamma with gamma in (0, 1]; global class."""

    gamma: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("LogOnePlus needs gamma in (0, 1]")


@dataclass(frozen=True)
class LogPower:
    """mu(tau) = cl * log(1/tau)**(-gamma) near zero.

    Blow-up class for gamma <= 1/p(n) (with cl large at equality), global
    class for gamma > 1/p(n).
    """

    gamma: float
    cl: float = 1.0

    def __post_init__(self):
        if self.gamma <= 0.0 or self.cl <= 0.0:
            raise ValueError("LogPower needs gamma > 0 and cl > 0")


@dataclass(frozen=True)
class IteratedLogBlowup:
    """mu = log(1/tau)**(-1/p(n)) * (log^k(1/tau))**gamma, gamma > 0, k >= 2."""

    gamma: float
    k: int = 2
    n: int = 3

    def __post_init__(self):
        if self.gamma <= 0.0 or self.k < 2 or self.n < 2:
            raise ValueError("IteratedLogBlowup needs gamma > 0, k >= 2, n >= 2")


@dataclass(frozen=True)
class DoubleLogGlobal:
    """mu = log(1/tau)**(-1/p(n)) * (loglog(1/tau))**gamma, gamma <= -1."""

    gamma: float = -1.0
    n: int = 3

    def __post_init__(self):
        if self.gamma > -1.0 or self.n < 2:
            raise ValueError("DoubleLogGlobal needs gamma <= -1 and n >= 2")


@dataclass(frozen=True)
class TripleLogGlobal:
    """mu = log(1/tau)**(-1/p(n)) * (loglog 1/tau)**(-1) * (log^k 1/tau)**gamma,
    gamma < 0, k >= 3."""

    gamma: float
    k: int = 3
    n: int = 3

    def __post_init__(self):
        if self.gamma >= 0.0 or self.k < 3 or self.n < 2:
            raise ValueError("TripleLogGlobal needs gamma < 0, k >= 3, n >= 2")


_GLOBAL_DOMAIN = (PowerLaw, LogOnePlus)


def _axioms_hold(family, tau0: float, points: int = 160) -> bool:
    """Monotone + midpoint-concave on a 12-e-fold log grid below tau0."""
    taus = np.exp(np.linspace(math.log(tau0) - 12.0, math.log(tau0), points))
    with np.errstate(divide="ignore"):
        vals = np.exp(_log_mu_from_loginv(family, -np.log(taus)))
    if not np.all(np.diff(vals) > 0.0):
        return False
    mid = np.exp(_log_mu_from_loginv(family, -np.log(0.5 * (taus[:, None] + taus[None, :]))))
    margin = float(np.max(0.5 * (vals[:, None] + vals[None, :]) - mid))
    return margin <= 1e-12 * float(np.max(vals))


def _default_tau0(family) -> float:
    if isinstance(family, _GLOBAL_DOMAIN):
        return math.inf
    if isinstance(family, LogPower):
        # keep the near-zero branch concave: mu'' <= 0 needs log(1/tau) >= 1+gamma
        return min(1.0 / 3.0, math.exp(-(1.0 + family.gamma)))
    if isinstance(family, DoubleLogGlobal):
        guard = math.exp(-_tower(2))
    elif isinstance(family, (IteratedLogBlowup, TripleLogGlobal)):
        guard = math.exp(-_tower(family.k))
    else:
        raise TypeError(f"unknown modulus family: {family!r}")
    # shrink below the iterated-log domain guard until the modulus axioms hold
    tau0 = guard * 0.999
    for _ in range(200):
        if _axioms_hold(family, tau0):
            return tau0
        tau0 *= 0.5
    raise ValueError(f"no admissible near-zero regime found for {family!r}")


@dataclass(frozen=True)
class ModulusSpec:
    """A family plus its near-zero cutoff.

    Past tau0 only LogPower continues, by a monotone cubic bridge: it is the
    one family the solver drives to large arguments.
    """

    family: object
    tau0: float

    def __post_init__(self):
        if not self.tau0 > 0.0:
            raise ValueError(f"tau0 must be positive, got {self.tau0}")


# largest k whose iterated-log domain guard exp(-tower(k)) is a positive
# double: tower(4) = e**e**e = 3.8e6, so exp(-tower(4)) underflows to 0
_MAX_TOWER_K = 3


def make_spec(family, tau0: float | None = None) -> ModulusSpec:
    """Build a spec with the family's default near-zero cutoff."""
    k = getattr(family, "k", None)
    if k is not None and k > _MAX_TOWER_K:
        raise ValueError(
            f"k={k} is out of range: the e-tower guard exp(-tower(k)) is not a "
            f"positive float; the largest admissible k is {_MAX_TOWER_K}"
        )
    if tau0 is None:
        tau0 = _default_tau0(family)
    return ModulusSpec(family=family, tau0=tau0)


def _family_p(family) -> float:
    return strauss_exponent(getattr(family, "n", 3))


def _log_mu_from_loginv(family, L):
    """log mu evaluated from L = log(1/tau) on the near-zero branch."""
    L = np.asarray(L, dtype=float)
    if isinstance(family, PowerLaw):
        return -family.gamma * L
    if isinstance(family, LogOnePlus):
        tau = np.exp(-L)
        with np.errstate(divide="ignore"):
            out = family.gamma * np.log(np.log1p(tau))
        # underflowed tau: log1p(tau) ~ tau, so log mu ~ -gamma*L
        return np.where(tau > 0.0, out, -family.gamma * L)
    if isinstance(family, LogPower):
        return math.log(family.cl) - family.gamma * np.log(L)
    if isinstance(family, IteratedLogBlowup):
        p = _family_p(family)
        return -np.log(L) / p + family.gamma * np.log(iterated_log(L, family.k - 1))
    if isinstance(family, DoubleLogGlobal):
        p = _family_p(family)
        return -np.log(L) / p + family.gamma * np.log(np.log(L))
    if isinstance(family, TripleLogGlobal):
        p = _family_p(family)
        return (
            -np.log(L) / p
            - np.log(np.log(L))
            + family.gamma * np.log(iterated_log(L, family.k - 1))
        )
    raise TypeError(f"unknown modulus family: {family!r}")


@functools.lru_cache(maxsize=None)
def _hermite_bridge(spec: ModulusSpec):
    """Monotone cubic bridge for LogPower on [tau0, 3].

    Matches value and slope of the near-zero branch at tau0 and value and
    slope of cl*(log tau)**gamma at 3; slopes are clamped (Fritsch-Carlson)
    so the cubic stays monotone.
    """
    fam = spec.family
    a, b = spec.tau0, 3.0
    la = math.log(1.0 / a)
    v0 = fam.cl * la ** (-fam.gamma)
    d0 = fam.cl * fam.gamma * la ** (-fam.gamma - 1.0) / a
    v1 = fam.cl * math.log(b) ** fam.gamma
    d1 = fam.cl * fam.gamma * math.log(b) ** (fam.gamma - 1.0) / b
    delta = (v1 - v0) / (b - a)
    if delta <= 0.0:
        raise ValueError("continuation bridge is not increasing for these parameters")
    alpha, beta = max(d0 / delta, 0.0), max(d1 / delta, 0.0)
    norm = alpha * alpha + beta * beta
    if norm > 9.0:
        scale = 3.0 / math.sqrt(norm)
        alpha, beta = scale * alpha, scale * beta
    return a, b, v0, v1, alpha * delta, beta * delta


def _bridge_eval(spec: ModulusSpec, tau):
    a, b, v0, v1, d0, d1 = _hermite_bridge(spec)
    w = b - a
    s = (np.asarray(tau, dtype=float) - a) / w
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    return h00 * v0 + h10 * w * d0 + h01 * v1 + h11 * w * d1


def mu_eval(spec: ModulusSpec, tau):
    """Evaluate mu at tau (scalar or array); mu(0) == 0 exactly.

    Raises on negative arguments and on arguments beyond the near-zero
    regime when no continuation is available.
    """
    arr = np.asarray(tau, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0.0):
        raise ValueError("mu is defined for non-negative arguments only")

    out = np.zeros_like(arr)
    pos = arr > 0.0
    far = None if isinstance(spec.family, _GLOBAL_DOMAIN) else arr > spec.tau0
    has_far = far is not None and bool(far.any())
    near = pos & ~far if has_far else pos
    out[near] = np.exp(_log_mu_from_loginv(spec.family, -np.log(arr[near])))
    if has_far:
        if not isinstance(spec.family, LogPower):
            raise ValueError(
                f"mu argument beyond tau0={spec.tau0:g} needs a continuation"
            )
        fam = spec.family
        mid = far & (arr < 3.0)
        top = far & (arr >= 3.0)
        if np.any(mid):
            out[mid] = _bridge_eval(spec, arr[mid])
        if np.any(top):
            out[top] = fam.cl * np.log(arr[top]) ** fam.gamma
    return float(out[0]) if scalar else out


def convex_companion(spec: ModulusSpec, n: int, tau):
    """g(tau) = tau * mu(|tau|)**(1/p(n)); odd in tau by construction."""
    p = strauss_exponent(n)
    arr = np.asarray(tau, dtype=float)
    scalar = arr.ndim == 0
    value = np.atleast_1d(arr) * mu_eval(spec, np.abs(np.atleast_1d(arr))) ** (1.0 / p)
    return float(value[0]) if scalar else value


def convexity_check(spec: ModulusSpec, n: int, grid) -> WeightReport:
    """Midpoint-convexity sweep of the convex companion.

    The companion is odd, so convexity is checked on pairs from the
    non-negative half of the (symmetric) grid, with the sign symmetry
    g(-tau) == -g(tau) verified separately on the whole grid.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or len(g) < 3:
        raise ValueError("need a 1-d grid with at least three points")
    s = np.sort(g)
    if np.max(np.abs(s + s[::-1])) > 1e-12 * max(1.0, np.max(np.abs(s))):
        raise ValueError("convexity grid must be symmetric about 0")

    pos = s[s >= 0.0]
    vals = convex_companion(spec, n, pos)
    scale = float(np.max(np.abs(vals))) if len(vals) else 1.0
    slack = 1e-12 * max(scale, 1e-300)
    mid = convex_companion(spec, n, 0.5 * (pos[:, None] + pos[None, :]))
    margin = mid - 0.5 * (vals[:, None] + vals[None, :])
    worst = float(np.max(margin))
    i, j = np.unravel_index(int(np.argmax(margin)), margin.shape)
    odd_defect = float(
        np.max(np.abs(convex_companion(spec, n, s) + convex_companion(spec, n, -s)))
    )
    order = np.argsort(margin.ravel())[::-1][:20]
    rows = [
        (float(pos[k // len(pos)]), float(pos[k % len(pos)]), float(margin.ravel()[k]))
        for k in order
    ]
    return WeightReport(
        region=f"pairs from [0, {pos[-1]:g}] plus sign symmetry on [{s[0]:g}, {s[-1]:g}]",
        fitted_constant=max(worst, 0.0),
        worst_point=(float(pos[i]), float(pos[j])),
        passed=worst <= slack and odd_defect <= slack,
        columns=("a", "b", "midpoint_margin"),
        samples=rows,
    )


# --------------------------------------------------------------------------
# threshold quantities

def threshold_product(spec: ModulusSpec, n: int, tau):
    """mu(tau) * log(1/tau)**(1/p(n)), evaluated in log space."""
    p = strauss_exponent(n)
    arr = np.asarray(tau, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr >= 1.0) or np.any(arr <= 0.0):
        raise ValueError("threshold product needs 0 < tau < 1")
    if np.any(arr > spec.tau0):
        raise ValueError("threshold product is a near-zero quantity; tau > tau0")
    L = -np.log(arr)
    out = np.exp(_log_mu_from_loginv(spec.family, L) + np.log(L) / p)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class ThresholdVerdict:
    """Tail-trend classification of the threshold limit."""

    threshold_class: str  # "zero" | "finite" | "infinite"
    estimate: float  # math.inf for the infinite class
    samples: tuple  # ((tau, product), ...) along decreasing tau


def classify_strauss_threshold(
    spec: ModulusSpec, n: int, decades: int = 40, trend_window: int = 10,
    trend_tol: float = 0.05,
) -> ThresholdVerdict:
    """Classify the small-argument limit of the threshold product.

    Samples tau on `decades` decades below min(tau0, 1/e) and compares the
    last sample against `trend_window` decades earlier: growth beyond
    `trend_tol` means the limit is infinite, decay beyond it means zero,
    anything else is reported finite with the last sample as estimate.
    """
    p = strauss_exponent(n)
    start = min(spec.tau0, math.exp(-1.0))
    L = -math.log(start) + _LN10 * np.arange(decades + 1, dtype=float)
    log_y = _log_mu_from_loginv(spec.family, L) + np.log(L) / p
    growth = log_y[-1] - log_y[-(trend_window + 1)]
    if growth > math.log1p(trend_tol):
        cls, estimate = "infinite", math.inf
    elif growth < -math.log1p(trend_tol):
        cls, estimate = "zero", float(np.exp(log_y[-1]))
    else:
        cls, estimate = "finite", float(np.exp(log_y[-1]))
    samples = tuple(
        (float(np.exp(-Lk)), float(np.exp(yk))) for Lk, yk in zip(L, log_y)
    )
    return ThresholdVerdict(threshold_class=cls, estimate=estimate, samples=samples)


def loglog_bound_check(
    spec: ModulusSpec, grid=None, declared_bound: float = 50.0,
    trend_window: int = 10, trend_tol: float = 0.05,
) -> WeightReport:
    """Check that threshold_product(tau) * loglog(1/tau) stays bounded.

    Pass needs the sup over the grid below `declared_bound` **and** a
    non-growing tail; a declared constant alone cannot distinguish slowly
    divergent products at finite depth.
    """
    if grid is None:
        start = min(spec.tau0, math.exp(-_tower(2)) * 0.999)
        grid = start * 10.0 ** (-np.arange(41.0))
    taus = np.sort(np.asarray(grid, dtype=float))[::-1]
    if np.any(taus >= math.exp(-_tower(2))) or np.any(taus <= 0.0):
        raise ValueError("grid must lie in (0, e**-e) so loglog is positive")
    L = -np.log(taus)
    values = threshold_product(spec, getattr(spec.family, "n", 3), taus) * np.log(L)
    sup = float(np.max(values))
    k = int(np.argmax(values))
    tail_ok = True
    if len(values) > trend_window:
        tail_ok = values[-1] <= values[-(trend_window + 1)] * (1.0 + trend_tol)
    return WeightReport(
        region=f"tau in [{taus[-1]:.3g}, {taus[0]:.3g}], {len(taus)} samples",
        fitted_constant=sup,
        worst_point=(float(taus[k]),),
        passed=bool(sup <= declared_bound and tail_ok),
        columns=("tau", "product"),
        samples=[(float(t), float(v)) for t, v in zip(taus, values)],
    )


def axioms_check(spec: ModulusSpec, points: int = 1000) -> WeightReport:
    """Monotonicity + midpoint concavity of mu on a log grid in (0, tau0]."""
    top = min(spec.tau0, 0.99)
    taus = np.minimum(np.exp(np.linspace(math.log(top) - 12.0, math.log(top), points)), top)
    vals = mu_eval(spec, taus)
    increasing = bool(np.all(np.diff(vals) > 0.0))
    scale = float(np.max(vals))
    mid = mu_eval(spec, 0.5 * (taus[:, None] + taus[None, :]))
    concave_margin = float(
        np.max(0.5 * (vals[:, None] + vals[None, :]) - mid)
    )
    zero_exact = mu_eval(spec, 0.0) == 0.0
    passed = increasing and zero_exact and concave_margin <= 1e-12 * scale
    return WeightReport(
        region=f"log grid (0, {top:g}], {points} points",
        fitted_constant=max(concave_margin, 0.0),
        worst_point=(),
        passed=passed,
        columns=("tau", "mu"),
        samples=[(float(t), float(v)) for t, v in zip(taus[::100], vals[::100])],
    )


def jensen_margin(
    spec: ModulusSpec, n: int, trials: int = 10000, cells: int = 16,
    seed: int = 0, v_max: float = 2.0,
) -> float:
    """Worst relative violation of the averaged convexity inequality.

    Draws random non-negative step functions v and weights alpha on [0,1]
    and compares g(weighted mean of v) against the weighted mean of g(v).
    Non-positive results mean the inequality held on every trial.
    """
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.0, v_max, size=(trials, cells))
    alpha = rng.uniform(0.0, 1.0, size=(trials, cells))
    total = alpha.sum(axis=1)
    total = np.where(total > 0.0, total, 1.0)
    mean = (v * alpha).sum(axis=1) / total
    lhs = convex_companion(spec, n, mean)
    rhs = (convex_companion(spec, n, v) * alpha).sum(axis=1) / total
    denom = np.maximum(np.abs(rhs), 1e-300)
    return float(np.max((lhs - rhs) / denom))
