"""Modulus-of-continuity families, their convex companion and the
threshold classifier.

A modulus here is a continuous, concave, increasing function mu with
mu(0) = 0 that multiplies the critical power nonlinearity.  Six closed-form
families are supported; the log-type ones are defined near zero only and
can be continued monotonically to [0, inf) when a solver needs large
arguments.  Each family's near-zero law is its method ``log_mu(L)``, log mu
as a function of L = log(1/tau), and every reader of the law calls it.
A family's fields are its free parameters, each refused outside its range
(NaN and +-inf too); the iterated-log global families fix k as a constant.
``forcing(spec, p)`` is the one evaluation of mu: it resolves a spec once
(the family's law, whether the formula needs a zero mask, LogPower's
bridge) into a kernel that gives |u|^p mu(|u|) in log space, the solver's
forcing at every level; ``mu_power`` is that kernel applied once, and
``mu_eval`` is ``mu_power`` at p = 0.  ``admissible(spec)`` resolves the
largest argument mu accepts and the reason past it, which ``forcing``
returns with its kernel.  The quantity that separates the blow-up
families from the global-existence ones is the small-argument limit of

    mu(tau) * log(1/tau)**(1/p(n)),

which ``classify_strauss_threshold`` estimates from the tail trend on a
log-spaced grid.  The pair checks sweep their grids, and the Jensen check
its trials, in ``row_blocks``, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  (jensen_margin's; numpy loads it lazily)

from .exponents import strauss_exponent
from .reporting import WeightReport, row_blocks

_LN10 = math.log(10.0)


def _tower(k: int) -> float:
    """e-tower with tower(1)=1, tower(2)=e, tower(3)=e**e, ..."""
    value = 1.0
    for _ in range(k - 1):
        value = math.exp(value)
    return value


# --------------------------------------------------------------------------
# families: each one's log_mu(L) is log mu at L = log(1/tau) on its
# near-zero branch

@dataclass(frozen=True)
class PowerLaw:
    """mu(tau) = tau**gamma with gamma in (0, 1]; global-existence class."""

    gamma: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("PowerLaw needs gamma in (0, 1]")

    def log_mu(self, L):
        return -self.gamma * L


@dataclass(frozen=True)
class LogOnePlus:
    """mu(tau) = log(1+tau)**gamma with gamma in (0, 1]; global class."""

    gamma: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("LogOnePlus needs gamma in (0, 1]")

    def log_mu(self, L):
        tau = np.exp(-L)
        with np.errstate(divide="ignore"):
            out = self.gamma * np.log(np.log1p(tau))
        # underflowed tau: log1p(tau) ~ tau, so log mu ~ -gamma*L
        return np.where(tau > 0.0, out, -self.gamma * L)


@dataclass(frozen=True)
class LogPower:
    """mu(tau) = cl * log(1/tau)**(-gamma) near zero.

    Blow-up class for gamma <= 1/p(n) (with cl large at equality), global
    class for gamma > 1/p(n).
    """

    gamma: float
    cl: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.gamma < math.inf and 0.0 < self.cl < math.inf):  # refuses nan too
            raise ValueError("LogPower needs finite gamma > 0 and cl > 0")

    def log_mu(self, L):
        return math.log(self.cl) - self.gamma * np.log(L)


@dataclass(frozen=True)
class IteratedLogBlowup:
    """mu = log(1/tau)**(-1/p(n)) * (log^k(1/tau))**gamma, gamma > 0, k in {2, 3}."""

    gamma: float
    k: int = 2
    n: int = 3

    def __post_init__(self):
        # k <= 3: the domain guard exp(-tower(k)) of k = 4 underflows to 0
        if not 0.0 < self.gamma < math.inf or not 2 <= self.k <= 3 or self.n < 2:
            raise ValueError("IteratedLogBlowup needs finite gamma > 0, k >= 2 and n >= 2; "
                             "the largest admissible k is 3")

    def log_mu(self, L):
        logk = L  # log^(k-1)(L) = log^k(1/tau)
        for _ in range(self.k - 1):
            logk = np.log(logk)
        return -np.log(L) / strauss_exponent(self.n) + self.gamma * np.log(logk)


@dataclass(frozen=True)
class DoubleLogGlobal:
    """mu = log(1/tau)**(-1/p(n)) * (loglog(1/tau))**gamma, gamma <= -1."""

    k = 2  # loglog; the default cutoff's domain guard exp(-tower(k)) reads it
    gamma: float = -1.0
    n: int = 3

    def __post_init__(self):
        if not -math.inf < self.gamma <= -1.0 or self.n < 2:
            raise ValueError("DoubleLogGlobal needs finite gamma <= -1 and n >= 2")

    def log_mu(self, L):
        return -np.log(L) / strauss_exponent(self.n) + self.gamma * np.log(np.log(L))


@dataclass(frozen=True)
class TripleLogGlobal:
    """mu = log(1/tau)**(-1/p(n)) * (loglog 1/tau)**(-1) * (logloglog 1/tau)**gamma,
    gamma < 0."""

    k = 3  # logloglog; the default cutoff's domain guard exp(-tower(k)) reads it
    gamma: float
    n: int = 3

    def __post_init__(self):
        if not -math.inf < self.gamma < 0.0 or self.n < 2:
            raise ValueError("TripleLogGlobal needs finite gamma < 0 and n >= 2")

    def log_mu(self, L):
        loglog = np.log(np.log(L))  # loglog(L) = logloglog(1/tau)
        return -np.log(L) / strauss_exponent(self.n) - loglog + self.gamma * np.log(loglog)


_GLOBAL_DOMAIN = (PowerLaw, LogOnePlus)
_ITERATED_LOG = (IteratedLogBlowup, DoubleLogGlobal, TripleLogGlobal)


def _default_tau0(family) -> float:
    if isinstance(family, _GLOBAL_DOMAIN):
        return math.inf
    if isinstance(family, LogPower):
        # keep the near-zero branch concave: mu'' <= 0 needs log(1/tau) >= 1+gamma
        tau0 = min(1.0 / 3.0, math.exp(-(1.0 + family.gamma)))
        if tau0 == 0.0:
            raise ValueError(f"LogPower's default tau0 = exp(-(1 + gamma)) underflows to 0 at "
                             f"gamma={family.gamma:g}; give a smaller gamma or a tau0")
        return tau0
    # shrink below the iterated-log domain guard exp(-tower(k)) until the
    # modulus axioms hold
    tau0 = math.exp(-_tower(family.k)) * 0.999
    for _ in range(200):
        taus = np.exp(np.linspace(math.log(tau0) - 12.0, math.log(tau0), 160))
        increasing, concave, _ = _monotone_concave(family, taus)
        if increasing and concave:
            return tau0
        tau0 *= 0.5
    raise ValueError(f"no admissible near-zero regime found for {type(family).__name__} at "
                     f"gamma={family.gamma:g}: mu is not increasing and concave below any "
                     f"tau0 tried")


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


def make_spec(family, tau0: float | None = None) -> ModulusSpec:
    """Build a spec with the family's default near-zero cutoff, or with
    ``tau0`` when given: a cutoff at which the near-zero formula is not
    finite (past the domain of its logarithms, or where mu overflows) is
    refused."""
    if not isinstance(family, (*_GLOBAL_DOMAIN, LogPower, *_ITERATED_LOG)):
        raise TypeError(f"unknown modulus family: {family!r}")
    if tau0 is None:
        tau0 = _default_tau0(family)
    elif tau0 > 0.0 and not isinstance(family, _GLOBAL_DOMAIN):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            finite = bool(np.isfinite(np.exp(family.log_mu(-math.log(tau0)))))
        if not finite:
            raise ValueError(f"tau0={tau0:g} is past the near-zero domain of "
                             f"{type(family).__name__}: mu(tau0) is not finite")
    return ModulusSpec(family=family, tau0=tau0)


def _pair_max(x, v, gap) -> float:
    """max of gap(0.5 (x_a + x_b), v_a / 2 + v_b / 2) over all grid pairs; both are symmetric
    in a and b, so each block of rows pairs with the columns from its start on, bit for bit.
    The halves are added so that two values near the largest float average without overflow;
    wherever v_a + v_b is a finite double above the subnormals, the mean is the same."""
    half = 0.5 * v
    return float(np.max([np.max(gap(0.5 * (x[b, None] + x[None, b.start:]),
                                    half[b, None] + half[None, b.start:]))
                         for b in row_blocks(len(x), len(x))]))


def _monotone_concave(family, taus):
    """(increasing, concave, margin) of mu's near-zero formula on ``taus``.

    The margin is the largest (mu(a) + mu(b))/2 - mu((a + b)/2) over all
    grid pairs; concave means it is within 1e-12 of the largest value.  A
    grid that is not increasing returns at once, with margin nan; so does
    one on which mu overflows (an extreme gamma), whose differences are nan.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = np.exp(family.log_mu(-np.log(taus)))
        if not np.all(np.diff(vals) > 0.0):
            return False, False, math.nan
    margin = _pair_max(taus, vals, lambda mid, avg: avg - np.exp(family.log_mu(-np.log(mid))))
    return True, margin <= 1e-12 * float(np.max(vals)), margin


def _hermite_bridge(spec: ModulusSpec):
    """Monotone cubic bridge for LogPower on [tau0, 3].

    Matches value and slope of the near-zero branch at tau0 and value and
    slope of cl*(log tau)**gamma at 3; slopes are clamped (Fritsch-Carlson)
    so the cubic stays monotone.  Returns tau0, the width 3 - tau0 and the
    cubic's monomial coefficients c0..c3 in s = (tau - tau0) / (3 - tau0).
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
        raise ValueError(f"continuation bridge is not increasing for gamma={fam.gamma:g}, "
                         f"cl={fam.cl:g}, tau0={a:g}")
    alpha, beta = max(d0 / delta, 0.0), max(d1 / delta, 0.0)
    norm = alpha * alpha + beta * beta
    if norm > 9.0:
        scale = 3.0 / math.sqrt(norm)
        alpha, beta = scale * alpha, scale * beta
    m0, m1 = (b - a) * alpha * delta, (b - a) * beta * delta  # the end slopes in s
    return a, b - a, v0, m0, 3.0 * (v1 - v0) - 2.0 * m0 - m1, 2.0 * (v0 - v1) + m0 + m1


def _bridge_eval(spec: ModulusSpec, bridge: tuple, tau: np.ndarray, peak: float) -> np.ndarray:
    """LogPower's mu on an array of arguments past tau0 whose largest is
    ``peak``: the ``bridge`` cubic in Horner form below 3, evaluated in
    place, and cl*(log tau)**gamma from 3 on, only once ``peak`` reaches 3."""
    a, w, c0, c1, c2, c3 = bridge
    top = peak >= 3.0
    s = np.subtract(np.minimum(tau, 3.0) if top else tau, a)
    s /= w  # s <= 1: the cubic stays finite where the top takes over
    out = np.multiply(c3, s)  # ((c3 s + c2) s + c1) s + c0
    out += c2
    out *= s
    out += c1
    out *= s
    out += c0
    if top:
        above = tau >= 3.0
        out[above] = spec.family.cl * np.log(tau[above]) ** spec.family.gamma
    return out


def admissible(spec: ModulusSpec):
    """(ceiling, reason, bridge): the largest argument mu accepts, inf for
    PowerLaw, LogOnePlus and a LogPower whose bridge can be built and tau0
    otherwise, the refusal of an argument past it, and LogPower's bridge
    coefficients, None where there are none (no ceiling has no reason)."""
    family, tau0 = spec.family, spec.tau0
    if isinstance(family, _GLOBAL_DOMAIN):
        return math.inf, None, None
    if not isinstance(family, LogPower):
        return tau0, f"mu argument beyond tau0={tau0:g} needs a continuation", None
    try:
        return math.inf, None, _hermite_bridge(spec)
    except OverflowError:
        return tau0, (f"continuation bridge overflows for gamma={family.gamma:g}, "
                      f"cl={family.cl:g}, tau0={tau0:g}"), None
    except ValueError as exc:
        return tau0, str(exc), None


def forcing(spec: ModulusSpec, p: float):
    """(kernel, ceiling, reason): the kernel ``(abs_u, out, peak) -> out``
    that writes |u|^p mu(|u|) for ``abs_u`` = |u| into ``out`` in log
    space, exp(log mu(-lu) + p lu) with lu = log|u|, the package's one
    evaluation of mu, and the ``admissible`` range it holds on.  The spec
    is resolved once, not per call: the family's law, the zero mask the
    iterated-log laws need (they read -inf + inf at |u| = 0), and
    LogPower's bridge, which overwrites the entries past tau0 when
    ``peak``, the largest entry of ``abs_u``, passes it: it gathers those
    entries once, and reads ``peak`` for its tau >= 3 branch.  The caller
    refuses a peak past ``ceiling`` with ``reason``, and ignores divide,
    invalid and over in np.errstate."""
    family, tau0 = spec.family, spec.tau0
    law = family.log_mu
    zero_mask = isinstance(family, _ITERATED_LOG)
    ceiling, reason, bridge = admissible(spec)

    def kernel(abs_u: np.ndarray, out: np.ndarray, peak: float) -> np.ndarray:
        lu = np.log(abs_u)
        log_mu = law(-lu)
        if p != 0.0:  # 0 * lu would be nan at |u| = 0
            log_mu += np.multiply(lu, p, out=lu)
        np.exp(log_mu, out=out)
        if zero_mask:
            out[abs_u == 0.0] = 0.0
        if bridge is not None and peak > tau0:
            past = abs_u > tau0
            tau = abs_u[past]
            out[past] = tau ** p * _bridge_eval(spec, bridge, tau, peak)
        return out

    return kernel, ceiling, reason


def mu_power(spec: ModulusSpec, p: float, abs_u: np.ndarray) -> np.ndarray:
    """|u|^p mu(|u|) for ``abs_u`` = |u| (any shape): the ``forcing`` kernel
    of ``spec`` applied once.  It is 0 at |u| = 0 and takes LogPower's
    continuation past tau0; a negative or NaN entry is refused, and so is
    one past the ``admissible`` ceiling, with its reason."""
    peak = 0.0
    if abs_u.size:
        if not abs_u.min() >= 0.0:  # refuses nan too
            raise ValueError("mu is defined for non-negative arguments only")
        peak = abs_u.max()
    kernel, ceiling, reason = forcing(spec, p)
    if peak > ceiling:
        raise ValueError(reason)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return kernel(abs_u, np.empty_like(abs_u), peak)


def mu_eval(spec: ModulusSpec, tau):
    """mu at tau (scalar or array): ``mu_power`` at p = 0, so mu(0) == 0
    exactly, with its continuation and refusals; a scalar gives a float."""
    arr = np.asarray(tau, dtype=float)
    out = mu_power(spec, 0.0, np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else out


def convex_companion(spec: ModulusSpec, n: int, tau):
    """g(tau) = tau * mu(|tau|)**(1/p(n)); odd in tau by construction."""
    p = strauss_exponent(n)
    arr = np.asarray(tau, dtype=float)
    scalar = arr.ndim == 0
    value = np.atleast_1d(arr) * mu_eval(spec, np.abs(np.atleast_1d(arr))) ** (1.0 / p)
    return float(value[0]) if scalar else value


def convexity_check(spec: ModulusSpec, n: int, grid) -> WeightReport:
    """Midpoint-convexity sweep of the convex companion on every pair of
    the grid's non-negative points.

    The companion is odd by construction (tau * f(|tau|)), so its negative
    half mirrors the non-negative one and the grid's negative points are
    not read.
    """
    g = np.asarray(grid, dtype=float)
    pos = np.sort(g[g >= 0.0])
    if len(pos) < 2:
        raise ValueError("need a grid with at least two non-negative points")
    vals = convex_companion(spec, n, pos)
    slack = 1e-12 * max(float(np.max(np.abs(vals))), 1e-300)
    with np.errstate(invalid="ignore"):  # a companion past the float range: nan gaps, which fail
        worst = _pair_max(pos, vals, lambda mid, avg: convex_companion(spec, n, mid) - avg)
    return WeightReport(
        region=f"pairs from [{pos[0]:g}, {pos[-1]:g}]",
        fitted_constant=max(worst, 0.0),
        passed=worst <= slack,
    )


# --------------------------------------------------------------------------
# threshold quantities

def _log_threshold_product(spec: ModulusSpec, n: int, L):
    """log(mu * L**(1/p(n))) at L = log(1/tau): the threshold product's log."""
    return spec.family.log_mu(L) + np.log(L) / strauss_exponent(n)


def threshold_product(spec: ModulusSpec, n: int, tau):
    """mu(tau) * log(1/tau)**(1/p(n)), evaluated in log space; a product
    past the largest float is inf."""
    arr = np.asarray(tau, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all((arr > 0.0) & (arr < 1.0)):  # refuses nan too
        raise ValueError("threshold product needs 0 < tau < 1")
    if np.any(arr > spec.tau0):
        raise ValueError("threshold product is a near-zero quantity; tau > tau0")
    L = -np.log(arr)
    with np.errstate(over="ignore"):
        out = np.exp(_log_threshold_product(spec, n, L))
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class ThresholdVerdict:
    """Tail-trend classification of the threshold limit."""

    threshold_class: str  # "zero" | "finite" | "infinite"
    estimate: float  # math.inf for the infinite class
    samples: tuple  # ((tau, product), ...) along decreasing tau


# the threshold scans: 40 decades of tau, the trend read over the last 10
_DECADES, _TREND_WINDOW, _TREND_TOL = 40, 10, 0.05


def _decades_below(start: float) -> np.ndarray:
    """L = log(1/tau) at the 41 points tau = start * 10**-k, k = 0..40."""
    return -math.log(start) + _LN10 * np.arange(_DECADES + 1, dtype=float)


def classify_strauss_threshold(spec: ModulusSpec, n: int) -> ThresholdVerdict:
    """Classify the small-argument limit of the threshold product.

    Samples tau on 40 decades below min(tau0, 1/e) and compares the last
    sample against 10 decades earlier: growth beyond 5% means the limit is
    infinite, decay beyond it means zero, anything else is reported finite
    with the last sample as estimate.  A last sample whose log is +-inf (an
    extreme gamma) is infinite or zero by its sign.
    """
    L = _decades_below(min(spec.tau0, math.exp(-1.0)))
    with np.errstate(over="ignore"):  # a product past the largest float is inf
        log_y = _log_threshold_product(spec, n, L)
        # a tail past the float range in log space decides the class by its sign
        growth = log_y[-1] - log_y[-(_TREND_WINDOW + 1)] if np.isfinite(log_y[-1]) else log_y[-1]
        if growth > math.log1p(_TREND_TOL):
            cls, estimate = "infinite", math.inf
        elif growth < -math.log1p(_TREND_TOL):
            cls, estimate = "zero", float(np.exp(log_y[-1]))
        else:
            cls, estimate = "finite", float(np.exp(log_y[-1]))
        samples = tuple(
            (float(np.exp(-Lk)), float(np.exp(yk))) for Lk, yk in zip(L, log_y)
        )
    return ThresholdVerdict(threshold_class=cls, estimate=estimate, samples=samples)


def loglog_bound_check(spec: ModulusSpec, n: int) -> WeightReport:
    """Check that threshold_product(tau) * loglog(1/tau) stays bounded in
    dimension n.

    Samples tau on 40 decades below min(tau0, e**-e), in L = log(1/tau) as
    ``classify_strauss_threshold`` does, so no tau0 is too small.  Pass
    needs the sup over the grid below 50 **and** a tail that grows by at
    most 5% over its last 10 decades; a declared constant alone cannot
    distinguish slowly divergent products at finite depth.
    """
    L = _decades_below(min(spec.tau0, math.exp(-_tower(2)) * 0.999))
    with np.errstate(over="ignore"):  # a product past the largest float is inf, and fails
        values = np.exp(_log_threshold_product(spec, n, L)) * np.log(L)
    sup = float(np.max(values))
    tail_ok = values[-1] <= values[-(_TREND_WINDOW + 1)] * (1.0 + _TREND_TOL)
    return WeightReport(
        region=f"log(1/tau) in [{L[0]:.3g}, {L[-1]:.3g}], {len(L)} samples",
        fitted_constant=sup,
        passed=bool(sup <= 50.0 and tail_ok),
    )


def axioms_check(spec: ModulusSpec) -> WeightReport:
    """Monotonicity + midpoint concavity of mu on a log grid in (0, tau0]."""
    top = min(spec.tau0, 0.99)
    taus = np.minimum(np.exp(np.linspace(math.log(top) - 12.0, math.log(top), 1000)), top)
    increasing, concave, margin = _monotone_concave(spec.family, taus)
    return WeightReport(
        region=f"log grid (0, {top:g}], 1000 points",
        fitted_constant=max(margin, 0.0),
        passed=increasing and concave and mu_eval(spec, 0.0) == 0.0,
    )


def jensen_margin(
    spec: ModulusSpec, n: int, trials: int = 10000, cells: int = 16,
    seed: int = 0, v_max: float = 2.0,
) -> float:
    """Worst relative violation of the averaged convexity inequality.

    Draws random non-negative step functions v and weights alpha on [0,1]
    and compares g(weighted mean of v) against the weighted mean of g(v).
    Non-positive results mean the inequality held on every trial.  The
    trials are drawn and reduced in ``row_blocks``, v and alpha each from
    its own part of the one stream of ``seed``, so every draw is the one a
    single draw of all trials gives.
    """
    draw_v = np.random.Generator(np.random.PCG64(seed))
    # alpha follows the trials x cells draws of v in one stream of ``seed``
    draw_alpha = np.random.Generator(np.random.PCG64(seed).advance(trials * cells))
    worst = []
    for b in row_blocks(trials, cells):
        v = draw_v.uniform(0.0, v_max, size=(b.stop - b.start, cells))
        alpha = draw_alpha.uniform(0.0, 1.0, size=v.shape)
        total = alpha.sum(axis=1)
        total = np.where(total > 0.0, total, 1.0)
        mean = (v * alpha).sum(axis=1) / total
        lhs = convex_companion(spec, n, mean)
        rhs = (convex_companion(spec, n, v) * alpha).sum(axis=1) / total
        denom = np.maximum(np.abs(rhs), 1e-300)
        worst.append(np.max((lhs - rhs) / denom))
    return float(np.max(worst))
