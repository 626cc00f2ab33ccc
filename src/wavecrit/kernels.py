"""Test-function kernels and numerical verification of their sharp bounds.

The machinery rests on the positive eigenfunction of the Laplacian built
from the spherical average of ``exp(x . w)``; in closed form it is
(2 pi)^{n/2} r^{1-n/2} I_{n/2-1}(r) (DLMF 10.39).  Two one-parameter
transforms of it appear everywhere downstream:

* the data kernel, weighting initial data (cosh time factor), and
* the source kernel, weighting the forcing history (sinh time factor).

Both are integrals over a spectral variable lam in (0, lam0] with an
algebraic endpoint factor lam**q; the quadrature uses a graded mesh
lam_i = lam0 * (i/N)**3 so the endpoint is resolved even for fractional
q in (-1, 0).  The exponentially growing eigenfunction is always paired
with the decaying envelope analytically, so nothing here overflows for the
sweep ranges used (t up to a few hundred).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sc

from .weights import bracket

_SERIES_CUT = 1e-4


def sphere_area(m: int) -> float:
    """Surface measure of the unit m-sphere in R^{m+1}."""
    if m < 0:
        raise ValueError(f"sphere dimension must be >= 0, got {m}")
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def laplace_eigenfunction(n: int, r):
    """Radial profile of the positive eigenfunction of the Laplacian.

    Spherical average of exp(x . w) at radius r; smooth, increasing, and
    asymptotically r**(-(n-1)/2) e**r up to a constant.  Closed forms:
    2 pi I_0(r) for n = 2, 4 pi sinh(r)/r for n = 3, and
    (2 pi)^{n/2} r^{-nu} I_nu(r), nu = n/2 - 1, for n >= 4, with the
    two-term series of r^{-nu} I_nu(r) below r = 1e-6.
    """
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0.0):
        raise ValueError("radius must be non-negative")
    if n == 3:
        small = arr < 1e-6
        safe = np.where(small, 1.0, arr)
        out = np.where(
            small,
            4.0 * math.pi * (1.0 + arr * arr / 6.0),
            4.0 * math.pi * np.sinh(safe) / safe,
        )
    elif n == 2:
        out = 2.0 * math.pi * sc.i0(arr)
    elif n >= 4:
        nu = 0.5 * n - 1.0
        small = arr < 1e-6
        safe = np.where(small, 1.0, arr)
        out = (2.0 * math.pi) ** (0.5 * n) * np.where(
            small,
            (1.0 + arr * arr / (4.0 * (nu + 1.0))) / (2.0 ** nu * math.gamma(nu + 1.0)),
            sc.iv(nu, safe) / safe ** nu,
        )
    else:
        raise ValueError(f"eigenfunction needs n >= 2, got n={n}")
    return float(out[0]) if scalar else out


def log_laplace_eigenfunction(n: int, r):
    """log of the eigenfunction; safe for radii far beyond overflow."""
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0.0):
        raise ValueError("radius must be non-negative")
    if n == 3:
        small = arr < 1e-6
        safe = np.where(small, 1.0, arr)
        out = np.where(
            small,
            math.log(4.0 * math.pi) + np.log1p(arr * arr / 6.0),
            math.log(2.0 * math.pi) + arr + np.log1p(-np.exp(-2.0 * safe)) - np.log(safe),
        )
    elif n == 2:
        out = math.log(2.0 * math.pi) + arr + np.log(sc.i0e(arr))
    elif n >= 4:
        nu = 0.5 * n - 1.0
        small = arr < 1e-6
        safe = np.where(small, 1.0, arr)
        out = 0.5 * n * math.log(2.0 * math.pi) + np.where(
            small,
            np.log1p(arr * arr / (4.0 * (nu + 1.0))) - nu * math.log(2.0) - math.lgamma(nu + 1.0),
            arr + np.log(sc.ive(nu, safe)) - nu * np.log(safe),
        )
    else:
        raise ValueError(f"eigenfunction needs n >= 2, got n={n}")
    return float(out[0]) if scalar else out


def eigenfunction_growth_ratio(n: int, r):
    """Eigenfunction compensated by its growth law: phi(r) r^{(n-1)/2} e^{-r}.

    Stays inside a fixed positive bracket as r grows; evaluated in log space.
    """
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 1.0):
        raise ValueError("growth ratio is meaningful for r >= 1")
    out = np.exp(log_laplace_eigenfunction(n, arr) + 0.5 * (n - 1) * np.log(arr) - arr)
    return float(out[0]) if scalar else out


def free_wave_ball_integral(n: int, R: float, t: float, num: int = 4097) -> float:
    """Integral over the ball of radius R+t of the decaying free-wave
    solution e^{-t} phi(|x|); composite Simpson in the radius.

    Grows like (R+t)^{(n-1)/2} within fixed constants.
    """
    if R <= 0.0 or t < 0.0:
        raise ValueError("need R > 0 and t >= 0")
    if num % 2 == 0:
        num += 1
    zeta = np.linspace(0.0, R + t, num)
    vals = sphere_area(n - 1) * zeta ** (n - 1) * np.exp(
        log_laplace_eigenfunction(n, zeta) - t
    )
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("ball integrand is not finite")
    h = zeta[1] - zeta[0]
    return float(h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum()))


def sinh_over_z(z):
    """sinh(z)/z with a 4-term series below |z| = 1e-4 (cancellation guard)."""
    arr = np.asarray(z, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    small = np.abs(arr) < _SERIES_CUT
    z2 = arr * arr
    series = 1.0 + z2 / 6.0 * (1.0 + z2 / 20.0 * (1.0 + z2 / 42.0))
    safe = np.where(small, 1.0, arr)
    out = np.where(small, series, np.sinh(safe) / safe)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class KernelConfig:
    """Shared parameters of the data/source kernels."""

    n: int = 3
    lambda0: float = 1.0
    R: float = 1.0
    quad_points: int = 2048

    def __post_init__(self):
        if self.lambda0 <= 0.0 or self.R <= 0.0:
            raise ValueError("lambda0 and R must be positive")
        if self.quad_points < 16:
            raise ValueError("quad_points must be at least 16")


def _graded_mesh(cfg: KernelConfig) -> np.ndarray:
    i = np.arange(cfg.quad_points + 1, dtype=float)
    return cfg.lambda0 * (i / cfg.quad_points) ** 3


def _lam_integral(cfg: KernelConfig, q: float, envelope, r) -> np.ndarray:
    """Integrate envelope(lam) * phi(lam r) * lam^q over (0, lam0].

    The table w_i lam_i^q phi(lam_i r) of the graded mesh past 0 (trapezoid
    weights w_i) is built once per radius set; ``envelope`` maps that mesh
    to one row per kernel parameter, and each row is contracted with the
    table.  The first graded cell is handled analytically so fractional
    q in (-1, 0) stays accurate.  Returns shape (rows, r.size).
    """
    lam = _graded_mesh(cfg)[1:]
    r_arr = np.abs(np.ravel(np.asarray(r, dtype=float)))
    half_dl = 0.5 * np.diff(lam)
    w = np.append(half_dl, 0.0) + np.insert(half_dl, 0, 0.0)
    table = (w * lam ** q)[:, None] * laplace_eigenfunction(cfg.n, lam[:, None] * r_arr)
    # first cell: smooth part frozen at lam = 0, where both envelopes equal 1;
    # lam^q integrated exactly
    first = laplace_eigenfunction(cfg.n, 0.0) * lam[0] ** (q + 1.0) / (q + 1.0)
    return np.atleast_2d(envelope(lam)) @ table + first


def data_kernel(cfg: KernelConfig, q: float, t: float, r):
    """Kernel weighting initial data: the cosh-envelope lam-transform.

    integral over (0, lam0] of e^{-lam(R+t)} cosh(lam t) phi(lam r) lam^q.
    The envelope is computed as 0.5 (e^{-lam R} + e^{-lam(R+2t)}), which
    never overflows.
    """
    if q <= -1.0:
        raise ValueError("lam^q is not integrable for q <= -1")
    if t < 0.0:
        raise ValueError("time must be non-negative")

    def envelope(lam):
        return 0.5 * (np.exp(-lam * cfg.R) + np.exp(-lam * (cfg.R + 2.0 * t)))

    out = _lam_integral(cfg, q, envelope, r).reshape(np.shape(r))
    return float(out) if out.ndim == 0 else out


def source_kernel(cfg: KernelConfig, q: float, t: float, s, r):
    """Kernel weighting the forcing history: the sinh-envelope transform.

    integral over (0, lam0] of
        e^{-lam(R+t)} sinh(lam(t-s))/(lam(t-s)) phi(lam r) lam^q,
    with the removable t == s singularity replaced by its series value.
    An array of s gives one row per s.
    """
    if q <= -1.0:
        raise ValueError("lam^q is not integrable for q <= -1")
    s_col = np.atleast_1d(np.asarray(s, dtype=float))[:, None]
    if np.any(s_col > t) or np.any(s_col < 0.0):
        raise ValueError("need t >= s >= 0")

    def envelope(lam):
        z = lam * (t - s_col)
        small = np.abs(z) < _SERIES_CUT
        safe = np.where(small, 1.0, z)
        out = (np.exp(-lam * (cfg.R + s_col)) - np.exp(-lam * (cfg.R + 2.0 * t - s_col))) / (
            2.0 * safe
        )
        # the difference form never overflows; sinh(z)/z only where it cancels
        decay = np.broadcast_to(np.exp(-lam * (cfg.R + t)), z.shape)
        out[small] = decay[small] * sinh_over_z(z[small])
        return out

    out = _lam_integral(cfg, q, envelope, r).reshape(np.shape(s) + np.shape(r))
    return float(out) if out.ndim == 0 else out


@dataclass
class KernelBoundsReport:
    """Fitted constants for the kernel lower/upper bounds over a sweep."""

    region: str
    a0: float
    b0: float
    b1: float
    b2: float
    passed: bool
    columns: tuple = ()
    samples: list = field(default_factory=list)


def kernel_bounds_check(
    cfg: KernelConfig, q: float, t_max: float = 50.0, nt: int = 41,
    ns: int = 21, nfrac: int = 9,
) -> KernelBoundsReport:
    """Sweep the three kernel estimates and fit their constants.

    (i)   data kernel >= a0 on |r| <= R, and the source kernel at s=0
          >= b0 / <t>;
    (ii)  source kernel >= b1 <t>^{-1} <s>^{-q} for |r| <= R+s, t > s;
    (iii) the diagonal source kernel <= b2 <t>^{-(n-1)/2} <t-r>^{(n-3)/2-q}
          for |r| <= R+t.

    Pass means every fitted constant is positive and finite.
    """
    n = cfg.n
    if q <= max(-1.0, (n - 3) / 2.0):
        raise ValueError("bounds need q > max(-1, (n-3)/2)")
    t_grid = np.linspace(0.0, t_max, nt)
    fracs = np.linspace(0.0, 1.0, nfrac)
    samples = []

    a0 = math.inf
    b0 = math.inf
    b1 = math.inf
    b2 = 0.0
    for t in t_grid:
        r_in = fracs * cfg.R
        a0 = min(a0, float(np.min(data_kernel(cfg, q, t, r_in))))
        b0 = min(b0, float(np.min(source_kernel(cfg, q, t, 0.0, r_in) * bracket(t))))

        for s in np.linspace(0.0, 0.95 * t, ns) if t > 0 else []:
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
    passed = all(math.isfinite(c) and c > 0.0 for c in constants)
    return KernelBoundsReport(
        region=f"n={n}, q={q:.6g}, t in [0, {t_max:g}], lam0={cfg.lambda0:g}, R={cfg.R:g}",
        a0=a0,
        b0=b0,
        b1=b1,
        b2=b2,
        passed=passed,
        columns=("item", "t", "s", "r", "ratio"),
        samples=samples,
    )
