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
q in (-1, 0).  The table w_i lam_i^q phi(lam_i r) is built once per
distinct radius set and contracted with each decaying envelope; both are
filled in blocks of rows, bit for bit.  The envelopes never overflow, but
phi(lam0 r) does once lam0 r passes about 708 (n = 3): such a table is
refused, and the kernel-bound sweep refuses such a lam0 up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sc

from .weights import bracket

_SERIES_CUT = 1e-4
_BLOCK = 65536  # elements per block of a table or envelope fill


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
    arr = np.atleast_1d(np.asarray(r, dtype=float))
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
    return float(out[0]) if np.ndim(r) == 0 else out


def log_laplace_eigenfunction(n: int, r):
    """log of the eigenfunction; safe for radii far beyond overflow."""
    arr = np.atleast_1d(np.asarray(r, dtype=float))
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
    return float(out[0]) if np.ndim(r) == 0 else out


def eigenfunction_growth_ratio(n: int, r):
    """Eigenfunction compensated by its growth law: phi(r) r^{(n-1)/2} e^{-r}.

    Stays inside a fixed positive bracket as r grows; evaluated in log space.
    """
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(arr < 1.0):
        raise ValueError("growth ratio is meaningful for r >= 1")
    out = np.exp(log_laplace_eigenfunction(n, arr) + 0.5 * (n - 1) * np.log(arr) - arr)
    return float(out[0]) if np.ndim(r) == 0 else out


def free_wave_ball_integral(n: int, R: float, t: float) -> float:
    """Integral over the ball of radius R+t of the decaying free-wave
    solution e^{-t} phi(|x|); composite Simpson in the radius on 4097 points.

    Grows like (R+t)^{(n-1)/2} within fixed constants.
    """
    if R <= 0.0 or t < 0.0:
        raise ValueError("need R > 0 and t >= 0")
    zeta = np.linspace(0.0, R + t, 4097)  # odd, as Simpson needs
    vals = sphere_area(n - 1) * zeta ** (n - 1) * np.exp(
        log_laplace_eigenfunction(n, zeta) - t
    )
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("ball integrand is not finite")
    h = zeta[1] - zeta[0]
    return float(h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum()))


@dataclass(frozen=True)
class KernelConfig:
    """Shared parameters of the data/source kernels."""

    n: int = 3
    lambda0: float = 1.0
    R: float = 1.0
    quad_points: int = 2048

    def __post_init__(self):
        if not (0.0 < self.lambda0 < math.inf and 0.0 < self.R < math.inf):  # refuses nan too
            raise ValueError(f"lambda0 and R must be positive and finite, "
                             f"got lambda0={self.lambda0}, R={self.R}")
        if self.quad_points < 16:
            raise ValueError("quad_points must be at least 16")


def _lam_rule(cfg: KernelConfig, q: float):
    """(lam, w lam^q, first cell): the graded mesh past 0, its trapezoid
    weights times lam^q, and the first cell, its smooth part frozen at lam = 0
    (both envelopes are 1) and lam^q integrated exactly for q in (-1, 0)."""
    if q <= -1.0:
        raise ValueError("lam^q is not integrable for q <= -1")
    i = np.arange(cfg.quad_points + 1, dtype=float)
    lam = (cfg.lambda0 * (i / cfg.quad_points) ** 3)[1:]  # the graded mesh past 0
    half_dl = 0.5 * np.diff(lam)
    w = np.append(half_dl, 0.0) + np.insert(half_dl, 0, 0.0)
    first = laplace_eigenfunction(cfg.n, 0.0) * lam[0] ** (q + 1.0) / (q + 1.0)
    return lam, w * lam ** q, first


def _row_blocks(rows: int, cols: int):
    """Slices of at least one and at most _BLOCK // cols rows that cover ``rows`` rows."""
    step = max(1, _BLOCK // max(cols, 1))
    return (slice(i, i + step) for i in range(0, rows, step))


def _lam_table(cfg: KernelConfig, rule, r):
    """Build w_i lam_i^q phi(lam_i r) once for one radius set, however many
    envelope rows it takes; returns rows -> rows @ table + first cell."""
    lam, wq, first = rule
    r_arr = np.abs(np.ravel(np.asarray(r, dtype=float)))
    table = np.empty((lam.size, r_arr.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for b in _row_blocks(*table.shape):
            table[b] = wq[b, None] * laplace_eigenfunction(cfg.n, lam[b, None] * r_arr)
    if not np.isfinite(table).all():
        raise ValueError(f"lambda0={cfg.lambda0:g} overflows the eigenfunction at the largest "
                         f"radius {r_arr.max():g}")
    return lambda rows: np.atleast_2d(rows) @ table + first


def _data_envelope(cfg: KernelConfig, t: float, lam):
    if t < 0.0:
        raise ValueError("time must be non-negative")
    return 0.5 * (np.exp(-lam * cfg.R) + np.exp(-lam * (cfg.R + 2.0 * t)))


def _source_envelope(cfg: KernelConfig, t: float, s, lam):
    s_col = np.atleast_1d(np.asarray(s, dtype=float))[:, None]
    if np.any(s_col > t) or np.any(s_col < 0.0):
        raise ValueError("need t >= s >= 0")
    out = np.empty((len(s_col), lam.size))
    for b in _row_blocks(*out.shape):
        z = lam * (t - s_col[b])
        small = np.abs(z) < _SERIES_CUT
        # the difference form never overflows; where it cancels, sinh(z)/z by its 4-term series
        out[b] = np.exp(-lam * (cfg.R + s_col[b])) - np.exp(-lam * (cfg.R + 2.0 * t - s_col[b]))
        out[b] /= 2.0 * np.where(small, 1.0, z)
        decay = np.broadcast_to(np.exp(-lam * (cfg.R + t)), z.shape)
        z2 = z[small] ** 2
        out[b][small] = decay[small] * (1.0 + z2 / 6.0 * (1.0 + z2 / 20.0 * (1.0 + z2 / 42.0)))
    return out


def data_kernel(cfg: KernelConfig, q: float, t: float, r):
    """Kernel weighting initial data: the cosh-envelope lam-transform.

    integral over (0, lam0] of e^{-lam(R+t)} cosh(lam t) phi(lam r) lam^q.
    The envelope is computed as 0.5 (e^{-lam R} + e^{-lam(R+2t)}), which
    never overflows.
    """
    rule = _lam_rule(cfg, q)
    rows = _data_envelope(cfg, t, rule[0])
    out = _lam_table(cfg, rule, r)(rows).reshape(np.shape(r))
    return float(out) if out.ndim == 0 else out


def source_kernel(cfg: KernelConfig, q: float, t: float, s, r):
    """Kernel weighting the forcing history: the sinh-envelope transform.

    integral over (0, lam0] of
        e^{-lam(R+t)} sinh(lam(t-s))/(lam(t-s)) phi(lam r) lam^q,
    with the removable t == s singularity replaced by its series value.
    An array of s gives one row per s.
    """
    rule = _lam_rule(cfg, q)
    rows = _source_envelope(cfg, t, s, rule[0])
    out = _lam_table(cfg, rule, r)(rows).reshape(np.shape(s) + np.shape(r))
    return float(out) if out.ndim == 0 else out


def data_and_source_kernels(cfg: KernelConfig, q: float, t: float, s, r):
    """``data_kernel(cfg, q, t, r)`` and ``source_kernel(cfg, q, t, s, r)``
    for 1-D s and r, bit for bit, from one table of the radii r."""
    rule = _lam_rule(cfg, q)
    data, source = _data_envelope(cfg, t, rule[0]), _source_envelope(cfg, t, s, rule[0])
    contract = _lam_table(cfg, rule, r)
    return contract(data)[0], contract(source)


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


def kernel_bounds_check(cfg: KernelConfig, q: float) -> KernelBoundsReport:
    """Sweep the three kernel estimates and fit their constants.

    (i)   data kernel >= a0 on |r| <= R, and the source kernel at s=0
          >= b0 / <t>;
    (ii)  source kernel >= b1 <t>^{-1} <s>^{-q} for |r| <= R+s, t > s;
    (iii) the diagonal source kernel <= b2 <t>^{-(n-1)/2} <t-r>^{(n-3)/2-q}
          for |r| <= R+t.

    One table is built per distinct radius set fracs (R + s), 447 for 963
    evaluations at R = 1, and contracted with each evaluation's envelope, so
    every value is the public kernel call's, bit for bit.  A lambda0 whose
    phi(lambda0 (R + 50)) is not a finite float is refused.  Pass means
    every fitted constant is positive and finite.
    """
    n = cfg.n
    if q <= max(-1.0, (n - 3) / 2.0):
        raise ValueError("bounds need q > max(-1, (n-3)/2)")
    with np.errstate(over="ignore", invalid="ignore"):
        if not math.isfinite(laplace_eigenfunction(n, cfg.lambda0 * (cfg.R + 50.0))):
            lo, hi = 0.0, 1e4  # phi(lo) is finite, phi(hi) is not
            while hi - lo > 1e-6 * hi:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if math.isfinite(laplace_eigenfunction(n, mid)) else (lo, mid)
            raise ValueError(f"lambda0={cfg.lambda0:g} overflows the eigenfunction at lambda0*"
                             f"(R+50); the sweep needs lambda0 below {lo / (cfg.R + 50.0):.6g}")
    fracs = np.linspace(0.0, 1.0, 9)  # of each disc's radius R + s
    calls, groups = [], {}  # (item, t, s) in sweep order; disc radius R + s -> its calls
    for t in np.linspace(0.0, 50.0, 41):
        lower = [("lower", s) for s in (np.linspace(0.0, 0.95 * t, 21) if t > 0 else [])]
        for item, s in [("a0", 0.0), ("b0", 0.0), *lower, ("upper", t)]:  # a0: data kernel
            groups.setdefault(cfg.R + s, []).append(len(calls))
            calls.append((item, t, s))
    rule = _lam_rule(cfg, q)
    values = np.empty((len(calls), fracs.size))
    for radius, members in groups.items():
        contract = _lam_table(cfg, rule, fracs * radius)
        for k in members:
            item, t, s = calls[k]
            rows = (_data_envelope(cfg, t, rule[0]) if item == "a0"
                    else _source_envelope(cfg, t, s, rule[0]))
            values[k] = contract(rows)[0]

    a0 = b0 = b1 = math.inf
    b2 = 0.0
    samples = []
    for (item, t, s), value in zip(calls, values):
        r = fracs * (cfg.R + s)
        if item == "a0":
            a0 = min(a0, float(np.min(value)))
        elif item == "b0":
            b0 = min(b0, float(np.min(value * bracket(t))))
        elif item == "lower":
            ratio = value * bracket(t) * bracket(s) ** q
            k = int(np.argmin(ratio))
            b1 = min(b1, float(ratio[k]))
        else:
            ratio = value * bracket(t) ** (0.5 * (n - 1)) * bracket(t - r) ** (q - 0.5 * (n - 3))
            k = int(np.argmax(ratio))
            b2 = max(b2, float(ratio[k]))
        if item in ("lower", "upper"):
            samples.append((item, float(t), float(s), float(r[k]), float(ratio[k])))

    constants = (a0, b0, b1, b2)
    passed = all(math.isfinite(c) and c > 0.0 for c in constants)
    return KernelBoundsReport(
        region=f"n={n}, q={q:.6g}, t in [0, 50], lam0={cfg.lambda0:g}, R={cfg.R:g}",
        a0=a0, b0=b0, b1=b1, b2=b2, passed=passed,
        columns=("item", "t", "s", "r", "ratio"),
        samples=samples,
    )
