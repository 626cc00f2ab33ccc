"""Test-function kernels and numerical verification of their sharp bounds.

The machinery rests on the positive eigenfunction of the Laplacian built
from the spherical average of ``exp(x . w)``; in closed form it is
(2 pi)^{n/2} r^{1-n/2} I_{n/2-1}(r) (DLMF 10.39).  Every function here reads
it through one scaled form, phi(z) e^{-z}, which is finite and positive at
every radius.  For n = 2 that is 2 pi i0e(z), evaluated in numpy by the
Cephes rule (two Chebyshev series, split at z = 8) bit for bit as
scipy.special.i0e; only n >= 4 imports scipy, on first use.  Two
one-parameter transforms of it appear everywhere downstream:

* the data kernel, weighting initial data (cosh time factor), and
* the source kernel, weighting the forcing history (sinh time factor).

Both are integrals over a spectral variable lam in (0, lam0] with an
algebraic endpoint factor lam**q; the quadrature uses a graded mesh
lam_i = lam0 * (i/N)**3 so the endpoint is resolved even for fractional
q in (-1, 0).  The rule's weights are those of x = lam / lam0, and the
kernel is lam0^{q+1} times their sum.  For the largest radius m of a
radius set, the table w_i x_i^q phi(lam_i r) e^{-lam_i m} is built once
and contracted with each decaying envelope times e^{lam m}; both are
filled in ``row_blocks``, bit for bit.  Where the kernels are used
(r <= R + s) the shifted envelope is at most 1 and the table at most
phi(0) times the weights, so no lam0 overflows there; a kernel value that
does pass the float range is refused, naming lam0 and the radius, and so is
a time t or s that is not finite, naming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .reporting import row_blocks
from .weights import bracket


def sphere_area(m: int) -> float:
    """Surface measure of the unit m-sphere in R^{m+1}."""
    if m < 0:
        raise ValueError(f"sphere dimension must be >= 0, got {m}")
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


# Cephes i0e (DLMF 10.25), highest order first: the Chebyshev series of e^(-z) I_0(z)
# in z/2 - 2 on [0, 8], and of sqrt(z) e^(-z) I_0(z) in 32/z - 2 past 8
_I0E_NEAR = (
    -4.41534164647933937950E-18, 3.33079451882223809783E-17, -2.43127984654795469359E-16,
    1.71539128555513303061E-15, -1.16853328779934516808E-14, 7.67618549860493561688E-14,
    -4.85644678311192946090E-13, 2.95505266312963983461E-12, -1.72682629144155570723E-11,
    9.67580903537323691224E-11, -5.18979560163526290666E-10, 2.65982372468238665035E-9,
    -1.30002500998624804212E-8, 6.04699502254191894932E-8, -2.67079385394061173391E-7,
    1.11738753912010371815E-6, -4.41673835845875056359E-6, 1.64484480707288970893E-5,
    -5.75419501008210370398E-5, 1.88502885095841655729E-4, -5.76375574538582365885E-4,
    1.63947561694133579842E-3, -4.32430999505057594430E-3, 1.05464603945949983183E-2,
    -2.37374148058994688156E-2, 4.93052842396707084878E-2, -9.49010970480476444210E-2,
    1.71620901522208775349E-1, -3.04682672343198398683E-1, 6.76795274409476084995E-1,
)
_I0E_FAR = (
    -7.23318048787475395456E-18, -4.83050448594418207126E-18, 4.46562142029675999901E-17,
    3.46122286769746109310E-17, -2.82762398051658348494E-16, -3.42548561967721913462E-16,
    1.77256013305652638360E-15, 3.81168066935262242075E-15, -9.55484669882830764870E-15,
    -4.15056934728722208663E-14, 1.54008621752140982691E-14, 3.85277838274214270114E-13,
    7.18012445138366623367E-13, -1.79417853150680611778E-12, -1.32158118404477131188E-11,
    -3.14991652796324136454E-11, 1.18891471078464383424E-11, 4.94060238822496958910E-10,
    3.39623202570838634515E-9, 2.26666899049817806459E-8, 2.04891858946906374183E-7,
    2.89137052083475648297E-6, 6.88975834691682398426E-5, 3.36911647825569408990E-3,
    8.04490411014108831608E-1,
)


def _chbevl(x, coeffs):
    """Cephes chbevl: Clenshaw's recurrence b0 = x b1 - b2 + c over the
    coefficients, then (b0 - b2)/2, in place on three buffers."""
    b0, b1, b2 = np.full_like(x, coeffs[0]), np.zeros_like(x), np.empty_like(x)
    for c in coeffs[1:]:
        b0, b1, b2 = b2, b0, b1
        np.multiply(x, b1, out=b0)
        np.subtract(b0, b2, out=b0)
        np.add(b0, c, out=b0)
    np.subtract(b0, b2, out=b0)
    return np.multiply(b0, 0.5, out=b0)


def _i0e(z):
    """e^(-z) I_0(z) on an array of z >= 0 by the Cephes rule, bit for bit
    ``scipy.special.i0e``; 0 at inf, nan at nan."""
    out = np.empty_like(z)
    near = z <= 8.0  # false at nan
    x = z[near] / 2.0
    out[near] = _chbevl(np.subtract(x, 2.0, out=x), _I0E_NEAR)
    far = z[~near]
    x = 32.0 / far
    out[~near] = _chbevl(np.subtract(x, 2.0, out=x), _I0E_FAR) / np.sqrt(far)
    return out


def _scaled_eigenfunction(n: int, z):
    """phi(z) e^{-z} on an array of radii z >= 0; at most phi(0) and
    positive however large z is.  Closed forms: -2 pi expm1(-2z)/z for
    n = 3, 4 pi exactly at z <= 1e-300, 2 pi i0e(z) for n = 2, and
    (2 pi)^{n/2} z^{-nu} ive(nu, z), nu = n/2 - 1, for n >= 4, with the
    two-term series of z^{-nu} I_nu(z) below z = 1e-6."""
    if n == 3:
        safe = np.maximum(z, 1e-300)
        return np.expm1(-2.0 * safe) / safe * (-2.0 * math.pi)
    if n == 2:
        return 2.0 * math.pi * _i0e(z)
    if n >= 4:
        from scipy import special

        nu = 0.5 * n - 1.0
        small = z < 1e-6
        safe = np.where(small, 1.0, z)
        return (2.0 * math.pi) ** (0.5 * n) * np.where(
            small,
            (1.0 + z * z / (4.0 * (nu + 1.0))) * np.exp(-z) / (2.0 ** nu * math.gamma(nu + 1.0)),
            special.ive(nu, safe) * safe ** -nu,
        )
    raise ValueError(f"eigenfunction needs n >= 2, got n={n}")


def _radii(r, least: float = 0.0):
    """r as a float array of at least one dimension, refused below ``least``."""
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(arr < least):
        raise ValueError(f"radius must be at least {least:g}")
    return arr


def laplace_eigenfunction(n: int, r):
    """Radial profile of the positive eigenfunction of the Laplacian.

    Spherical average of exp(x . w) at radius r; smooth, increasing, and
    asymptotically r**(-(n-1)/2) e**r up to a constant: 2 pi I_0(r) for
    n = 2, 4 pi sinh(r)/r for n = 3, (2 pi)^{n/2} r^{-nu} I_nu(r),
    nu = n/2 - 1, for n >= 4.  It is the scaled form times e^r, so it
    passes the float range once r passes about 710.
    """
    arr = _radii(r)
    out = _scaled_eigenfunction(n, arr) * np.exp(arr)
    return float(out[0]) if np.ndim(r) == 0 else out


def log_laplace_eigenfunction(n: int, r):
    """log of the eigenfunction; safe for radii far beyond overflow."""
    arr = _radii(r)
    out = np.log(_scaled_eigenfunction(n, arr)) + arr
    return float(out[0]) if np.ndim(r) == 0 else out


def eigenfunction_growth_ratio(n: int, r):
    """Eigenfunction compensated by its growth law: phi(r) r^{(n-1)/2} e^{-r}.

    Stays inside a fixed positive bracket as r grows.
    """
    arr = _radii(r, least=1.0)
    out = _scaled_eigenfunction(n, arr) * arr ** (0.5 * (n - 1))
    return float(out[0]) if np.ndim(r) == 0 else out


def free_wave_ball_integral(n: int, R: float, t: float) -> float:
    """Integral over the ball of radius R+t of the decaying free-wave
    solution e^{-t} phi(|x|); composite Simpson in the radius on 4097 points.

    Grows like (R+t)^{(n-1)/2} within fixed constants.
    """
    if not (0.0 < R < math.inf and 0.0 <= t < math.inf):  # refuses nan too
        raise ValueError(f"need finite R > 0 and t >= 0, got R={R}, t={t}")
    zeta = np.linspace(0.0, R + t, 4097)  # odd, as Simpson needs
    vals = sphere_area(n - 1) * zeta ** (n - 1) * _scaled_eigenfunction(n, zeta) * np.exp(
        zeta - t)
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
    """(lam, w x^q, first cell, q + 1): the graded mesh past 0; the
    trapezoid weights of x = lam / lam0 on it times x^q; the first cell,
    its smooth part frozen at lam = 0 (both envelopes are 1) and x^q
    integrated exactly for q in (-1, 0); and the power of lam0 that takes
    the rule in x back to lam."""
    if q <= -1.0:
        raise ValueError("lam^q is not integrable for q <= -1")
    i = np.arange(cfg.quad_points + 1, dtype=float)
    x = ((i / cfg.quad_points) ** 3)[1:]  # the graded mesh past 0
    half_dx = 0.5 * np.diff(x)
    w = np.append(half_dx, 0.0) + np.insert(half_dx, 0, 0.0)
    first = _scaled_eigenfunction(cfg.n, np.zeros(1))[0] * x[0] ** (q + 1.0) / (q + 1.0)
    return cfg.lambda0 * x, w * x ** q, first, q + 1.0


def _lam_table(cfg: KernelConfig, rule, r):
    """Build w_i x_i^q phi(lam_i r) e^{-lam_i m}, m the largest radius, once
    for one radius set, however many envelopes it takes.  Returns
    (envelope, *args) -> lam0^{q+1} (rows @ table + first cell), the rows
    envelope(cfg, *args, lam, m): the envelope times e^{lam m}.  A value
    past the float range is refused, naming lambda0 and m."""
    lam, wq, first, power = rule
    r_arr = np.abs(np.ravel(np.asarray(r, dtype=float)))
    m = r_arr.max(initial=0.0)
    table = np.empty((lam.size, r_arr.size))
    for b in row_blocks(*table.shape):
        z = lam[b, None] * r_arr
        table[b] = (wq[b, None] * _scaled_eigenfunction(cfg.n, z)
                    * np.exp(lam[b, None] * (r_arr - m)))

    def contract(envelope, *args):
        with np.errstate(over="ignore", invalid="ignore"):  # past the float range: refused below
            rows = np.atleast_2d(envelope(cfg, *args, lam, m))
            out = (rows @ table + first) * np.power(cfg.lambda0, power)
        if not np.isfinite(out).all():
            raise ValueError(f"lambda0={cfg.lambda0:g} takes the kernel at radius {m:g} "
                             "past the float range")
        return out

    return contract


def _data_envelope(cfg: KernelConfig, t: float, lam, m: float):
    if not 0.0 <= t < math.inf:  # refuses nan too
        raise ValueError(f"time must be finite and non-negative, got t={t}")
    return 0.5 * (np.exp(-lam * (cfg.R - m)) + np.exp(-lam * (cfg.R + 2.0 * t - m)))


def _source_envelope(cfg: KernelConfig, t: float, s, lam, m: float):
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be finite and non-negative, got t={t}")
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    inside = (0.0 <= s_arr) & (s_arr <= t)  # false at nan
    if not inside.all():
        raise ValueError(f"need 0 <= s <= t={t:g}, got s={s_arr[~inside][0]}")
    s_col = s_arr[:, None]
    out = np.empty((len(s_col), lam.size))
    for b in row_blocks(*out.shape):
        # sinh(z)/z e^{-z} = expm1(-2z)/(-2z), z = lam (t - s): at most 1, and exactly 1 at
        # s = t, where z is held at 1e-300
        z = np.maximum(lam * (t - s_col[b]), 1e-300)
        out[b] = np.expm1(-2.0 * z) / (-2.0 * z) * np.exp(-lam * (cfg.R + s_col[b] - m))
    return out


def data_kernel(cfg: KernelConfig, q: float, t: float, r):
    """Kernel weighting initial data: the cosh-envelope lam-transform.

    integral over (0, lam0] of e^{-lam(R+t)} cosh(lam t) phi(lam r) lam^q.
    The envelope is computed as 0.5 (e^{-lam R} + e^{-lam(R+2t)}).
    """
    out = _lam_table(cfg, _lam_rule(cfg, q), r)(_data_envelope, t).reshape(np.shape(r))
    return float(out) if out.ndim == 0 else out


def source_kernel(cfg: KernelConfig, q: float, t: float, s, r):
    """Kernel weighting the forcing history: the sinh-envelope transform.

    integral over (0, lam0] of
        e^{-lam(R+t)} sinh(lam(t-s))/(lam(t-s)) phi(lam r) lam^q.
    The envelope is computed as e^{-lam(R+s)} expm1(-2z)/(-2z), z =
    lam(t-s), which is exactly e^{-lam(R+t)} at t == s.  An array of s
    gives one row per s.
    """
    contract = _lam_table(cfg, _lam_rule(cfg, q), r)
    out = contract(_source_envelope, t, s).reshape(np.shape(s) + np.shape(r))
    return float(out) if out.ndim == 0 else out


def data_and_source_kernels(cfg: KernelConfig, q: float, t: float, s, r):
    """``data_kernel(cfg, q, t, r)`` and ``source_kernel(cfg, q, t, s, r)``
    for 1-D s and r, bit for bit, from one table of the radii r."""
    contract = _lam_table(cfg, _lam_rule(cfg, q), r)
    return contract(_data_envelope, t)[0], contract(_source_envelope, t, s)


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
    every value is the public kernel call's, bit for bit.  Pass means every
    fitted constant is positive and finite.
    """
    n = cfg.n
    if q <= max(-1.0, (n - 3) / 2.0):
        raise ValueError("bounds need q > max(-1, (n-3)/2)")
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
            values[k] = (contract(_data_envelope, t) if item == "a0"
                         else contract(_source_envelope, t, s))[0]

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
