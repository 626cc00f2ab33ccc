"""Test-function kernels and numerical verification of their sharp bounds.

The machinery rests on the positive eigenfunction of the Laplacian built
from the spherical average of ``exp(x . w)``; in closed form it is
(2 pi)^{n/2} r^{1-n/2} I_{n/2-1}(r) (DLMF 10.39).  Every function here reads
it through one scaled form, phi(z) e^{-z}, which is finite and positive at
every radius.  For n = 2 that is 2 pi i0e(z), evaluated in numpy by the
Cephes rule (two Chebyshev series, split at z = 8) bit for bit as
scipy.special.i0e; only n >= 4, and the closed-form ball integral of
n != 3, import scipy, on first use.  Two one-parameter transforms of it
appear everywhere downstream:

* the data kernel, weighting initial data (cosh time factor), and
* the source kernel, weighting the forcing history (sinh time factor).

Both are integrals over a spectral variable lam in (0, lam0] with an
algebraic endpoint factor lam**q; the quadrature uses a graded mesh
lam_i = lam0 * (i/N)**3 so the endpoint is resolved even for fractional
q in (-1, 0).  The rule's weights are those of x = lam / lam0, and the
kernel is lam0^{q+1} times their sum.  For the largest radius m of a
radius set, the table w_i x_i^q phi(lam_i r) e^{-lam_i m} is walked in
the lam blocks of ``row_blocks(N, len(r))``: each block is built once
along lam, in place in the eigenfunction's output, turned once into its
one scratch array, and contracted with every decaying envelope times
e^{lam m} on its own lam, in row blocks of the envelope, the products
summed block by block, so no call holds the whole table or a whole
envelope.  The blocks depend on the envelope's rows, N and len(r) alone,
so one kernel call and a paired call agree bit for bit.  The bound sweep
walks the same table blocks once per radius set and evaluates the
envelopes of all the set's (t, s) rows together, but each row is still
its own one-row product: a product of many rows is a BLAS matrix-matrix
product, which sums in another order than a kernel call's one-row
matrix-vector product, so the sweep keeps the calls' bits.  Where the
kernels are used (r <= R + s) the shifted envelope is at most 1 and the
table at most phi(0) times the weights, so no lam0 overflows there; a
kernel value that does pass the float range is refused, naming lam0 and
the radius, and so is a time t or s or a radius r that is not finite,
naming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exponents import kernel_exponent
from .reporting import bracket, row_blocks


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
    ``scipy.special.i0e``; 1 at 0 (the near series' value) without a
    series, 0 at inf, nan at nan; a series with no entries is skipped."""
    out = np.ones_like(z)
    near = z <= 8.0  # false at nan
    far = ~near
    near &= z != 0.0
    if near.any():
        x = z[near] / 2.0
        out[near] = _chbevl(np.subtract(x, 2.0, out=x), _I0E_NEAR)
    if far.any():
        zf = z[far]
        x = 32.0 / zf
        out[far] = _chbevl(np.subtract(x, 2.0, out=x), _I0E_FAR) / np.sqrt(zf)
    return out


def _scaled_eigenfunction(n: int, z):
    """phi(z) e^{-z} on an array of radii z >= 0; at most phi(0) and
    positive however large z is.  Closed forms: -2 pi expm1(-2z)/z for
    n = 3, 4 pi exactly at z <= 1e-300, 2 pi i0e(z) for n = 2, and
    (2 pi)^{n/2} z^{-nu} ive(nu, z), nu = n/2 - 1, for n >= 4, with the
    two-term series of z^{-nu} I_nu(z) below z = 1e-6."""
    if n == 3:
        safe = np.maximum(z, 1e-300)
        out = np.multiply(safe, -2.0)
        np.expm1(out, out=out)
        np.divide(out, safe, out=out)
        return np.multiply(out, -2.0 * math.pi, out=out)
    if n == 2:
        out = _i0e(z)
        return np.multiply(out, 2.0 * math.pi, out=out)
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


def _split_product(n: int, z: float, rest: float) -> float:
    """|S^{n-1}| (2 pi z)^{n/2} rest where Gamma(n/2) or the power overflows:
    the power in halves, Gamma(n/2) by Legendre's duplication (2^{n/2-1}
    Gamma(n/4) Gamma(n/4 + 1/2) / sqrt pi), the factors multiplied apart
    from their binary exponents; past the float range, OverflowError."""
    try:
        area = (sphere_area(n - 1),)
    except OverflowError:
        area = (4.0 * math.sqrt(math.pi) * (0.5 * math.pi) ** (0.5 * n),
                1.0 / math.gamma(0.25 * n), 1.0 / math.gamma(0.25 * n + 0.5))
    half = (2.0 * math.pi * z) ** (0.25 * n)
    mantissa, exponent = 1.0, 0
    for factor in (*area, half, half, rest):
        m, e = math.frexp(factor)
        mantissa, exponent = mantissa * m, exponent + e
    return math.ldexp(mantissa, exponent)


def free_wave_ball_integral(n: int, R: float, t: float) -> float:
    """Integral over the ball of radius z = R+t of the decaying free-wave
    solution e^{-t} phi(|x|), which grows like z^{(n-1)/2}, in closed form
    (DLMF 10.43(i)): |S^{n-1}| (2 pi z)^{n/2} ive(n/2, z) e^R.  n = 3 takes
    8 pi^2 e^R ((z - 1) + (z + 1) e^{-2z}) in ``math``, or below z = 1, where
    that cancels, the series 16 pi^2 e^{-t} sum_{k>=1} 2k z^{2k+1}/(2k+1)!.
    Other n import scipy on first use, whose ive is nan past z = 2^30 - 1/2
    (about 1.07e9); such a z is refused, and so is a value or a factor of
    it (e^R, a half of (2 pi z)^{n/2}) past the float range, each naming R
    and t.  Where Gamma(n/2) or the power overflows alone, ``_split_product``."""
    if not (0.0 < R < math.inf and 0.0 <= t < math.inf):  # refuses nan too
        raise ValueError(f"need finite R > 0 and t >= 0, got R={R}, t={t}")
    z = R + t
    try:
        if n != 3:
            from scipy import special

            ive = float(special.ive(0.5 * n, z))
            try:
                value = sphere_area(n - 1) * (2.0 * math.pi * z) ** (0.5 * n) * ive * math.exp(R)
            except OverflowError:
                value = _split_product(n, z, ive * math.exp(R))
        elif z >= 1.0:
            value = 8.0 * math.pi ** 2 * math.exp(R) * ((z - 1.0) + (z + 1.0) * math.exp(-2.0 * z))
        else:
            value = 16.0 * math.pi ** 2 * math.exp(-t) * math.fsum(
                2 * k * z ** (2 * k + 1) / math.factorial(2 * k + 1) for k in range(1, 12))
    except OverflowError:  # from math.exp or the float power
        value = math.inf
    if math.isnan(value):
        raise ValueError(f"the ball integral at R={R:g}, t={t:g} needs R + t <= 2^30 - 1/2, "
                         "where scipy's ive ends")
    if value == math.inf:
        raise ValueError(f"the ball integral at R={R:g}, t={t:g} passes the float range")
    return value


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


def _table_block(cfg: KernelConfig, rule, b: slice, r, m: float):
    """Block b of the table w_i x_i^q phi(lam_i r) e^{-lam_i m} of the
    radii r, m the largest, (lam block x len(r)) in C order: built along
    lam in place in the eigenfunction's output, then turned once into the
    one scratch array (numpy buffers a broadcast whose inner axis is short)."""
    lam, wq, col = rule[0][b], rule[1][b], r[:, None]
    scratch = col * lam
    table = _scaled_eigenfunction(cfg.n, scratch)
    table *= wq
    table *= np.exp(np.multiply(col - m, lam, out=scratch), out=scratch)
    turned = scratch.reshape(table.shape[::-1])
    np.copyto(turned, table.T)
    return turned


def _scale(cfg: KernelConfig, rule, out, m: float):
    """lam0^{q+1} (out + first cell) in place; a value past the float range
    is refused, naming lambda0 and the largest radius m."""
    out += rule[2]
    out *= np.power(cfg.lambda0, rule[3])
    if not np.isfinite(out).all():
        raise ValueError(f"lambda0={cfg.lambda0:g} takes the kernel at radius {m:g} "
                         "past the float range")


def _lam_transform(cfg: KernelConfig, rule, r, *envelopes):
    """lam0^{q+1} (rows @ table + first cell) for each envelope (rows, f),
    where f(lam, m, c) gives the envelope's rows c times e^{lam m} and the
    table is w_i x_i^q phi(lam_i r) e^{-lam_i m}, m the largest radius.  lam
    runs in the blocks of ``row_blocks(N, len(r))``; each table block is
    built once and feeds every envelope, whose rows are evaluated on the
    block's lam and contracted in ``row_blocks`` of at most one block each
    of envelope and product.  So no call holds the N x len(r) table or a
    len(s) x N envelope, and each envelope's sum depends only on its row
    count, N and len(r).  A radius that is not finite is refused, naming
    it, and so is a value past the float range, naming lambda0 and m."""
    lam = rule[0]
    r_arr = np.abs(np.ravel(np.asarray(r, dtype=float)))
    if not np.isfinite(r_arr).all():
        raise ValueError(f"radius must be finite, got r={r_arr[~np.isfinite(r_arr)][0]}")
    m = r_arr.max(initial=0.0)
    outs = [np.zeros((rows, r_arr.size)) for rows, _ in envelopes]
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: refused below
        for b in row_blocks(lam.size, r_arr.size):
            table = _table_block(cfg, rule, b, r_arr, m)  # contracted alone ...
            for (rows, envelope), out in zip(envelopes, outs):
                for c in row_blocks(rows, max(table.shape)):
                    out[c] += envelope(lam[b], m, c) @ table
            del table  # ... and released before the next one is built
        for out in outs:
            _scale(cfg, rule, out, m)
    return outs


def _cosh_rows(cfg: KernelConfig, lam, m: float, t):
    """The cosh envelope times e^{lam m}, 0.5 (e^{-lam(R - m)} + e^{-lam(R +
    2t - m)}), one row per entry of a column of times t (one row for a
    number), in one buffer."""
    env = np.multiply(-lam, cfg.R + 2.0 * t - m)
    np.exp(env, out=env)
    env += np.exp(-lam * (cfg.R - m))
    return np.multiply(env, 0.5, out=env)


def _sinh_rows(lam, gap, shift):
    """The sinh envelope times e^{lam m}, sinh(z)/z e^{-z} e^{-lam shift}
    with z = lam gap, gap = t - s and shift = R + s - m: one row per entry
    of the column gap, shift a like column or one number for every row; in
    two buffers."""
    # sinh(z)/z e^{-z} = expm1(-2z)/(-2z): at most 1, and exactly 1 at s = t, where z
    # is held at 1e-300
    z = np.multiply(lam, gap)
    np.maximum(z, 1e-300, out=z)
    decay = np.multiply(z, -2.0)  # -2z until the decay factor takes its place
    ratio = np.expm1(decay, out=z)
    ratio /= decay
    if np.any(shift):  # a zero shift, as in every row of the sweep, multiplies by exactly 1
        np.multiply(-lam, shift, out=decay)
        ratio *= np.exp(decay, out=decay)
    return ratio


def _data_envelope(cfg: KernelConfig, t: float):
    """The cosh envelope times e^{lam m} as one row (1, f(lam, m, c))."""
    if not 0.0 <= t < math.inf:  # refuses nan too
        raise ValueError(f"time must be finite and non-negative, got t={t}")
    return 1, lambda lam, m, c: _cosh_rows(cfg, lam, m, t)[None]


def _source_envelope(cfg: KernelConfig, t: float, s):
    """The sinh envelope times e^{lam m} as one row per s (len(s), f(lam, m,
    c)), for the s of rows c."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be finite and non-negative, got t={t}")
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    inside = (0.0 <= s_arr) & (s_arr <= t)  # false at nan
    if not inside.all():
        raise ValueError(f"need 0 <= s <= t={t:g}, got s={s_arr[~inside][0]}")
    s_col = s_arr[:, None]
    return len(s_col), lambda lam, m, c: _sinh_rows(lam, t - s_col[c], cfg.R + s_col[c] - m)


def data_kernel(cfg: KernelConfig, q: float, t: float, r):
    """Kernel weighting initial data: the cosh-envelope lam-transform.

    integral over (0, lam0] of e^{-lam(R+t)} cosh(lam t) phi(lam r) lam^q.
    The envelope is computed as 0.5 (e^{-lam R} + e^{-lam(R+2t)}).
    """
    envelope = _data_envelope(cfg, t)
    out = _lam_transform(cfg, _lam_rule(cfg, q), r, envelope)[0].reshape(np.shape(r))
    return float(out) if out.ndim == 0 else out


def source_kernel(cfg: KernelConfig, q: float, t: float, s, r):
    """Kernel weighting the forcing history: the sinh-envelope transform.

    integral over (0, lam0] of
        e^{-lam(R+t)} sinh(lam(t-s))/(lam(t-s)) phi(lam r) lam^q.
    The envelope is computed as e^{-lam(R+s)} expm1(-2z)/(-2z), z =
    lam(t-s), which is exactly e^{-lam(R+t)} at t == s.  An array of s
    gives one row per s.
    """
    envelope = _source_envelope(cfg, t, s)
    out = _lam_transform(cfg, _lam_rule(cfg, q), r, envelope)[0]
    out = out.reshape(np.shape(s) + np.shape(r))
    return float(out) if out.ndim == 0 else out


def data_and_source_kernels(cfg: KernelConfig, q: float, t: float, s, r):
    """``data_kernel(cfg, q, t, r)`` and ``source_kernel(cfg, q, t, s, r)``
    for 1-D s and r, bit for bit, from one pass over the table of the radii r."""
    envelopes = _data_envelope(cfg, t), _source_envelope(cfg, t, s)
    data, source = _lam_transform(cfg, _lam_rule(cfg, q), r, *envelopes)
    return data[0], source


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


def _sweep_values(cfg: KernelConfig, rule, fracs, t, s, sets):
    """One row per entry of t, each the public kernel call's value bit for
    bit.  ``sets`` maps a radius R + s to its data rows, the data kernel at
    t on fracs R, and its source rows, the source kernel at (t, s) on fracs
    (R + s).  The sets run in their order, so a value past the float range
    is refused as call by call, and a set's envelope blocks hold at most
    len(fracs) rows, no more values than its table block."""
    lam = rule[0]
    values = np.empty((t.size, fracs.size))
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: refused per set
        for radius, (data, source) in sets.items():
            r = fracs * radius
            m = r.max()
            rows = data + source
            ts, ss = t[rows, None], s[rows, None]
            blocks = [slice(i, min(i + r.size, stop)) for start, stop in
                      ((0, len(data)), (len(data), len(rows))) for i in range(start, stop, r.size)]
            out = np.zeros((len(rows), r.size))
            for b in row_blocks(lam.size, r.size):
                table = _table_block(cfg, rule, b, r, m)
                for c in blocks:
                    env = (_cosh_rows(cfg, lam[b], m, ts[c]) if c.stop <= len(data)
                           else _sinh_rows(lam[b], ts[c] - ss[c], radius - m))
                    out[c] += np.matmul(env[:, None], table)[:, 0]  # one-row products
                    del env  # released before the next block is evaluated
                del table
            _scale(cfg, rule, out, m)
            values[rows] = out
    return values


def kernel_bounds_check(cfg: KernelConfig) -> KernelBoundsReport:
    """Sweep the three kernel estimates at q = ``kernel_exponent(n)`` and fit
    their constants.

    (i)   data kernel >= a0 on |r| <= R, and the source kernel at s=0
          >= b0 / <t>;
    (ii)  source kernel >= b1 <t>^{-1} <s>^{-q} for |r| <= R+s, t > s;
    (iii) the diagonal source kernel <= b2 <t>^{-(n-1)/2} <t-r>^{(n-3)/2-q}
          for |r| <= R+t.

    The 963 evaluations fall on 447 distinct radius sets fracs (R + s) at
    R = 1.  Each set builds its table once and evaluates the envelopes of
    its rows together, but contracts each row with the table alone: a
    product of many rows is a matrix-matrix product, which sums in another
    order than the public call's one-row matrix-vector product.  So every
    value is the public kernel call's, bit for bit.  The constants and
    samples are fitted from the array of all values at once.  Pass means
    every fitted constant is positive and finite.
    """
    n = cfg.n
    q = kernel_exponent(n)
    fracs = np.linspace(0.0, 1.0, 9)  # of each disc's radius R + s
    item, t, s, sets = [], [], [], {}  # the evaluations in order; R + s -> (data, source) rows
    for time in np.linspace(0.0, 50.0, 41):
        lower = np.linspace(0.0, 0.95 * time, 21) if time > 0 else []
        for name, at in [("a0", 0.0), ("b0", 0.0), *(("lower", x) for x in lower), ("upper", time)]:
            sets.setdefault(cfg.R + at, ([], []))[name != "a0"].append(len(item))  # a0: data kernel
            item.append(name)
            t.append(time)
            s.append(at)
    item, t, s = np.array(item), np.array(t), np.array(s)
    values = _sweep_values(cfg, _lam_rule(cfg, q), fracs, t, s, sets)

    # the powers of a number are taken in Python and those of an array by ndarray **,
    # as call by call
    lower, upper = item == "lower", item == "upper"
    scale = bracket(t)
    scale[upper] = [b ** (0.5 * (n - 1)) for b in scale[upper].tolist()]
    ratio = values * scale[:, None]
    ratio[lower] *= np.array([b ** q for b in bracket(s[lower]).tolist()])[:, None]
    ratio[upper] *= bracket(t[upper, None] - fracs * (cfg.R + s[upper, None])) ** (
        q - 0.5 * (n - 3))
    fit = lower | upper
    swept = ratio[fit]
    k = np.where(upper[fit], swept.argmax(axis=1), swept.argmin(axis=1))
    best = swept[np.arange(k.size), k]
    a0 = float(values[item == "a0"].min())
    b0 = float(ratio[item == "b0"].min())
    b1 = float(best[lower[fit]].min())
    b2 = float(best[upper[fit]].max())
    samples = list(zip(item[fit].tolist(), t[fit].tolist(), s[fit].tolist(),
                       (fracs[k] * (cfg.R + s[fit])).tolist(), best.tolist()))

    constants = (a0, b0, b1, b2)
    passed = all(math.isfinite(c) and c > 0.0 for c in constants)
    return KernelBoundsReport(
        region=f"n={n}, q={q:.6g}, t in [0, 50], lam0={cfg.lambda0:g}, R={cfg.R:g}",
        a0=a0, b0=b0, b1=b1, b2=b2, passed=passed,
        columns=("item", "t", "s", "r", "ratio"),
        samples=samples,
    )
