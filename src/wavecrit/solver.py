"""Exact-kernel causal solver for the radial wave equation in three
dimensions with a modulus-modulated critical nonlinearity.

The scheme marches the integral form of the problem on a characteristic
lattice with one shared step h in time and radius:

    u(t, r) = v(t, r) + (Lu)(t, r)

where v is the free evolution of the data written through the classical
two-point formula for r * v, and L accumulates the forcing history

    (Lu)(t, r) = (1/r) * integral over s in (0, t) of
                 integral over rho in (t-s-r, t-s+r) of
                 (rho/2) |u(s, rho)|^p mu(|u(s, rho)|) d rho d s

with u extended evenly in rho, so the inner integrand is odd.  Because the
window endpoints t-s±r land exactly on lattice nodes, the inner integral
is a difference of cumulative trapezoid sums Q_k (the prefix of level k,
constant past its last node) and the odd part of any window cancels
identically; the s = t slice vanishes, so the marching is explicit level
by level.  With w_0 = h/2 and w_k = h the outer trapezoid weights,

    W_i(j) = r_j (Lu)(t_i, r_j) = sum over k < i of
             w_k [Q_k(i-k+j) - Q_k(|i-k-j|)].

In index arithmetic every term with k <= i-2 satisfies d'Alembert's
parallelogram identity, so ``march`` advances the lattice recurrence

    W_i(j) = W_{i-1}(j-1) + W_{i-1}(j+1) - W_{i-2}(j)
             + w_{i-1} [Q_{i-1}(j+1) - Q_{i-1}(j-1)]

with W(., 0) = 0 and one ghost node at j = r_nodes, identically 0 because
it lies outside the light cone of the data.  On the axis the 1/r
singularity is replaced by the analytic limits

    v(t, 0)  = u0(t) + t u0'(t) + t u1(t)
    Lu(t, 0) = integral of (t-s) |u(s, t-s)|^p mu(|u(s, t-s)|) d s,

the second accumulated forward: each new level k adds w_k m h g_k(m) to
the axis slot of level k + m.  Off the axis the free part is the
two-point formula of ``_two_point``,

    r v(t, r) = (P(t+r) - P(t-r)) / 2 + Q1(|t+r|) - Q1(|t-r|),

P(x) = x u0(|x|) odd and Q1 the cumulative trapezoid of (rho/2) u1.  On
the lattice its feet h (i ± j) are nodes, so ``march`` reads them from two
tables built once (u0 sampled on h·n, n = 0..t_levels+r_nodes, and the u1
prefix on the radial nodes, clamped at the last one) as one forward and
one reversed slice each; ``linear_field`` feeds the same formula from
callbacks off the lattice.  Each level is written in place into the stored
field from preallocated buffers, so a march costs O(t_levels · r_nodes)
in a fixed number of numpy calls per level.  The slow oracles the
tests hold the recurrence and the free part to live in ``tests/oracles.py``.

Blow-up is detected by a cap on the sup norm: marching stops at the first
level whose max exceeds the cap or goes non-finite.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .exponents import strauss_exponent
from .modulus import ModulusSpec, mu_eval

DEFAULT_CAP = 1e6


@dataclass(frozen=True)
class RadialData:
    """Radial Cauchy data: profiles of |x| with compact support.

    Profiles are callables of the radius; evenness in r is automatic since
    every evaluation goes through |r|.  ``u0_prime`` may be omitted, in
    which case a difference quotient is used: centred, or second-order
    one-sided within one difference step of the axis.  ``amplitude``
    scales both profiles (the small parameter of the global-existence
    runs).
    """

    u0: Callable[[float], float]
    u1: Callable[[float], float]
    support_radius: float
    u0_prime: Optional[Callable[[float], float]] = None
    amplitude: float = 1.0

    def __post_init__(self):
        if self.support_radius <= 0.0:
            raise ValueError("support radius must be positive")
        if self.amplitude < 0.0:
            raise ValueError("amplitude must be non-negative")

    def u0_derivative(self, r: float) -> float:
        if self.u0_prime is not None:
            return self.u0_prime(r)
        h = 1e-6 * max(1.0, self.support_radius)
        if r < h:  # second-order one-sided: a centred quotient would cross the axis
            return (4.0 * self.u0(r + h) - 3.0 * self.u0(r) - self.u0(r + 2.0 * h)) / (
                (r + 2.0 * h) - r)
        return (self.u0(r + h) - self.u0(r - h)) / ((r + h) - (r - h))

    def with_amplitude(self, eps: float) -> "RadialData":
        return replace(self, amplitude=eps)


def default_bump(amplitude: float = 1.0) -> RadialData:
    """C^2 compactly supported test datum (1 - r^2)^3 on |r| <= 1, u1 = 0.

    The cube makes the profile twice continuously differentiable at the
    support edge; a square would not be.
    """

    def u0(r: float) -> float:
        s = 1.0 - r * r
        return s * s * s if abs(r) < 1.0 else 0.0

    def u0p(r: float) -> float:
        s = 1.0 - r * r
        return -6.0 * r * s * s if abs(r) < 1.0 else 0.0

    return RadialData(u0=u0, u1=lambda r: 0.0, support_radius=1.0,
                      u0_prime=u0p, amplitude=amplitude)


def velocity_bump(amplitude: float = 1.0) -> RadialData:
    """Datum with zero displacement and a C^2 velocity bump (for the
    quadrature-bearing branch of the free propagator)."""

    def u1(r: float) -> float:
        s = 1.0 - r * r
        return s * s * s if abs(r) < 1.0 else 0.0

    return RadialData(u0=lambda r: 0.0, u1=u1, support_radius=1.0,
                      u0_prime=lambda r: 0.0, amplitude=amplitude)


@dataclass(frozen=True)
class CharacteristicGrid:
    """Lattice with the same step in t and r.

    ``r_nodes`` must cover the forward light cone of the data support at
    the last stored level: (r_nodes - 1) h >= support + t_levels h.  A grid
    whose stored field, (t_levels + 1) r_nodes doubles, exceeds physical
    memory is refused before anything is allocated.
    """

    h: float
    t_levels: int
    r_nodes: int

    def __post_init__(self):
        if self.h <= 0.0 or self.t_levels < 1 or self.r_nodes < 2:
            raise ValueError("need h > 0, t_levels >= 1, r_nodes >= 2")
        field_bytes = (self.t_levels + 1) * self.r_nodes * 8
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if field_bytes > memory:
            raise ValueError(
                f"grid of {self.t_levels + 1} x {self.r_nodes} levels stores "
                f"{field_bytes} bytes, more than the {memory} bytes of physical memory"
            )

    @classmethod
    def cover(cls, h: float, horizon: float, support_radius: float) -> "CharacteristicGrid":
        t_levels = int(round(horizon / h))
        r_nodes = int(math.ceil((support_radius + t_levels * h) / h)) + 2
        return cls(h=h, t_levels=t_levels, r_nodes=r_nodes)

    @property
    def horizon(self) -> float:
        return self.h * self.t_levels

    def covers(self, support_radius: float) -> bool:
        return (self.r_nodes - 1) * self.h >= support_radius + self.horizon - 1e-9


@dataclass
class SolutionRun:
    """A marched field with its provenance.

    ``field`` holds u(t_i, r_j) for the stored levels; when the run blew
    up storage ends at the detection level.  status is "completed" or
    "blew_up".
    """

    grid: CharacteristicGrid
    data: RadialData
    spec: Optional[ModulusSpec]
    field: np.ndarray
    status: str
    t_detect: Optional[float] = None

    @property
    def times(self) -> np.ndarray:
        return self.grid.h * np.arange(self.field.shape[0])

    @property
    def radii(self) -> np.ndarray:
        return self.grid.h * np.arange(self.grid.r_nodes)

    def level_index(self, t: float) -> int:
        i = int(round(t / self.grid.h))
        if abs(t - i * self.grid.h) > 1e-9 * max(1.0, t) or not 0 <= i < self.field.shape[0]:
            raise ValueError(f"time {t} is not a stored level")
        return i


# --------------------------------------------------------------------------
# free propagator

def _two_point(p_plus, p_minus, q_plus, q_minus, r, out=None) -> np.ndarray:
    """Free solution on radii r > 0 from its values at the feet t +- r:

        v = (P(t+r) - P(t-r)) / (2 r) + (Q1(|t+r|) - Q1(|t-r|)) / r,

    with P(x) = x eps u0(|x|) (odd in x) and Q1 the u1 prefix of
    ``_u1_prefix``.  The one formula of both the lattice, whose feet are
    table slices, and ``_off_lattice``, whose feet are callbacks; written
    into ``out`` when given.
    """
    out = np.subtract(p_plus, p_minus, out=out)
    out *= 0.5
    out /= r
    window = np.subtract(q_plus, q_minus)
    window /= r
    out += window
    return out


def _axis_limit(data: RadialData, t: float, u0_t: float) -> float:
    """v(t, 0) = eps (u0(t) + t u0'(t) + t u1(t)), the limit of the two-point
    formula on the axis; ``u0_t`` is the unscaled u0(t)."""
    return data.amplitude * (u0_t + t * data.u0_derivative(t) + t * data.u1(t))


def _u1_prefix(data: RadialData, rho: np.ndarray):
    """The nodal integrand (rho/2) eps u1 on the increasing nodes ``rho``
    (rho[0] = 0) and its cumulative trapezoid Q1 on them."""
    vals = 0.5 * rho * data.amplitude * np.asarray([data.u1(x) for x in rho])
    step = np.diff(rho)
    pref = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * step)])
    return vals, pref


def _u1_reader(rho: np.ndarray, vals: np.ndarray, pref: np.ndarray):
    """Q1(|x|) off the nodes, constant beyond the last node.

    Between nodes Q1 integrates the linear interpolant of the integrand
    exactly, so the table error stays O(step^2) after the 1/r of the
    two-point formula even for r far below the step; at a node Q1 is the
    trapezoid sum itself.
    """
    half_slope = np.append(0.5 * np.diff(vals) / np.diff(rho), 0.0)
    index = np.arange(len(rho), dtype=float)

    def q1(x):
        x = np.abs(x)
        k = np.interp(x, rho, index).astype(int)  # exact on nodes, last node past the end
        d = np.minimum(x, rho[-1]) - rho[k]
        return pref[k] + d * (vals[k] + half_slope[k] * d)

    return q1


def _off_lattice(data: RadialData):
    """The free solution off the lattice as a function of (t, r): feet
    t +- r through u0 callbacks and a 20001-node u1 table over the support,
    built once for every (t, r) asked of it.  For r < 1e-7 the differences
    of the two-point formula lose about 1e-16/r to cancellation while the
    axis limit is within O(r^2), so the limit is used there.
    """
    rho = np.linspace(0.0, data.support_radius, 20001)
    q1 = _u1_reader(rho, *_u1_prefix(data, rho))
    eps = data.amplitude

    def u0_at(x):
        return np.asarray([data.u0(abs(v)) for v in x], dtype=float)

    def field(t: float, r) -> np.ndarray:
        r_arr = np.abs(np.atleast_1d(np.asarray(r, dtype=float)))
        out = np.empty_like(r_arr)
        on_axis = r_arr < 1e-7
        if np.any(on_axis):
            out[on_axis] = _axis_limit(data, t, data.u0(abs(t)))
        off = ~on_axis
        if np.any(off):
            ro = r_arr[off]
            xp, xm = t + ro, t - ro
            out[off] = _two_point(xp * (eps * u0_at(xp)), xm * (eps * u0_at(xm)),
                                  q1(xp), q1(xm), ro)
        return out

    return field


def linear_field(data: RadialData, t: float, r) -> np.ndarray:
    """Free solution at time t on an array of radii, off the lattice, by
    ``_off_lattice``; the weighted-norm checks use that directly."""
    return _off_lattice(data)(t, r)


# --------------------------------------------------------------------------
# forcing history

def _forcing(spec: Optional[ModulusSpec], p: float, abs_u: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """The forcing |u|^p mu(|u|) from ``abs_u`` = |u|; 0 when ``spec`` is
    None.  Written into ``out`` when given."""
    if out is None:
        out = np.empty_like(abs_u)
    if spec is None:
        out.fill(0.0)
    else:
        np.power(abs_u, p, out=out)
        out *= mu_eval(spec, abs_u)
    return out


def _validate_data(data: RadialData, grid: CharacteristicGrid):
    if grid.h * 16 > data.support_radius:
        raise ValueError(
            f"grid step {grid.h:g} does not resolve the support "
            f"{data.support_radius:g} with 16 nodes"
        )
    if not grid.covers(data.support_radius):
        raise ValueError("grid does not cover the forward light cone of the data")
    if abs(data.u0_derivative(0.0)) > 1e-6:
        raise ValueError("radial C^2 data needs u0'(0) = 0")
    probe = data.support_radius * np.array([1.0 + 1e-9, 1.5, 2.0])
    for x in probe:
        if abs(data.u0(x)) > 0.0 or abs(data.u1(x)) > 0.0:
            raise ValueError(f"data do not vanish beyond the support at r={x:g}")


def march(
    data: RadialData,
    spec: Optional[ModulusSpec],
    grid: CharacteristicGrid,
    cap: float = DEFAULT_CAP,
) -> SolutionRun:
    """Causal characteristic marching of the integral equation.

    ``spec=None`` disables the nonlinearity (linear probe mode).  Levels
    are filled in increasing time; the run stops early with status
    "blew_up" at the first level whose max modulus exceeds ``cap`` or is
    not finite.
    """
    _validate_data(data, grid)
    h = grid.h
    nr = grid.r_nodes
    nt = grid.t_levels
    eps = data.amplitude
    p = strauss_exponent(3)
    r = h * np.arange(nr)
    # every foot h (i +- j) is a lattice node n, |n| < nt + nr, so the free
    # part reads two tables at offset nr - 1 (n = -(nr - 1)..nt + nr - 1):
    # P(hn) = hn eps u0(h|n|), odd in n, and the u1 prefix Q1(h|n|),
    # constant past the last radial node
    u0_table = np.asarray([data.u0(x) for x in h * np.arange(nt + nr + 1)], dtype=float)
    feet = np.arange(-(nr - 1), nt + nr)
    p_table = (h * feet) * (eps * u0_table[np.abs(feet)])
    q_table = _u1_prefix(data, r)[1][np.minimum(np.abs(feet), nr - 1)]

    field = np.empty((nt + 1, nr))
    field[0] = eps * u0_table[:nr]
    status, t_detect = "completed", None

    # rlu and rlu_prev hold W_{i-1} and W_{i-2} (W = r Lu) on nodes 0..nr:
    # node 0 is the axis, where W = 0, and node nr a ghost outside the light
    # cone, where W = 0 too; q is the prefix of the newest level, with the
    # same ghost node holding its last value
    rlu = np.zeros(nr + 1)
    rlu_prev = np.zeros(nr + 1)
    q = np.zeros(nr + 1)
    axis = np.zeros(nt + 1)  # axis[i] = sum over k < i of w_k (i-k) h g_k[i-k]
    half_r = 0.5 * r
    abs_level = np.abs(field[0])
    g = np.empty(nr)
    work = np.empty(nr)
    trap = np.empty(nr - 1)
    for i in range(1, nt + 1):
        t = i * h
        # level i - 1 joins the history with trapezoid weight w_{i-1}
        _forcing(spec, p, abs_level, out=g)
        np.multiply(half_r, g, out=work)
        np.add(work[1:], work[:-1], out=trap)
        trap *= 0.5
        trap *= h
        trap.cumsum(out=q[1:nr])
        q[nr] = q[nr - 1]
        weight = 0.5 * h if i == 1 else h
        m_top = min(nt - (i - 1), nr - 1)
        tail = np.multiply(r[1:m_top + 1], weight, out=work[:m_top])  # w m h
        tail *= g[1:m_top + 1]
        axis[i:i + m_top] += tail

        # W_i overwrites W_{i-2}
        np.add(rlu[:nr - 1], rlu[2:], out=work[1:])
        np.subtract(work[1:], rlu_prev[1:nr], out=rlu_prev[1:nr])
        step = np.subtract(q[2:], q[:nr - 1], out=work[1:])
        step *= weight
        rlu_prev[1:nr] += step
        rlu_prev, rlu = rlu, rlu_prev

        # nodes j = 1..nr-1: feet i + j read forward, feet i - j reversed
        level = field[i]
        base = nr - 1 + i
        _two_point(p_table[base + 1:base + nr], p_table[base - 1:i - 1:-1],
                   q_table[base + 1:base + nr], q_table[base - 1:i - 1:-1], r[1:],
                   out=level[1:])
        level[0] = _axis_limit(data, t, u0_table[i]) + axis[i]
        np.divide(rlu[1:nr], r[1:], out=work[1:])
        level[1:] += work[1:]

        np.abs(level, out=abs_level)  # the cap check and the next forcing
        peak = abs_level.max()
        if not math.isfinite(peak) or peak > cap:
            status = "blew_up"
            t_detect = t
            break

    return SolutionRun(
        grid=grid,
        data=data,
        spec=spec,
        field=field[:i + 1],  # i is the last level filled
        status=status,
        t_detect=t_detect,
    )


@dataclass(frozen=True)
class LifespanRow:
    eps: float
    t_detect: Optional[float]
    status: str


def lifespan_sweep(
    data_template: RadialData,
    spec: ModulusSpec,
    epsilons,
    grid: CharacteristicGrid,
    cap: float = DEFAULT_CAP,
) -> list:
    """One march per amplitude; rows report detection time or completion."""
    rows = []
    for eps in epsilons:
        if eps <= 0.0:
            raise ValueError("amplitudes must be positive")
        try:
            run = march(data_template.with_amplitude(eps), spec, grid, cap=cap)
            rows.append(LifespanRow(float(eps), run.t_detect, run.status))
        except (ValueError, FloatingPointError) as exc:  # aggregate per-run failures
            rows.append(LifespanRow(float(eps), None, f"failed: {exc}"))
    return rows


@dataclass(frozen=True)
class ConvergenceResult:
    order: Optional[float]
    diffs: tuple
    inconclusive: bool


def convergence_study(
    data: RadialData,
    spec: Optional[ModulusSpec],
    h_list,
    t_check: float,
    cap: float = DEFAULT_CAP,
) -> ConvergenceResult:
    """Observed order from successive max-norm differences at a fixed time.

    Requires at least three steps, each half the previous; fields are
    compared on the common (coarsest) radial nodes.
    """
    h_list = list(h_list)
    if len(h_list) < 3:
        raise ValueError("need at least three grid steps")
    for a, b in zip(h_list, h_list[1:]):
        if abs(a / b - 2.0) > 1e-12:
            raise ValueError("each step must be half the previous")
    fields = []
    for h in h_list:
        grid = CharacteristicGrid.cover(h, t_check, data.support_radius)
        run = march(data, spec, grid, cap=cap)
        if run.status != "completed":
            raise ValueError(f"run at h={h} did not complete")
        stride = int(round(h_list[0] / h))
        level = run.field[run.level_index(grid.horizon)]
        fields.append(level[::stride][: int(round((data.support_radius + t_check) / h_list[0])) + 1])
    n_common = min(len(f) for f in fields)
    diffs = tuple(
        float(np.max(np.abs(fields[k][:n_common] - fields[k + 1][:n_common])))
        for k in range(len(fields) - 1)
    )
    if any(d == 0.0 for d in diffs):
        return ConvergenceResult(order=None, diffs=diffs, inconclusive=True)
    if any(d2 >= d1 for d1, d2 in zip(diffs, diffs[1:])):
        return ConvergenceResult(order=None, diffs=diffs, inconclusive=True)
    orders = [math.log2(d1 / d2) for d1, d2 in zip(diffs, diffs[1:])]
    return ConvergenceResult(order=float(np.mean(orders)), diffs=diffs, inconclusive=False)
