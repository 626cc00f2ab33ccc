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

the first from the exact u0' that ``RadialData`` requires, the second
accumulated forward: each new level k adds w_k m h g_k(m) to the axis slot
of level k + m.  Off the axis the free part is the two-point formula

    r v(t, r) = (P(t+r) - P(t-r)) / 2 + Q1(|t+r|) - Q1(|t-r|)
              = S(t+r) - S(t-r),

P(x) = x u0(|x|) odd, Q1 the cumulative trapezoid of (rho/2) u1 and
S(x) = P(x)/2 + Q1(|x|).  On the lattice its feet h (i ± j) are nodes, so
``FreeWave`` reads them from one table of S built once per (data, grid),
the feet i + j as forward slices and i - j as backward ones: ``march``
reads every node of the Huygens band below, ``weights.linear_decay_check``
every m-th.  For data supported in
r <= R, with c = ceil(R/h) + 1, u is exactly 0 past the cone edge
e_i = c + i (``cone_edge``) and v off the Huygens band |i - j| <= c, so
level i computes nodes 0..e_i and v on the band only, in place from
preallocated buffers; the rows a march writes its levels in are
zero-filled, so nothing is written off the band or past the cone.  A march
costs about t_levels (t_levels / 2 + R / h) node updates.

A march is a level stream that stores no field: it writes its levels by
the blocks of ``reporting.row_blocks(t_levels + 1, r_nodes)``, at most 16000
doubles each, into one reused buffer and hands each finished block to its
``reduce``, if any.  ``weights.decay_profile_check`` keeps their cone-weighted
maxima, ``convergence_study`` one level, the identity residual their
forcing terms, ``solve`` the nodes its files read.

A level pays only for what the state changes.  The forcing kernel is
resolved once per march by ``modulus.forcing``, so below tau0 a level's
forcing is its ufuncs alone; the axis weights r h/2 and r h are tables;
and the free part, which no state changes, is computed ahead for a block
of levels at once: on the band the foot t + r of node i - c + k is
the table node 2i + k - c and the foot t - r the node c - k on every
level, so ``FreeWave.band`` evaluates the two-point formula's subtract
and divide on strided views of the table, straight into a block's rows,
once per block of levels.  A level then pays 5 numpy calls for the
history prefix, 2 for the axis term, 5 for the W recurrence, 2 for u = v +
W/r, 2 for its modulus and max and 6 (PowerLaw) to 8 (LogPower) for the
next forcing, 22 to 24 in all; once its max passes tau0, LogPower's bridge
adds 13 more below a max of 3 and 20 from 3 on.  The slow oracles the
tests hold the recurrence, the forcing and the free part to live in
``tests/oracles.py``.

Blow-up is detected by a cap on the sup norm: marching stops at the first
level whose max exceeds the cap or goes non-finite.  The one stop rule
also compares the max of a level still to be forced with the ceiling of
``modulus.admissible`` (tau0 for a family with no continuation past it),
so a level is reduced once and forced once.  There is one level loop,
and a march is a ladder of one rung: the state has shape (nodes,) +
shape(eps), 1-D for ``march``'s amplitude, which writes its levels by
blocks for a reducer, and (nodes x rungs) for a ladder, which writes none
and so reads its free part level by level.  Only when the max stops the
level are the rungs judged one at a time, and a rung that stops leaves the
state, so a ladder pays the fixed cost per level once, not once per rung:
its numpy calls are those of its longest rung alone.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exponents import strauss_exponent
from .modulus import ModulusSpec, forcing
from .reporting import row_blocks

DEFAULT_CAP = 1e6


@dataclass(frozen=True)
class RadialData:
    """Radial Cauchy data: profiles of |x| with compact support.

    Each profile maps an array of radii to an array of the same shape (a
    scalar radius works too), so a consumer samples a whole grid in one
    call; profiles are called on radii >= 0 only, so evenness is automatic.
    ``u0_prime`` is the exact derivative of ``u0``, which the axis limit of
    the free wave and the data norms read.  ``amplitude`` scales both
    profiles (the small parameter of the global-existence runs).
    """

    u0: Callable[[np.ndarray], np.ndarray]
    u1: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    u0_prime: Callable[[np.ndarray], np.ndarray]
    amplitude: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.support_radius < math.inf:  # refuses nan too
            raise ValueError(f"support radius must be positive and finite, got {self.support_radius}")
        if not 0.0 <= self.amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and non-negative, got {self.amplitude}")


def _bump(r):
    """(1 - r^2)^3 on |r| < 1, 0 beyond."""
    s = 1.0 - r * r
    return np.where(np.abs(r) < 1.0, s * s * s, 0.0)


def default_bump(amplitude: float = 1.0) -> RadialData:
    """C^2 compactly supported test datum (1 - r^2)^3 on |r| <= 1, u1 = 0.

    The cube makes the profile twice continuously differentiable at the
    support edge; a square would not be.
    """

    def u0p(r):
        s = 1.0 - r * r
        return np.where(np.abs(r) < 1.0, -6.0 * r * s * s, 0.0)

    return RadialData(u0=_bump, u1=np.zeros_like, support_radius=1.0,
                      u0_prime=u0p, amplitude=amplitude)


def velocity_bump(amplitude: float = 1.0) -> RadialData:
    """Datum with zero displacement and a C^2 velocity bump (for the
    quadrature-bearing branch of the free propagator)."""
    return RadialData(u0=np.zeros_like, u1=_bump, support_radius=1.0,
                      u0_prime=np.zeros_like, amplitude=amplitude)


@dataclass(frozen=True)
class CharacteristicGrid:
    """Lattice with the same step in t and r.

    ``r_nodes`` must cover the forward light cone of the data support at
    the last level: (r_nodes - 1) h >= support + t_levels h.  A grid
    stores nothing: what a march on it allocates is judged by the march.
    """

    h: float
    t_levels: int
    r_nodes: int

    def __post_init__(self):
        if not 0.0 < self.h < math.inf or self.t_levels < 1 or self.r_nodes < 2:
            raise ValueError("need h > 0, t_levels >= 1, r_nodes >= 2")

    @classmethod
    def cover(cls, h: float, horizon: float, support_radius: float) -> "CharacteristicGrid":
        for name, value in (("h", h), ("horizon", horizon)):
            if not 0.0 < value < math.inf:  # refuses nan too
                raise ValueError(f"{name} must be positive and finite, got {name}={value}")
        if horizon / h == math.inf:
            raise ValueError(f"horizon={horizon:g} / h={h:g} overflows: a grid needs "
                             f"a finite number of levels")
        t_levels = int(round(horizon / h))
        if t_levels < 1:
            raise ValueError(f"horizon={horizon:g} rounds to no level at h={h:g}: "
                             f"a grid needs a horizon above h/2")
        r_nodes = int(math.ceil((support_radius + t_levels * h) / h)) + 2
        return cls(h=h, t_levels=t_levels, r_nodes=r_nodes)

    @property
    def horizon(self) -> float:
        return self.h * self.t_levels


def cone_edge(grid: CharacteristicGrid, data: RadialData, i: int) -> int:
    """ceil(R/h) + 1 + i: the last node of level i in the data's cone, one node of margin."""
    return min(math.ceil(data.support_radius / grid.h) + 1 + i, grid.r_nodes - 1)


@dataclass
class SolutionRun:
    """A march's outcome with its provenance.

    A march stores no level: ``field`` has a row per marched level and no
    column, so ``times`` lists the levels, up to the detection level when
    the run blew up.  status is "completed" or "blew_up".
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


# --------------------------------------------------------------------------
# free propagator

def refuse_beyond_memory(grid: CharacteristicGrid, rungs: int, kept: Optional[int]) -> None:
    """Refuses, before anything is allocated, a run of ``rungs`` waves on
    ``grid`` whose working set exceeds physical memory: a march, which keeps
    ``kept`` doubles per level, or a ladder (``kept`` None).  The count adds
    the shapes ``FreeWave`` and ``_march_levels`` allocate, so it bounds
    what a run holds at once from the grid alone."""
    nt, nr = grid.t_levels, grid.r_nodes
    feet = nt + 2 * nr  # the feet h (i +- j) of the lattice's nodes: a foot table's rows
    # per rung: the foot table, the axis limit and history, the level state (3 of nr + 1 nodes,
    # 4 of nr) and the forcing's scratch (up to 8 levels, or the rows that shed a rung);
    # per run: the feet, their scaled copy and the u0 samples a table is built from, 4 radial tables
    doubles = rungs * (feet + 2 * (nt + 1) + 3 * (nr + 1) + 12 * nr) + 3 * feet + 4 * nr
    if kept is not None:  # a march: its block of levels and up to 4 blocks of free-band buffers
        doubles += 5 * next(row_blocks(nt + 1, nr)).stop * nr + (nt + 1) * kept
    refuse_bytes(8 * doubles, f"a march of {nt + 1} x {nr} levels")


def refuse_bytes(nbytes: int, what: str) -> None:
    """Refuses ``what``, which allocates ``nbytes``, when that exceeds physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > memory:
        raise ValueError(f"{what} allocates {nbytes} bytes, more than the {memory} bytes of "
                         f"physical memory")


def strided_rows(a: np.ndarray, start: int, rows: int, width: int, step: int) -> np.ndarray:
    """The view of the C-contiguous ``a`` whose row b holds its entries
    start + b step .. start + b step + width - 1 along the first axis, a
    negative step included; numpy refuses a view outside ``a``."""
    s = a.strides[0]
    return np.ndarray((rows, width) + a.shape[1:], a.dtype, a, start * s, (step * s,) + a.strides)


def _two_point(s_plus, s_minus, r, out=None) -> np.ndarray:
    """(S(t+r) - S(t-r)) / r from the feet's table entries, in the one
    order of operations of every reader."""
    out = np.subtract(s_plus, s_minus, out=out)
    out /= r
    return out


class FreeWave:
    """The free wave v of ``data`` on the lattice of ``grid``, built once.
    It calls each profile once, on the nodes it reads followed by three
    probe radii past the support, and every check of the data and grid
    reads those samples; a non-finite node sample is refused by name and radius,
    and an amplitude that takes the table past the largest float by its value.

    Every foot h (i +- j) of a lattice node is a node n = -(r_nodes -
    1)..t_levels + r_nodes - 1, so v is read from one table at offset
    r_nodes - 1: S(hn) = P(hn) / 2 + Q1(h|n|), with P(hn) = hn eps u0(h|n|),
    odd in n, and the u1 prefix Q1, the cumulative trapezoid of (rho/2) eps
    u1 on the radial nodes, constant past the last one.  The feet i + j of
    a level's nodes are a forward slice of the table, the feet i - j a
    backward one, so it is not copied; ``level`` reads the nodes of one
    level, ``band`` the Huygens bands of a block of levels.  ``u0`` holds
    the u0 samples on h n, n = 0..t_levels + r_nodes, ``r`` the radial
    nodes and ``axis`` the limit v(t_i, 0) = eps (u0(t) + t u0'(t) + t
    u1(t)) on every level.  ``eps`` is the data's amplitude, or a lifespan
    ladder's vector of amplitudes: then the table and ``axis`` gain a
    trailing rung axis, each rung's entries bit for bit those of its own
    wave.  Q1's terms are 0 where u1 is, even where 0.5 r eps overflows.
    """

    def __init__(self, data: RadialData, grid: CharacteristicGrid, eps=None):
        h, nt, nr, radius = grid.h, grid.t_levels, grid.r_nodes, data.support_radius
        if h * 16 > radius:
            raise ValueError(f"grid step {h:g} does not resolve the support {radius:g} with 16 nodes")
        if (nr - 1) * h < radius + grid.horizon - 1e-9:
            raise ValueError("grid does not cover the forward light cone of the data")
        probe = radius * np.array([1.0 + 1e-9, 1.5, 2.0])  # three radii beyond the support
        samples = []  # u0 on the nodes of the feet, u1 on the radial nodes, u0' on the levels
        for name, n in (("u0", nt + nr + 1), ("u1", nr), ("u0_prime", nt + 1)):
            radii = np.concatenate((h * np.arange(n), probe))
            try:
                samples.append(np.asarray(getattr(data, name)(radii), dtype=float))
            except (TypeError, ValueError) as exc:  # None, or a profile of scalars only
                raise ValueError(f"profile {name} cannot be called on an array of radii: {exc}") from exc
            if samples[-1].shape != radii.shape:
                raise ValueError(f"profile {name} returns shape {samples[-1].shape} for "
                                 f"{radii.size} radii, not one value per radius")
        u0, u1, du0 = samples
        if abs(du0[0]) > 1e-6:
            raise ValueError("radial C^2 data needs u0'(0) = 0")
        outside = (np.abs(u0[-3:]) > 0.0) | (np.abs(u1[-3:]) > 0.0)
        if np.any(outside):
            raise ValueError(f"data do not vanish beyond the support at r={probe[outside][0]:g}")
        u0, u1, du0 = u0[:-3], u1[:-3], du0[:-3]
        for name, values in (("u0", u0), ("u0_prime", du0), ("u1", u1)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(f"profile {name} is not finite at r={h * bad[0]:g}")

        self._eps = eps = data.amplitude if eps is None else eps

        def col(x):  # a value per node, against a table with one column per rung
            return x[:, None] if np.ndim(eps) else x

        self.grid, self.u0, self.r = grid, u0, h * np.arange(nr)
        t = self.r[:nt + 1]  # the levels t_i = i h, also nodes: u0 and u1 read there too
        feet = np.arange(-(nr - 1), nt + nr)
        self._r = col(self.r)
        with np.errstate(over="ignore", invalid="ignore"):  # past the float range: refused below
            self.axis = np.multiply.outer(u0[:nt + 1] + t * du0 + t * u1[:nt + 1], eps)
            vals = np.where(col(u1) == 0.0, 0.0, np.multiply.outer(0.5 * self.r, eps) * col(u1))
            q1 = np.zeros_like(vals)
            np.cumsum(0.5 * (vals[1:] + vals[:-1]) * col(np.diff(self.r)), axis=0, out=q1[1:])
            self._s = np.multiply.outer(self.u0[np.abs(feet)], eps)
            self._s *= col(0.5 * h * feet)
            self._s[:nr - 1] += q1[:0:-1]  # the feet -(nr - 1)..-1
            self._s[nr - 1:2 * nr - 1] += q1
            self._s[2 * nr - 1:] += q1[-1]  # past the last node Q1 is constant
        finite = np.isfinite(self._s).all(axis=0) & np.isfinite(self.axis).all(axis=0)
        if not np.all(finite):
            bad = np.atleast_1d(eps)[~np.atleast_1d(finite)]
            raise ValueError(f"amplitude {bad[0]:g} takes the free wave's table past the largest float")

    def level(self, i: int, lo: int, stop: int, out=None) -> np.ndarray:
        """v(t_i, r_j) on the nodes j = lo..stop - 1 off the axis,
        by the two-point formula

            v = (S(t+r) - S(t-r)) / r,

        the one free-wave formula of the package, for every rung of a ladder.
        Written into ``out`` when given; a level or node range off the grid
        is refused.
        """
        nt, nr = self.grid.t_levels, self.grid.r_nodes
        if not (0 <= i <= nt and 1 <= lo and stop <= nr):
            raise ValueError(f"free wave on nodes {lo}..{stop - 1} of level {i}: the grid "
                             f"has levels 0..{nt} and off-axis nodes 1..{nr - 1}")
        plus = slice(nr - 1 + i + lo, nr - 1 + i + stop)
        end = nr - 1 + i - stop  # the foot of node stop, -1 at the table's start
        minus = slice(nr - 1 + i - lo, end if end >= 0 else None, -1)
        return _two_point(self._s[plus], self._s[minus], self._r[lo:stop], out)

    def band(self, i0: int, i1: int, reach: int, out=None) -> np.ndarray:
        """v on the Huygens bands of the levels i0..i1 - 1 at once: row i - i0,
        column k holds v(t_i, r_j) at j = i - reach + k, k = 0..2 reach, by
        ``level``'s formula and operations, so bit for bit ``level``'s
        values.  The foot i + j = 2i - reach + k is a view of the table
        whose rows step by 2, the foot i - j = reach - k one window shared
        by every level.  Written into ``out`` when given; a band that
        leaves the off-axis nodes is refused.
        """
        nt, nr = self.grid.t_levels, self.grid.r_nodes
        if not reach < i0 < i1 <= min(nt + 1, nr - reach):
            raise ValueError(f"free band of half-width {reach} on levels {i0}..{i1 - 1}: "
                             f"the grid has levels 0..{nt} and off-axis nodes 1..{nr - 1}")
        rows, width, plus = i1 - i0, 2 * reach + 1, nr - 1 - reach + 2 * i0
        minus = slice(nr - 1 - reach, nr + reach)
        return _two_point(strided_rows(self._s, plus, rows, width, 2), self._s[minus][::-1],
                          strided_rows(self._r, i0 - reach, rows, width, 1), out)


def march_free_wave(data: RadialData, grid: CharacteristicGrid, cap: float) -> FreeWave:
    """The free wave ``march`` starts from, built past its refusals in their
    order: a cap that is not positive, a march whose working set on the grid
    exceeds physical memory, then ``FreeWave``'s checks of the data and grid."""
    if not cap > 0.0:
        raise ValueError(f"cap must be positive, got {cap}")
    refuse_beyond_memory(grid, 1, 0)
    return FreeWave(data, grid)


def march(
    data: RadialData,
    spec: Optional[ModulusSpec],
    grid: CharacteristicGrid,
    cap: float = DEFAULT_CAP,
    reduce: Optional[Callable[[int, np.ndarray], None]] = None,
) -> SolutionRun:
    """Causal characteristic marching of the integral equation: a ladder of
    one rung, the data's amplitude, marched as a level stream.

    ``spec=None`` disables the nonlinearity (linear probe mode).  Levels
    are filled in increasing time; the run stops early with status
    "blew_up" at the first level whose max modulus exceeds ``cap`` or is
    not finite; ``cap = inf`` stops on a non-finite level only.  A level
    to be forced past the ``modulus.admissible`` ceiling raises its reason,
    and so does a grid on which its working set exceeds physical memory.

    No field is stored: each block of levels of ``reporting.row_blocks(
    t_levels + 1, r_nodes)`` is written into one reused buffer and handed,
    the last block cut at the stop, to ``reduce(i0, rows)`` when given;
    rows[k] is level i0 + k until the next block overwrites it.  Without
    ``reduce`` no block is held: the levels and stop are a ladder's of one rung.
    """
    free = march_free_wave(data, grid, cap)
    status, last = _march_levels(free, spec, data, cap, reduce).get(0, ("completed", grid.t_levels))
    if last is None:
        raise ValueError(status.removeprefix("failed: "))
    return SolutionRun(
        grid=grid,
        data=data,
        spec=spec,
        field=np.zeros((last + 1, 0)),  # levels 0..last
        status=status,
        t_detect=last * grid.h if status == "blew_up" else None,
    )


def _march_levels(free, spec, data, cap, done=None) -> dict:
    """Levels 0..t_levels of the march of every rung of ``free``: the
    package's one level update.

    The state holds a value per node and rung, shape (nodes,) + the shape
    of the wave's amplitude: 1-D for ``march``'s scalar.  With ``done`` the
    levels are written by the blocks b of ``reporting.row_blocks(t_levels +
    1, r_nodes)`` into the zero-filled rows of one reused buffer, the free
    band first, and ``done(b.start, rows)`` receives each finished block,
    the last one cut at the stop; without, to the reused |level| buffer.
    Returns {rung: (status, level)} for the rungs that stopped, each
    leaving the state: ("blew_up", i) at the first level i >= 1 whose max
    modulus exceeds ``cap`` or is not finite, else ("failed: " + reason,
    None) at the first level to be forced past the ``admissible`` ceiling.
    """
    grid = free.grid
    h, nt, nr = grid.h, grid.t_levels, grid.r_nodes
    force, ceiling, reason = None, math.inf, None  # linear mode: no forcing, no ceiling
    if spec is not None:
        force, ceiling, reason = forcing(spec, strauss_exponent(3))  # resolved once
    r = free._r  # the radial nodes, a column against a ladder's state
    reach = cone_edge(grid, data, 0)  # half-width of the Huygens band, in nodes
    rungs = np.shape(free._eps)  # () for one amplitude, (rungs,) for a ladder
    ids = np.arange(np.size(free._eps))  # the rungs still marching
    limit = min(cap, sys.float_info.max)  # peak <= limit is False past the cap, at inf and at nan
    stops = {}

    def stop(i, top):  # a rung's stop at level i, where its |u| peaks at top; None marches on
        if i > 0 and not top <= limit:
            return "blew_up", i
        if i < nt and top > ceiling:
            return f"failed: {reason}", None
        return None

    # rlu and rlu_prev hold W_{i-1} and W_{i-2} (W = r Lu) on nodes 0..nr; W = 0 on the axis
    # (node 0) and past the cone edge, where nothing is written (node nr is a ghost); q is the
    # prefix of the newest level, read up to one node past the edge, where it is constant.
    # Every state array is indexed by node first, so x[a:b] is nodes a..b-1 of every rung
    rlu = np.zeros((nr + 1,) + rungs)
    rlu_prev = np.zeros((nr + 1,) + rungs)
    q = np.zeros((nr + 1,) + rungs)
    axis = np.zeros((nt + 1,) + rungs)  # axis[i] = sum over k < i of w_k (i-k) h g_k[i-k]
    half_r, half_h = 0.5 * r, 0.5 * h
    axis_weights = (r * half_h, r * h)  # w_k m h on node m: w_0 = h/2, then h
    abs_level = np.empty((nr,) + rungs)  # |u| on level i, the cap check and the next forcing
    width = 2 * reach + 1

    def take(b):  # the zero-filled rows of the levels of block b, with their free band
        block = buffer[:b.stop - b.start]
        block.fill(0.0)
        lo, hi = max(b.start, banded.start), min(b.stop, banded.stop)
        if lo < hi:
            start = (lo - b.start) * nr + lo - reach
            free.band(lo, hi, reach, out=strided_rows(block.reshape(-1), start, hi - lo, width, nr + 1))
        return block, b.start, b.stop

    banded, block, i0, i1 = range(0), None, 0, nt + 1  # a ladder writes no block
    if done is not None:
        # the levels whose band lies whole in the off-axis nodes take their free part by blocks
        banded, blocks = range(reach + 1, min(nt, nr - 1 - reach) + 1), row_blocks(nt + 1, nr)
        first = next(blocks)  # no later block of levels is larger
        buffer = np.empty((first.stop, nr))
        block, i0, i1 = take(first)
    level = np.multiply.outer(free.u0[:nr], free._eps, out=abs_level if block is None else block[0])
    np.abs(level, out=abs_level)
    g = np.zeros((nr,) + rungs)  # the forcing; it stays 0 in linear mode
    work = np.empty((nr,) + rungs)
    trap = np.empty((nr - 1,) + rungs)
    n = min(reach + 2, nr)  # the nodes of level 1 (cone_edge + 1): those level 0 forces
    # the forcing takes log 0; |u| past ~4.8e127 overflows |u|^p, and that non-finite
    # level is the stop "blew_up"
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(nt + 1):
            if i:
                e = n - 1  # nodes 0..e of level i; u = 0 past e
                # level i - 1 joins the history with trapezoid weight w_{i-1}
                np.multiply(half_r[:n], g[:n], out=work[:n])
                tr = np.add(work[1:n], work[:e], out=trap[:e])
                tr *= half_h
                np.add.accumulate(tr, axis=0, out=q[1:n])  # cumsum, without its wrapper
                q[n] = q[e]
                weight = half_h if i == 1 else h
                m_top = min(nt - (i - 1), e)
                tail = np.multiply(axis_weights[i > 1][1:m_top + 1], g[1:m_top + 1], out=work[:m_top])
                axis[i:i + m_top] += tail

                # W_i overwrites W_{i-2}
                w = np.add(rlu[:e], rlu[2:n + 1], out=work[1:n])
                new = rlu_prev[1:n]
                np.subtract(w, new, out=new)
                step = np.subtract(q[2:n + 1], q[:e], out=w)
                step *= weight
                new += step
                rlu_prev, rlu = rlu, rlu_prev

                # v on the Huygens band, nodes lo..e, then u = v + W/r
                if i == i1:  # the block of levels is finished
                    done(i0, block)
                    block, i0, i1 = take(next(blocks))
                level = abs_level if block is None else block[i - i0]
                if i not in banded:
                    lo = max(1, i - reach)
                    level[1:lo] = 0.0  # v = 0 off the band; the ladder's buffer holds |u|
                    free.level(i, lo, n, out=level[lo:n])
                level[0] = free.axis[i] + axis[i]
                level[1:n] += np.divide(rlu[1:n], r[1:n], out=w)
                np.abs(level[:n], out=abs_level[:n])
                n = min(reach + i + 2, nr)  # the nodes of level i + 1; |u| = 0 on node e + 1

            # one reduction judges the stop rule; only when it stops a rung are the rungs
            # judged one at a time, and the stopped ones leave the state before the forcing
            peak = abs_level[:n].max()  # |u| on the nodes the next level reads
            if stop(i, peak):
                peaks = np.atleast_1d(abs_level[:n].max(axis=0))
                for rung, top in zip(ids.tolist(), peaks.tolist()):
                    if why := stop(i, top):
                        stops[rung] = why
                keep = np.flatnonzero([rung not in stops for rung in ids.tolist()])
                if not keep.size:
                    break
                ids, free._eps = ids[keep], free._eps[keep]  # the stopped rungs leave every table
                rlu, rlu_prev, q, axis, abs_level, g, work, trap, free._s, free.axis = (
                    _columns(a, keep)
                    for a in (rlu, rlu_prev, q, axis, abs_level, g, work, trap, free._s, free.axis))
                peak = peaks[keep].max()
            if force is not None and i < nt:  # the last level is never forced
                force(abs_level[:n], g[:n], peak)
    if done is not None:
        done(i0, block[:i + 1 - i0])
    return stops


def _columns(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The columns ``keep`` of the C-contiguous 2-D ``a``, moved to the front
    of its memory as one C-contiguous array 256 rows at a time, each landing
    before the rows still to move: a ladder sheds a stopped rung without a
    copy of its state or foot table."""
    out = a.reshape(-1)[:len(a) * keep.size].reshape(len(a), keep.size)
    for i in range(0, len(a), 256):
        out[i:i + 256] = a[i:i + 256, keep]
    return out


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
    """One row per amplitude: its detection time, or completion.

    The rungs march as the columns of one (nodes x rungs) state, through
    ``march``'s level loop, and no field is stored.  Errors every rung
    shares (amplitudes, cap, data, a grid on which its working set exceeds
    physical memory) are raised before the first level; a rung that stops
    at the ``modulus.admissible`` ceiling (a modulus argument past tau0)
    becomes that rung's "failed: ..." row, and the other rungs go on.
    Every row is the one a march of its amplitude alone gives.
    """
    epsilons = list(epsilons)
    if not (cap > 0.0 and all(0.0 < eps < math.inf for eps in epsilons)):
        raise ValueError("lifespans need positive finite amplitudes and a positive cap")
    refuse_beyond_memory(grid, len(epsilons), None)
    free = FreeWave(data_template, grid, np.array(epsilons, dtype=float))  # checks the data once
    stops = _march_levels(free, spec, data_template, cap) if epsilons else {}
    rows = []
    for j, eps in enumerate(epsilons):
        status, level = stops.get(j, ("completed", None))
        rows.append(LifespanRow(float(eps), None if level is None else level * grid.h, status))
    return rows


@dataclass(frozen=True)
class ConvergenceResult:
    order: Optional[float]  # None when a difference is 0 or fails to shrink
    diffs: tuple


def convergence_study(
    data: RadialData,
    spec: Optional[ModulusSpec],
    h_list,
    t_check: float,
) -> ConvergenceResult:
    """Observed order from successive max-norm differences at a fixed time.

    Requires at least three steps, each half the previous, and a ``t_check``
    that is a level of the coarsest grid, so of every grid; fields are
    compared on the common (coarsest) radial nodes.  Each grid marches as a
    level stream that keeps only its level at ``t_check``, its horizon.
    """
    h_list = list(h_list)
    if len(h_list) < 3:
        raise ValueError("need at least three grid steps")
    for a, b in zip(h_list, h_list[1:]):
        if abs(a / b - 2.0) > 1e-12:
            raise ValueError("each step must be half the previous")
    ratio = t_check / h_list[0]  # the coarsest grid's levels up to t_check
    if not 0.0 < ratio < math.inf:  # refuses nan too, before it is rounded
        raise ValueError(f"t_check={t_check:g} / h={h_list[0]:g} is not a positive finite "
                         f"number of levels")
    levels = round(ratio)
    if levels < 1 or abs(levels * h_list[0] - t_check) > 1e-9 * max(1.0, t_check):
        raise ValueError(f"t_check={t_check:g} is not a level of the coarsest grid, "
                         f"h={h_list[0]:g}")
    fields = []
    for h in h_list:
        grid = CharacteristicGrid.cover(h, t_check, data.support_radius)
        level = np.empty(grid.r_nodes)  # the newest level streamed: t_check, once completed
        run = march(data, spec, grid, reduce=lambda i0, rows, level=level: np.copyto(level, rows[-1]))
        if run.status != "completed":
            raise ValueError(f"run at h={h} did not complete")
        stride = int(round(h_list[0] / h))
        fields.append(level[::stride][: int(round((data.support_radius + t_check) / h_list[0])) + 1])
    n_common = min(len(f) for f in fields)
    diffs = tuple(
        float(np.max(np.abs(fields[k][:n_common] - fields[k + 1][:n_common])))
        for k in range(len(fields) - 1)
    )
    if any(d == 0.0 for d in diffs) or any(d2 >= d1 for d1, d2 in zip(diffs, diffs[1:])):
        return ConvergenceResult(order=None, diffs=diffs)
    orders = [math.log2(d1 / d2) for d1, d2 in zip(diffs, diffs[1:])]
    return ConvergenceResult(order=float(np.mean(orders)), diffs=diffs)
