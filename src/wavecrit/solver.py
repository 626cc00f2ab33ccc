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
preallocated buffers; the rows a march stores its levels in are
zero-filled, so nothing is written off the band or past the cone.  A march
costs about t_levels (t_levels / 2 + R / h) node updates.

A march writes its levels by the blocks of ``reporting.row_blocks(t_levels
+ 1, r_nodes)``, each at most 16000 doubles.  By default the blocks are
views of the stored field.  A level stream (``march(..., reduce=fn)``)
writes every block into one reused buffer and hands each finished block to
``fn``, so it stores no field: ``weights.decay_profile_check`` reduces each
block to its cone-weighted maxima, which is all ``verify-global`` reads,
and ``convergence_study`` keeps the one level it compares.

A level pays only for what the state changes.  The forcing kernel is
resolved once per march by ``modulus.forcing``, so below tau0 a level's
forcing is its ufuncs alone; the axis weights r h/2 and r h are tables;
and the free part, which no state changes, is computed ahead for a block
of stored levels at once: on the band the foot t + r of node i - c + k is
the table node 2i + k - c and the foot t - r the node c - k on every
level, so ``FreeWave.band`` evaluates the two-point formula's subtract
and divide on strided views of the table, straight into a block's rows,
once per block of levels.  A stored level then pays 6 numpy calls for the
history prefix, 2 for the axis term, 5 for the W recurrence, 2 for u = v +
W/r, 2 for its modulus and max and 6 (PowerLaw) to 8 (LogPower) for the
next forcing, 23 to 25 in all.  The slow oracles the tests hold the
recurrence, the forcing and the free part to live in ``tests/oracles.py``.

Blow-up is detected by a cap on the sup norm: marching stops at the first
level whose max exceeds the cap or goes non-finite.  That max also judges
the next level's forcing by ``modulus.past_tau0``, so a level is reduced
once.  There is one level loop, and a march is a ladder of one rung: the
state has shape (nodes,) + shape(eps), 1-D for ``march``'s amplitude,
which stores its levels by blocks, and (nodes x rungs) for
``lifespan_sweep``'s ladder, which stores none and so reads its free part
level by level.
Only when the max stops the level are the rungs judged one at a time, and
a rung that stops leaves the state, so a ladder pays the fixed cost per
level once, not once per rung: its numpy calls are those of its longest
rung alone.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exponents import strauss_exponent
from .modulus import ModulusSpec, forcing, past_tau0
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
    the last stored level: (r_nodes - 1) h >= support + t_levels h.  A grid
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

    def covers(self, support_radius: float) -> bool:
        return (self.r_nodes - 1) * self.h >= support_radius + self.horizon - 1e-9


def cone_edge(grid: CharacteristicGrid, data: RadialData, i: int) -> int:
    """ceil(R/h) + 1 + i: the last node of level i in the data's cone, one node of margin."""
    return min(math.ceil(data.support_radius / grid.h) + 1 + i, grid.r_nodes - 1)


@dataclass
class SolutionRun:
    """A marched field with its provenance.

    ``field`` holds u(t_i, r_j) for the marched levels; when the run blew
    up it ends at the detection level.  A level stream (``march`` with
    ``reduce``) stores no level: its field has a row per marched level and
    no column, so ``times`` still lists the levels.  status is "completed"
    or "blew_up".
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

def _validate_data(data: RadialData, grid: CharacteristicGrid):
    if grid.h * 16 > data.support_radius:
        raise ValueError(
            f"grid step {grid.h:g} does not resolve the support "
            f"{data.support_radius:g} with 16 nodes"
        )
    if not grid.covers(data.support_radius):
        raise ValueError("grid does not cover the forward light cone of the data")
    # one array probe of every profile: the axis, then three radii beyond the support
    probe = data.support_radius * np.array([0.0, 1.0 + 1e-9, 1.5, 2.0])
    sampled = {}
    for name, profile in (("u0", data.u0), ("u1", data.u1), ("u0_prime", data.u0_prime)):
        try:
            sampled[name] = np.asarray(profile(probe), dtype=float)
        except (TypeError, ValueError) as exc:  # None, or a profile of scalars only
            raise ValueError(f"profile {name} cannot be called on an array of radii: {exc}") from exc
        if sampled[name].shape != probe.shape:
            raise ValueError(f"profile {name} returns shape {sampled[name].shape} for "
                             f"{probe.size} radii, not one value per radius")
    if abs(sampled["u0_prime"][0]) > 1e-6:
        raise ValueError("radial C^2 data needs u0'(0) = 0")
    outside = (np.abs(sampled["u0"][1:]) > 0.0) | (np.abs(sampled["u1"][1:]) > 0.0)
    if np.any(outside):
        raise ValueError(f"data do not vanish beyond the support at r={probe[1:][outside][0]:g}")


def _banded(grid: CharacteristicGrid, reach: int) -> range:
    """The levels whose Huygens band of half-width ``reach`` lies whole in
    the off-axis nodes: a march that stores levels writes their free part
    by blocks."""
    return range(reach + 1, min(grid.t_levels, grid.r_nodes - 1 - reach) + 1)


def _refuse_beyond_memory(grid: CharacteristicGrid, data: RadialData, rungs: int,
                          stored_levels: int) -> None:
    """Refuses, before anything is allocated, a march whose stored levels
    (all of them, or one block of them for a reduced march; none for a
    ladder), the foot table of its ``rungs`` free waves and, when it
    stores levels, the largest block of its free band exceed physical
    memory.  A band block is cut at the edges of a block of levels."""
    nt, nr, reach = grid.t_levels, grid.r_nodes, cone_edge(grid, data, 0)
    first = next(row_blocks(nt + 1, nr))  # no later block of levels is larger
    band = min(first.stop, len(_banded(grid, reach))) * (2 * reach + 1) if stored_levels else 0
    nbytes = 8 * (stored_levels * nr + (nt + 2 * nr - 1) * rungs + band)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > memory:
        raise ValueError(f"a march of {nt + 1} x {nr} levels allocates {nbytes} bytes, "
                         f"more than the {memory} bytes of physical memory")


def _rows(a: np.ndarray, start: int, rows: int, width: int, step: int) -> np.ndarray:
    """The view of the C-contiguous ``a`` whose row b holds its entries
    start + b step .. start + b step + width - 1 along the first axis;
    numpy refuses a view past the end of ``a``."""
    s = a.strides[0]
    return np.ndarray((rows, width) + a.shape[1:], a.dtype, a, start * s, (step * s,) + a.strides)


def _two_point(s_plus, s_minus, r, out=None) -> np.ndarray:
    """(S(t+r) - S(t-r)) / r from the feet's table entries, in the one
    order of operations of every reader."""
    out = np.subtract(s_plus, s_minus, out=out)
    out /= r
    return out


class FreeWave:
    """The free wave v of ``data`` on the lattice of ``grid``, built once;
    data ``march`` refuses are refused.

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
    wave.
    """

    def __init__(self, data: RadialData, grid: CharacteristicGrid, eps=None):
        _validate_data(data, grid)
        h, nt, nr = grid.h, grid.t_levels, grid.r_nodes
        self._eps = eps = data.amplitude if eps is None else eps

        def col(x):  # a value per node, against a table with one column per rung
            return x[:, None] if np.ndim(eps) else x

        self.grid = grid
        self.u0 = data.u0(h * np.arange(nt + nr + 1))
        t = h * np.arange(nt + 1)
        self.axis = np.multiply.outer(data.u0(t) + t * data.u0_prime(t) + t * data.u1(t), eps)
        feet = np.arange(-(nr - 1), nt + nr)
        self.r = h * np.arange(nr)
        self._r = col(self.r)
        vals = np.multiply.outer(0.5 * self.r, eps) * col(data.u1(self.r))
        q1 = np.zeros_like(vals)
        np.cumsum(0.5 * (vals[1:] + vals[:-1]) * col(np.diff(self.r)), axis=0, out=q1[1:])
        self._s = col(0.5 * h * feet) * np.multiply.outer(self.u0[np.abs(feet)], eps)
        self._s += q1[np.minimum(np.abs(feet), nr - 1)]

    def _keep(self, keep: np.ndarray) -> None:
        """Keeps the waves of a ladder's rungs ``keep`` only, in the tables' own memory."""
        self._eps = self._eps[keep]
        self._s, self.axis = _columns(self._s, keep), _columns(self.axis, keep)

    def level(self, i: int, lo: int, stop: int, step: int = 1, out=None) -> np.ndarray:
        """v(t_i, r_j) on the nodes j = lo, lo + step, ... < stop off the axis,
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
        plus = slice(nr - 1 + i + lo, nr - 1 + i + stop, step)
        end = nr - 1 + i - stop  # the foot of node stop, -1 at the table's start
        minus = slice(nr - 1 + i - lo, end if end >= 0 else None, -step)
        return _two_point(self._s[plus], self._s[minus], self._r[lo:stop:step], out)

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
        return _two_point(_rows(self._s, plus, rows, width, 2), self._s[minus][::-1],
                          _rows(self._r, i0 - reach, rows, width, 1), out)


def march(
    data: RadialData,
    spec: Optional[ModulusSpec],
    grid: CharacteristicGrid,
    cap: float = DEFAULT_CAP,
    reduce: Optional[Callable[[int, np.ndarray], None]] = None,
) -> SolutionRun:
    """Causal characteristic marching of the integral equation: a ladder of
    one rung, the data's amplitude, whose levels are stored.

    ``spec=None`` disables the nonlinearity (linear probe mode).  Levels
    are filled in increasing time; the run stops early with status
    "blew_up" at the first level whose max modulus exceeds ``cap`` or is
    not finite; ``cap = inf`` stops on a non-finite level only.  A forcing
    argument ``modulus.past_tau0`` refuses is raised, and so is a grid
    whose stored levels, foot table and band block exceed physical memory.

    With ``reduce`` the march is a level stream and stores no field: each
    block of levels of ``reporting.row_blocks(t_levels + 1, r_nodes)`` is
    written into one reused buffer and handed, the last block cut at the
    stop, to ``reduce(i0, rows)``, where rows[k] is level i0 + k and is
    overwritten by the next block.  The run's field then has its levels
    but no columns.
    """
    if not cap > 0.0:
        raise ValueError(f"cap must be positive, got {cap}")
    nt, nr = grid.t_levels, grid.r_nodes
    stored = nt + 1 if reduce is None else next(row_blocks(nt + 1, nr)).stop
    _refuse_beyond_memory(grid, data, 1, stored)
    free = FreeWave(data, grid)
    field = np.zeros((stored, nr))  # +0.0 off the band and past the cone
    if reduce is None:
        rows = field.__getitem__
    else:
        def rows(b):  # the buffer's rows for the levels of b, zero-filled
            block = field[:b.stop - b.start]
            block.fill(0.0)
            return block
    status, last = _march_levels(free, spec, data, cap, rows, reduce).get(0, ("completed", nt))
    if isinstance(status, ValueError):
        raise status
    return SolutionRun(
        grid=grid,
        data=data,
        spec=spec,
        field=field[:last + 1] if reduce is None else np.zeros((last + 1, 0)),  # levels 0..last
        status=status,
        t_detect=last * grid.h if status == "blew_up" else None,
    )


def _march_levels(free, spec, data, cap, rows=None, done=None) -> dict:
    """Levels 0..t_levels of the march of every rung of ``free``: the
    package's one level update.

    The state holds a value per node and rung, shape (nodes,) + the shape
    of the wave's amplitude: 1-D for ``march``'s scalar.  With ``rows`` the
    levels are written by the blocks b of ``reporting.row_blocks(t_levels +
    1, r_nodes)``: ``rows(b)`` hands out the zero-filled rows of b's levels,
    the free band of those levels is written there first, and level i goes
    to row i - b.start; ``done(b.start, block)``, when given, receives each
    finished block, the last one cut at the stop.  Without ``rows`` level i
    is written to the reused |level| buffer, so no field is stored.
    Returns {rung: (status, level)} for the rungs that stopped, each
    leaving the state: ("blew_up", i) at the first level
    i >= 1 whose max modulus exceeds ``cap`` or is not finite, and (the
    ValueError, None) for a rung whose next forcing ``past_tau0`` refuses.
    """
    grid = free.grid
    h, nt, nr = grid.h, grid.t_levels, grid.r_nodes
    force = None if spec is None else forcing(spec, strauss_exponent(3))  # resolved once
    r = free._r  # the radial nodes, a column against a ladder's state
    reach = cone_edge(grid, data, 0)  # half-width of the Huygens band, in nodes
    rungs = np.shape(free._eps)  # () for one amplitude, (rungs,) for a ladder
    ids = np.arange(np.size(free._eps))  # the rungs still marching
    limit = min(cap, sys.float_info.max)  # peak <= limit is False past the cap, at inf and at nan
    stops = {}

    # rlu and rlu_prev hold W_{i-1} and W_{i-2} (W = r Lu) on nodes 0..nr; W = 0 on the axis
    # (node 0) and past the cone edge, where nothing is written (node nr is a ghost); q is the
    # prefix of the newest level, read up to one node past the edge, where it is constant.
    # Every state array is indexed by node first, so x[a:b] is nodes a..b-1 of every rung
    rlu = np.zeros((nr + 1,) + rungs)
    rlu_prev = np.zeros((nr + 1,) + rungs)
    q = np.zeros((nr + 1,) + rungs)
    axis = np.zeros((nt + 1,) + rungs)  # axis[i] = sum over k < i of w_k (i-k) h g_k[i-k]
    half_r = 0.5 * r
    axis_weights = (r * (0.5 * h), r * h)  # w_k m h on node m: w_0 = h/2, then h
    abs_level = np.empty((nr,) + rungs)  # |u| on level i, the cap check and the next forcing
    banded = _banded(grid, reach) if rows is not None else range(0)
    width = 2 * reach + 1

    def take(b):  # the rows of the block of levels b, with the free band of its banded levels
        block = rows(b)
        lo, hi = max(b.start, banded.start), min(b.stop, banded.stop)
        if lo < hi:
            free.band(lo, hi, reach, out=_rows(block.reshape(-1), (lo - b.start) * nr + lo - reach,
                                               hi - lo, width, nr + 1))
        return block, b.start, b.stop

    blocks = row_blocks(nt + 1, nr)
    block, i0, i1 = take(next(blocks)) if rows is not None else (None, 0, nt + 1)
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
                tr *= 0.5
                tr *= h
                np.add.accumulate(tr, axis=0, out=q[1:n])  # cumsum, without its wrapper
                q[n] = q[e]
                weight = 0.5 * h if i == 1 else h
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
                    if done is not None:
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

            # one reduction judges the cap and the next level's forcing; only when it stops
            # a rung are the rungs judged one at a time, and the stopped ones leave the state
            reads = abs_level[:n]  # |u| on the nodes the next level reads
            peak = reads.max()
            forced = force is not None and i < nt  # the last level is never forced
            stopped = i > 0 and not peak <= limit
            if forced and not stopped:
                try:
                    force(reads, g[:n], peak)
                except ValueError:
                    stopped = True
            if stopped:
                peaks = np.atleast_1d(abs_level[:n].max(axis=0))
                for rung, top in zip(ids.tolist(), peaks.tolist()):
                    if i > 0 and not top <= limit:
                        stops[rung] = ("blew_up", i)
                    elif forced:
                        try:
                            past_tau0(spec, top)
                        except ValueError as exc:
                            stops[rung] = (exc, None)
                keep = np.flatnonzero([rung not in stops for rung in ids.tolist()])
                if not keep.size:
                    break
                ids = ids[keep]
                rlu, rlu_prev, q, axis, abs_level, g, work, trap = (
                    _columns(a, keep) for a in (rlu, rlu_prev, q, axis, abs_level, g, work, trap))
                free._keep(keep)
                if forced:
                    force(abs_level[:n], g[:n], peaks[keep].max())
    if done is not None:
        done(i0, block[:i + 1 - i0])
    return stops


def _columns(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The columns ``keep`` of the C-contiguous 2-D ``a``, moved to the front
    of its memory as one C-contiguous array: a ladder sheds a stopped rung
    without a second copy of its state."""
    kept = a.take(keep, axis=1)
    out = a.reshape(-1)[:kept.size].reshape(kept.shape)
    out[...] = kept
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
    shares (amplitudes, cap, data, a grid whose foot table exceeds physical
    memory) are raised before the first level; a rung whose forcing
    argument ``modulus.past_tau0`` refuses (a modulus argument past tau0)
    becomes that rung's "failed: ..." row, and the other rungs go on.
    Every row is the one a march of its amplitude alone gives.
    """
    epsilons = list(epsilons)
    if not (cap > 0.0 and all(0.0 < eps < math.inf for eps in epsilons)):
        raise ValueError("lifespans need positive finite amplitudes and a positive cap")
    _refuse_beyond_memory(grid, data_template, len(epsilons), 0)
    free = FreeWave(data_template, grid, np.array(epsilons, dtype=float))  # checks the data once
    stops = _march_levels(free, spec, data_template, cap) if epsilons else {}
    rows = []
    for j, eps in enumerate(epsilons):
        status, level = stops.get(j, ("completed", None))
        if isinstance(status, ValueError):
            status = f"failed: {status}"
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
    if abs(round(t_check / h_list[0]) * h_list[0] - t_check) > 1e-9 * max(1.0, t_check):
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
