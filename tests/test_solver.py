import ast
import collections
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavecrit
from wavecrit.modulus import (
    DoubleLogGlobal,
    IteratedLogBlowup,
    LogOnePlus,
    LogPower,
    PowerLaw,
    TripleLogGlobal,
    admissible,
    forcing,
    make_spec,
    mu_eval,
    mu_power,
)
from wavecrit.solver import (
    _columns,
    CharacteristicGrid,
    FreeWave,
    LifespanRow,
    RadialData,
    refuse_beyond_memory,
    convergence_study,
    default_bump,
    lifespan_sweep,
    march,
    velocity_bump,
)
from wavecrit.exponents import strauss_exponent

from oracles import (
    duhamel_apply,
    free_wave_two_tables,
    linear_propagator,
    march_field,
    mixed_bump,
    mol_level,
    mu_direct,
)

P3 = strauss_exponent(3)


def zero_data():
    return RadialData(u0=np.zeros_like, u1=np.zeros_like,
                      support_radius=1.0, u0_prime=np.zeros_like)


def bump_profile(r):
    s = 1.0 - r * r
    return np.where(np.abs(r) < 1.0, s**3, 0.0)


# ------------------------------------------------------------- propagator

def test_propagator_zero_data():
    data = zero_data()
    for t, r in [(0.0, 0.0), (1.0, 0.5), (3.0, 2.0)]:
        assert linear_propagator(data, t, r) == 0.0


def test_propagator_initial_time_recovers_profile():
    data = default_bump(1.0)
    for r in (0.0, 0.3, 0.9, 1.5):
        assert abs(linear_propagator(data, 0.0, r) - bump_profile(r)) < 1e-14


def test_propagator_closed_form_point():
    # two-point formula evaluated by hand at (t, r) = (0.75, 0.5)
    data = default_bump(1.0)
    t, r = 0.75, 0.5
    expected = ((t + r) * bump_profile(t + r) - (t - r) * bump_profile(t - r)) / (2 * r)
    assert abs(linear_propagator(data, t, r) - expected) < 1e-14
    # and at (2, 0.5), where both characteristics have left the support
    assert linear_propagator(data, 2.0, 0.5) == 0.0


def test_propagator_even_in_radius():
    data = velocity_bump(1.0)
    for t, r in [(0.5, 0.25), (1.2, 0.8), (2.0, 1.9)]:
        assert linear_propagator(data, t, r) == linear_propagator(data, t, -r)


def test_propagator_axis_limit_continuous():
    data = velocity_bump(1.0)
    axis = linear_propagator(data, 0.7, 0.0)
    near = linear_propagator(data, 0.7, 1e-7)
    assert abs(axis - near) < 1e-5


def test_propagator_lattice_vs_adaptive():
    data = velocity_bump(1.0)
    grid = CharacteristicGrid.cover(0.0125, 1.5, 1.0)
    _, field = march_field(data, None, grid)
    for t, r in [(0.5, 0.25), (1.5, 0.75)]:
        lattice = field[int(round(t / grid.h)), int(round(r / grid.h))]
        adaptive = linear_propagator(data, t, r)
        assert abs(lattice - adaptive) < 1e-3


def test_free_wave_refuses_nodes_off_the_grid():
    # a read past the grid would be a silently shorter slice: it is refused
    data, grid = velocity_bump(1.0), CharacteristicGrid.cover(1 / 16, 2.0, 1.0)
    free = FreeWave(data, grid)
    nt, nr = grid.t_levels, grid.r_nodes
    _, linear = march_field(data, None, grid)
    for i in (0, nt // 2, nt):
        assert np.array_equal(free.level(i, 1, nr), linear[i, 1:])
    for i, lo, stop in [(0, 1, nr + 1), (nt, 0, nr), (nt + 1, 1, nr), (-1, 1, 5)]:
        with pytest.raises(ValueError, match="free wave on nodes"):
            free.level(i, lo, stop)


@pytest.mark.parametrize("eps", [None, np.array([0.5, 2.0, 1.0])], ids=["wave", "ladder"])
@pytest.mark.parametrize("datum", [default_bump, velocity_bump, mixed_bump])
def test_free_band_is_the_level_reads_bit_for_bit(datum, eps):
    # a block of bands reads the feet through strided views; every entry is
    # the one ``level`` gives, sign bits included
    grid = CharacteristicGrid.cover(0.05, 4.0, 1.0)
    free = FreeWave(datum(1.0), grid, eps)
    nt, nr, reach = grid.t_levels, grid.r_nodes, 21
    i0, i1 = reach + 1, min(nt + 1, nr - reach)
    band = free.band(i0, i1, reach)
    assert band.shape == (i1 - i0, 2 * reach + 1) + np.shape(eps)
    for i in range(i0, i1):
        level = free.level(i, i - reach, i + reach + 1)
        assert level.tobytes() == band[i - i0].tobytes()
    for a, b in [(reach, i1), (i0, nt + 2), (i0, i0), (i0, nr - reach + 1)]:
        with pytest.raises(ValueError, match="free band of half-width"):
            free.band(a, b, reach)


@pytest.mark.parametrize("eps", [None, np.array([0.5, 2.0, 1.0])], ids=["wave", "ladder"])
@pytest.mark.parametrize("datum", [default_bump, velocity_bump, mixed_bump])
def test_free_wave_is_the_two_table_formula(datum, eps):
    # one table of S = P/2 + Q1 gives the free part of P and Q1 read from two tables:
    # bit for bit when one profile is 0, to rounding when both are not
    grid = CharacteristicGrid.cover(1 / 16, 12.5, 1.0)
    data = datum(0.8)
    free = FreeWave(data, grid, eps)
    reference = free_wave_two_tables(data, grid, eps)
    for i, ref in enumerate(reference):
        level = free.level(i, 1, grid.r_nodes)
        if datum is mixed_bump:
            assert np.all(np.abs(level - ref) <= 1e-14 * np.max(np.abs(ref), axis=0))
        else:
            assert level.tobytes() == ref.tobytes()


# differential: the lattice path against the adaptive-quadrature oracle at
# drawn points; bounds fixed from measurements
feet = dict(t=st.floats(0.0, 6.0), r=st.floats(0.0, 8.0))


@pytest.fixture(scope="module")
def velocity_probes():
    # linear probe runs covering t <= 6 and r <= 8 for each step
    runs = {}
    for h in (0.05, 0.025):
        grid = CharacteristicGrid(h=h, t_levels=int(round(6.0 / h)),
                                  r_nodes=int(round(8.0 / h)) + 1)
        runs[h] = march_field(velocity_bump(1.0), None, grid)[1]
    return runs


@settings(max_examples=60, deadline=None)
@given(h=st.sampled_from([0.05, 0.025]), **feet)
def test_march_linear_probe_matches_oracle(velocity_probes, h, t, r):
    field = velocity_probes[h]
    i, j = int(round(t / h)), int(round(r / h))
    oracle = linear_propagator(velocity_bump(1.0), i * h, j * h)
    assert abs(field[i, j] - oracle) <= 0.5 * h * h


def test_lattice_free_part_matches_propagator_oracle():
    # u1 = 0: the two-point formula from the march's foot tables against the
    # oracle's u0 samples at the feet, at every node, axis included
    data = default_bump(0.7)
    run, field = march_field(data, None, CharacteristicGrid.cover(0.05, 4.0, 1.0))
    oracle = np.array([[linear_propagator(data, t, r) for r in run.radii] for t in run.times])
    assert np.max(np.abs(field - oracle)) <= 1e-13 * np.max(np.abs(field))
    assert np.array_equal(field[:, 0], oracle[:, 0])


def test_profiles_on_an_array_equal_the_scalar_calls():
    # one sampling call per grid must give the per-point values bit for bit
    radii = np.concatenate([np.linspace(0.0, 1.5, 301), [1e-7, 5e-7, 1.0 - 1e-12, 1.0]])
    for profile in (default_bump().u0, default_bump().u1, default_bump().u0_prime,
                    velocity_bump().u0, velocity_bump().u1, velocity_bump().u0_prime):
        sampled = profile(radii)
        assert sampled.shape == radii.shape
        pointwise = np.array([float(profile(float(x))) for x in radii])
        assert sampled.tobytes() == pointwise.tobytes()


def test_march_refuses_a_profile_without_one_value_per_radius():
    grid = CharacteristicGrid.cover(0.05, 1.0, 1.0)
    base = default_bump(0.5)

    def scalar_only(r):
        return 0.0 if abs(r) >= 1.0 else 1.0 - r * r

    for name, profile in (("u0", lambda r: 0.0), ("u1", lambda r: 0.0),
                          ("u0_prime", lambda r: np.zeros(3)), ("u0", scalar_only)):
        with pytest.raises(ValueError, match=f"profile {name} "):
            march(replace(base, **{name: profile}), None, grid)


def test_data_without_an_exact_derivative_are_refused():
    with pytest.raises(TypeError, match="u0_prime"):
        RadialData(u0=np.zeros_like, u1=np.zeros_like, support_radius=1.0)
    with pytest.raises(ValueError, match="u0_prime"):
        march(replace(default_bump(), u0_prime=None), None, CharacteristicGrid.cover(0.05, 1.0, 1.0))


# ------------------------------------------------------------------ duhamel

def flat_field(c, h=0.05, levels=40, radius=50.0):
    """(field, grid, spec) of the constant field c for ``duhamel_apply``."""
    grid = CharacteristicGrid(h=h, t_levels=levels, r_nodes=int(radius / h) + 3)
    return np.full((levels + 1, grid.r_nodes), c), grid, make_spec(PowerLaw(1.0))


def test_duhamel_zero_field():
    assert duhamel_apply(*flat_field(0.0), 30, 1.0) == 0.0


def test_duhamel_constant_field_closed_form():
    # inner integral of (rho/2) c^{p+1} over the window is c^{p+1} (t-s) r,
    # so Lu = c^{p+1} t^2 / 2, exactly reproduced by the lattice trapezoid
    c = 0.8
    field, grid, spec = flat_field(c)
    for level, r in [(40, 1.0), (40, 0.05), (20, 3.7), (30, 0.0)]:
        t = level * grid.h
        expected = c ** (P3 + 1.0) * t * t / 2.0
        assert abs(duhamel_apply(field, grid, spec, level, r) - expected) < 1e-12 * expected


def test_duhamel_odd_window_cancels():
    # for t <= r the symmetric part of the window integrates to zero
    run, field = march_field(default_bump(0.5), make_spec(PowerLaw(1.0)),
                             CharacteristicGrid.cover(0.05, 3.0, 1.0))
    h = run.grid.h
    k, i, j = 10, 40, 50  # s-level, t-level, r-node with r > t
    level = field[k]
    g = np.abs(level) ** P3 * mu_eval(run.spec, np.abs(level))
    hvals = 0.5 * run.radii * g
    m = j - (i - k)  # half-width of the symmetric window in nodes
    assert m > 0
    window = np.concatenate([-hvals[1:m][::-1], hvals[:m]])
    integral = np.trapezoid(window, dx=h)
    scale = np.trapezoid(np.abs(window), dx=h) + 1e-30
    assert abs(integral) <= 1e-12 * scale


def test_duhamel_rejects_off_lattice_radius():
    with pytest.raises(ValueError):
        duhamel_apply(*flat_field(0.5), 10, 0.51234)


# -------------------------------------------------------------------- march

def test_march_zero_amplitude_is_zero():
    run, field = march_field(default_bump(0.0), make_spec(PowerLaw(1.0)),
                             CharacteristicGrid.cover(0.05, 3.0, 1.0))
    assert run.status == "completed"
    assert np.max(np.abs(field)) == 0.0


def test_march_level_zero_is_sampled_data():
    run, field = march_field(default_bump(0.7), make_spec(PowerLaw(1.0)),
                             CharacteristicGrid.cover(0.05, 1.0, 1.0))
    expected = 0.7 * np.asarray([run.data.u0(r) for r in run.radii])
    assert np.array_equal(field[0], expected)


def test_march_linear_probe_matches_propagator():
    data = default_bump(0.7)
    grid = CharacteristicGrid.cover(0.05, 3.0, 1.0)
    _, field = march_field(data, None, grid)
    for i in (0, 17, 40, 60):
        t = i * grid.h
        for j in (0, 3, 19, 44):
            r = j * grid.h
            assert abs(field[i, j] - linear_propagator(data, t, r)) < 1e-12


# every family, and the linear mode; the iterated-log families take data
# below their tau0, which they have no continuation past
CONE_SPECS = {"linear": None, **{name: make_spec(family) for name, family in {
    "powerlaw": PowerLaw(1.0), "log1p": LogOnePlus(1.0), "logpower": LogPower(0.2, 10.0),
    "iterlog": IteratedLogBlowup(1.0), "doublelog": DoubleLogGlobal(-1.0),
    "triplelog": TripleLogGlobal(-0.5)}.items()}}
ITERATED = ("iterlog", "doublelog", "triplelog")


def guarded_bytes(monkeypatch, grid, rungs, kept):
    """The bytes the memory guard counts for a run, read from its refusal at 1 byte of memory."""
    with monkeypatch.context() as patched:
        patched.setattr(os, "sysconf", lambda name: 1)
        with pytest.raises(ValueError, match="more than the 1 bytes") as refusal:
            refuse_beyond_memory(grid, rungs, kept)
    return int(re.search(r"allocates (\d+) bytes", str(refusal.value))[1])


def test_memory_guard_bounds_the_traced_peak_of_every_run(monkeypatch, traced_peak):
    # the guard's count of a run lies between its traced peak and twice that peak + 1 MB
    # (the peaks are 0.53 to 0.89 of the counts here).  On the smallest grid a march with a
    # reducer, one keeping the columns solve keeps and a ladder of 12 rungs go to the horizon,
    # so the forcing's scratch grows to whole levels, and a ladder of 12 rungs sheds its rungs
    # one stop at a time; on every grid ladders of 1, 12 and, on two grids, 200 rungs blow up,
    # or are refused past tau0, at their first levels
    smallest = CharacteristicGrid.cover(0.005, 2.0, 1.0)
    nr = smallest.r_nodes
    nodes = np.concatenate([np.arange(0, nr, nr // 200), np.arange(0, nr, nr // 120)])

    def holds(grid, rungs, kept, call):
        _, peak = traced_peak(call)
        count = guarded_bytes(monkeypatch, grid, rungs, kept)
        assert peak <= count <= 2 * peak + 2 ** 20, (grid, rungs, kept, peak, count)

    def keep_columns(data, spec):  # solve's march: its reducer keeps a few columns per level
        kept = np.empty((smallest.t_levels + 1, nodes.size))
        return march(data, spec, smallest,
                     reduce=lambda i0, rows: rows.take(nodes, axis=1, out=kept[i0:i0 + len(rows)]))

    for name in sorted(set(CONE_SPECS) - {"linear"}):
        spec = CONE_SPECS[name]
        ceiling = admissible(spec)[0]
        small = min(0.5, 0.5 * ceiling)  # marches to the horizon
        large = 8.0 if ceiling == math.inf else 4.0 * ceiling  # stops at once
        holds(smallest, 1, 0, lambda: march(default_bump(small), spec, smallest,
                                            reduce=lambda i0, rows: None))
        holds(smallest, 1, nodes.size, lambda: keep_columns(default_bump(small), spec))
        holds(smallest, 12, None, lambda: lifespan_sweep(
            default_bump(1.0), spec, np.geomspace(0.1, 1.0, 12) * small, smallest))
        holds(smallest, 12, None, lambda: lifespan_sweep(
            default_bump(1.0), spec, np.geomspace(small, 4.0 * large, 12), smallest))
        for h, horizon in ((1 / 16, 50.0), (0.01, 20.0), (0.05, 100.0), (0.005, 2.0)):
            grid = CharacteristicGrid.cover(h, horizon, 1.0)
            for rungs in (1, 12, 200) if h in (1 / 16, 0.005) else (1, 12):
                holds(grid, rungs, None, lambda: lifespan_sweep(
                    default_bump(1.0), spec, np.geomspace(1.0, 4.0, rungs) * large, grid))


# differential: the diamond recurrence of march against the history re-sum
# of duhamel_apply on the run's own field, for every family and both data
# shapes; bounds fixed from measurements
@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(set(CONE_SPECS) - {"linear"})), velocity=st.booleans(),
       scale=st.floats(0.01, 6.0), h=st.sampled_from([1 / 16, 1 / 20, 1 / 32]),
       horizon=st.floats(0.5, 4.0))
def test_march_matches_history_oracle(name, velocity, scale, h, horizon):
    spec = CONE_SPECS[name]
    eps = 0.01 * scale * spec.tau0 if name in ITERATED else scale
    data = (velocity_bump if velocity else default_bump)(eps)
    grid = CharacteristicGrid.cover(h, horizon, 1.0)
    cap = 1e6
    run, field = march_field(data, spec, grid, cap=cap)
    _, free = march_field(data, None, grid)
    status, t_detect = "completed", None
    for i in range(1, field.shape[0]):
        oracle = free[i] + duhamel_apply(field, grid, spec, i, run.radii)
        peak = np.max(np.abs(field[i]))
        if run.status == "completed":
            assert np.max(np.abs(field[i] - oracle)) <= 1e-13 * np.max(np.abs(field))
        elif peak <= 10.0:
            assert np.max(np.abs(field[i] - oracle)) <= 1e-12 * peak
        oracle_peak = np.max(np.abs(oracle))
        if not np.isfinite(oracle_peak) or oracle_peak > cap:
            status, t_detect = "blew_up", i * h
            break
    assert (status, t_detect) == (run.status, run.t_detect)


def test_march_samples_u0_once_per_lattice_node():
    calls = []
    base = default_bump(0.5)

    def u0(r):
        calls.append(r)
        return base.u0(r)

    grid = CharacteristicGrid.cover(0.05, 3.0, 1.0)
    march(replace(base, u0=u0), make_spec(PowerLaw(1.0)), grid)
    assert len(calls) <= grid.t_levels + grid.r_nodes + 8


def test_march_stores_no_field(traced_peak):
    # the march holds its state and its foot table, and with no reducer no block of
    # levels: it peaks at 0.08 MB here (0.23 MB with one), where its field would take 1.34 MB
    grid = CharacteristicGrid.cover(1 / 16, 25.0, 1.0)
    run, peak = traced_peak(lambda: march(default_bump(0.01), make_spec(PowerLaw(1.0)), grid))
    assert run.status == "completed" and run.field.nbytes == 0
    assert peak <= 0.25 * 8 * (grid.t_levels + 1) * grid.r_nodes


def test_march_small_data_completes():
    run, field = march_field(default_bump(0.05), make_spec(PowerLaw(1.0)),
                             CharacteristicGrid.cover(0.05, 10.0, 1.0))
    assert run.status == "completed"
    assert np.max(np.abs(field)) < 1.0


def test_march_blows_up_for_large_data():
    spec = make_spec(LogPower(0.2, 10.0))
    run = march(default_bump(5.0), spec,
                CharacteristicGrid.cover(0.02, 15.0, 1.0), cap=1e6)
    assert run.status == "blew_up"
    assert run.t_detect is not None and run.t_detect < 15.0
    # detection at level boundary: t_detect is an integer multiple of h
    assert abs(run.t_detect / run.grid.h - round(run.t_detect / run.grid.h)) < 1e-9
    # the levels end at the detection level
    assert run.field.shape[0] == round(run.t_detect / run.grid.h) + 1


@pytest.mark.parametrize("h, horizon, name", [
    (math.nan, 10.0, "h"), (math.inf, 10.0, "h"), (0.05, math.nan, "horizon"),
    (0.05, math.inf, "horizon"), (0.05, -1.0, "horizon"),
])
def test_grid_cover_refuses_a_bad_step_or_horizon(h, horizon, name):
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        CharacteristicGrid.cover(h, horizon, 1.0)


@pytest.mark.parametrize("horizon", [0.001, 0.025])
def test_grid_cover_refuses_a_horizon_of_no_level(horizon):
    # a horizon up to h/2 rounds to no level; the refusal names both inputs
    with pytest.raises(ValueError, match=f"^horizon={horizon:g} rounds to no level at h=0.05"):
        CharacteristicGrid.cover(0.05, horizon, 1.0)
    assert CharacteristicGrid.cover(0.05, 0.0251, 1.0).t_levels == 1


def test_grid_cover_refuses_levels_that_overflow():
    # horizon / h = inf was "cannot convert float infinity to integer"
    with pytest.raises(ValueError, match=r"^horizon=1e\+300 / h=1e-300 overflows"):
        CharacteristicGrid.cover(1e-300, 1e300, 1.0)


def test_grid_beyond_memory_rejected_before_allocation():
    grid = CharacteristicGrid.cover(1e-6, 1e6, 1.0)
    with pytest.raises(ValueError, match="bytes"):
        march(default_bump(0.01), make_spec(PowerLaw(1.0)), grid)
    with pytest.raises(ValueError, match="bytes"):
        lifespan_sweep(default_bump(1.0), make_spec(PowerLaw(1.0)), [0.01, 0.1], grid)


def test_ladder_stores_no_field_so_its_grid_may_exceed_memory():
    # the field of this grid alone would take 320 GB; a ladder stores only its
    # foot tables, and its rows are those of a grid that ends past the blow-ups
    spec = make_spec(LogPower(0.2, 10.0))
    grid = CharacteristicGrid.cover(0.01, 2000.0, 1.0)
    assert 8 * (grid.t_levels + 1) * grid.r_nodes > 3e11
    rows = lifespan_sweep(default_bump(1.0), spec, [2.0, 5.0], grid)
    assert [row.status for row in rows] == ["blew_up", "blew_up"]
    assert rows == lifespan_sweep(default_bump(1.0), spec, [2.0, 5.0],
                                  CharacteristicGrid.cover(0.01, 10.0, 1.0))


def test_ladder_sheds_a_stopped_rung_in_its_own_memory(traced_peak):
    # the kept columns move to the front of the table 256 rows at a time, bit for bit
    # numpy's take: a block of 8 KB is held, not a copy of the kept columns (64 KB)
    table = np.random.default_rng(1).standard_normal((2003, 12))
    keep = np.array([0, 2, 3, 11])
    want = table.take(keep, axis=1)
    kept, peak = traced_peak(lambda: _columns(table, keep))
    assert np.shares_memory(kept, table) and kept.tobytes() == want.tobytes()
    assert peak < 2 * 8 * 256 * keep.size


def test_march_validates_grid_resolution():
    with pytest.raises(ValueError):
        march(default_bump(1.0), None, CharacteristicGrid.cover(0.2, 2.0, 1.0))


def test_march_validates_cone_cover():
    grid = CharacteristicGrid(h=0.05, t_levels=100, r_nodes=50)
    with pytest.raises(ValueError):
        march(default_bump(1.0), None, grid)


@pytest.mark.parametrize("amplitude", [float("nan"), float("inf"), -1.0])
def test_radial_data_refuses_a_nonfinite_or_negative_amplitude(amplitude):
    with pytest.raises(ValueError, match="amplitude"):
        default_bump(amplitude)


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), 0.0, -1.0])
def test_radial_data_refuses_a_nonfinite_or_nonpositive_support_radius(radius):
    # a nan radius used to reach the march's memory guard and fail in math.ceil,
    # an inf one with an OverflowError
    with pytest.raises(ValueError, match=f"support radius must be positive and finite, got {radius}"):
        replace(default_bump(1.0), support_radius=radius)


@pytest.mark.parametrize("cap", [0.0, -1.0, float("nan")])
def test_march_refuses_a_cap_that_is_not_positive(cap):
    # every such cap used to stop the march at its first level
    with pytest.raises(ValueError, match="cap"):
        march(default_bump(1.0), make_spec(PowerLaw(1.0)),
              CharacteristicGrid.cover(0.05, 1.0, 1.0), cap=cap)


@pytest.mark.filterwarnings("error")
def test_free_wave_refuses_an_amplitude_past_the_float_range():
    # a table past the largest float is refused by its amplitude, without a RuntimeWarning,
    # and a ladder refuses its rung before the first level, as it does a nan.  The table
    # of u1 = 0 is finite at any amplitude, though 0.5 r eps overflows in the u1 prefix:
    # default_bump(1.7e308) blows up at its first level
    grid = CharacteristicGrid.cover(0.0625, 3.0, 1.0)
    bump = default_bump(1e10)
    huge = replace(bump, u0=lambda r: 1e300 * bump.u0(r), u0_prime=lambda r: 1e300 * bump.u0_prime(r))
    with pytest.raises(ValueError, match=r"^amplitude 1e\+10 takes the free wave's table past"):
        march(huge, make_spec(PowerLaw(1.0)), grid)
    with pytest.raises(ValueError, match=r"^amplitude 1e\+10 takes the free wave's table past"):
        lifespan_sweep(replace(huge, amplitude=1.0), make_spec(DoubleLogGlobal(-1.0)), [2.0, 1e10], grid)
    run = march(default_bump(1.7e308), make_spec(PowerLaw(1.0)), grid)
    assert (run.status, run.t_detect, run.field.shape[0]) == ("blew_up", 0.0625, 2)


def test_march_validates_support():
    bad = RadialData(u0=np.ones_like, u1=np.zeros_like,
                     support_radius=1.0, u0_prime=np.zeros_like)
    with pytest.raises(ValueError, match="do not vanish"):
        march(bad, None, CharacteristicGrid.cover(0.05, 1.0, 1.0))


def test_march_refuses_data_that_do_not_vanish_before_a_nonfinite_node():
    # one sample of each profile serves both checks: the probe radius 1.5 R is
    # judged before the NaN nodes of (0.3, 0.4)
    base = default_bump(1.0)
    bad = replace(base, u0=lambda r: np.where(np.abs(r - 1.5) < 0.01, 1.0,
                                              np.where((0.3 < r) & (r < 0.4), np.nan, base.u0(r))))
    with pytest.raises(ValueError, match="^data do not vanish beyond the support at r=1.5$"):
        march(bad, None, CharacteristicGrid.cover(0.05, 1.0, 1.0))


def counted_profiles(data):
    """``data`` with each profile wrapped to count its calls, and the counter."""
    calls = collections.Counter()

    def counted(name):
        profile = getattr(data, name)

        def call(r):
            calls[name] += 1
            return profile(r)

        return call

    return replace(data, **{name: counted(name) for name in ("u0", "u1", "u0_prime")}), calls


def test_a_march_and_a_ladder_call_each_profile_once():
    # the data probe and the axis limit read the free wave's own samples: a march
    # called the profiles 8 times, twice on the probe radii and levels alone
    spec = make_spec(PowerLaw(1.0))
    grid = CharacteristicGrid.cover(0.05, 2.0, 1.0)
    data, calls = counted_profiles(default_bump(0.1))
    assert march(data, spec, grid).status == "completed"
    assert calls == {"u0": 1, "u1": 1, "u0_prime": 1}
    calls.clear()
    lifespan_sweep(data, spec, [0.1, 1.0, 10.0], grid)
    assert calls == {"u0": 1, "u1": 1, "u0_prime": 1}


@pytest.mark.parametrize("spec", [None, make_spec(PowerLaw(1.0))], ids=["linear", "powerlaw"])
@pytest.mark.parametrize("name", ["u0", "u1", "u0_prime"])
def test_march_refuses_nonfinite_data_by_profile_and_radius(spec, name):
    # NaN on (0.3, 0.4) passes the probe of four radii: linear data marched to
    # "blew_up" at t = h, and PowerLaw's forcing refused a NaN argument of mu
    data = default_bump(1.0)
    profile = getattr(data, name)
    holed = replace(data, **{name: lambda r: np.where((0.3 < r) & (r < 0.4), np.nan, profile(r))})
    grid = CharacteristicGrid.cover(0.05, 1.0, 1.0)
    refused = f"^profile {name} is not finite at r=0.3$"  # node 6, 0.30000000000000004
    with pytest.raises(ValueError, match=refused):
        march(holed, spec, grid)
    if spec is not None:
        with pytest.raises(ValueError, match=refused):
            lifespan_sweep(holed, spec, [1.0, 2.0], grid)


# ------------------------------------------------ method-of-lines oracle

def _mol_distances(data, spec, t, dr, hs):
    """The oracle's level at t, and the max-norm distance to it of the march's last
    level on each lattice step h, at the lattice nodes (h a multiple of dr)."""
    oracle = mol_level(data, spec, t, dr)
    distances = []
    for h in hs:
        last = march_field(data, spec, CharacteristicGrid.cover(h, t, data.support_radius))[1][-1]
        on_lattice = oracle[::int(round(h / dr))]
        k = min(last.size, on_lattice.size)  # both are 0 past the cone
        distances.append(float(np.max(np.abs(last[:k] - on_lattice[:k]))))
    return oracle, distances


def test_march_converges_at_second_order_to_the_method_of_lines():
    # PowerLaw(1), eps = 1, t = 2: 2.03e-5, 5.15e-6 and 1.29e-6 at h = 1/16, 1/32, 1/64;
    # the oracle at dr = 1/512 is within 1.2e-7 of dr = 1/1024. The nonlinear part u - v
    # (1.8e-3) is about 1400 times the h = 1/64 distance, so the forcing is being judged
    data, spec, hs = default_bump(1.0), make_spec(PowerLaw(1.0)), [1 / 16, 1 / 32, 1 / 64]
    oracle, d = _mol_distances(data, spec, 2.0, 1 / 512, hs)
    assert all(3.6 <= d[k] / d[k + 1] <= 4.4 for k in range(2)), d
    free = march_field(data, None, CharacteristicGrid.cover(hs[-1], 2.0, 1.0))[1][-1]
    k = min(free.size, oracle[::8].size)
    assert np.max(np.abs(oracle[::8][:k] - free[:k])) > 100.0 * d[-1]


def test_march_of_a_blow_up_run_converges_to_the_method_of_lines():
    # LogPower(0.2, 10), eps = 2 (lifespan 0.968), t = 0.5: 0.40, 0.12 and 0.031 at
    # h = 1/16, 1/32, 1/64, largest on or next to the axis; the oracle at dr = 1/256 is
    # within 1.1e-6 of dr = 1/1024
    data, spec = default_bump(2.0), make_spec(LogPower(0.2, 10.0))
    d = _mol_distances(data, spec, 0.5, 1 / 256, [1 / 16, 1 / 32, 1 / 64])[1]
    assert all(d[k] / d[k + 1] >= 3.0 for k in range(2)), d


# -------------------------------------------------------- structural checks

def test_finite_propagation_speed():
    # changing data outside rho0 never changes u where r + t < rho0
    rho0 = 0.5
    spec = make_spec(PowerLaw(1.0))
    grid = CharacteristicGrid.cover(0.025, 0.4, 1.0)

    def outer_bump(r):
        return np.where((rho0 < r) & (r < 1.0), 40.0 * (r - rho0) ** 3 * (1.0 - r) ** 3, 0.0)

    def outer_bump_prime(r):
        return np.where((rho0 < r) & (r < 1.0),
                        40.0 * (3 * (r - rho0) ** 2 * (1 - r) ** 3
                                - 3 * (r - rho0) ** 3 * (1 - r) ** 2), 0.0)

    def bump_prime(r):
        return np.where(np.abs(r) < 1, -6.0 * r * (1 - r * r) ** 2, 0.0)

    base = default_bump(0.5)
    perturbed = RadialData(
        u0=lambda r: base.amplitude * (bump_profile(r)) + outer_bump(r),
        u1=np.zeros_like,
        support_radius=1.0,
        u0_prime=lambda r: base.amplitude * bump_prime(r) + outer_bump_prime(r),
        amplitude=1.0,
    )
    inner = RadialData(u0=lambda r: 0.5 * bump_profile(r), u1=np.zeros_like,
                       support_radius=1.0, u0_prime=lambda r: 0.5 * bump_prime(r))
    run_a, field_a = march_field(inner, spec, grid)
    _, field_b = march_field(perturbed, spec, grid)
    scale = np.max(np.abs(field_b))
    for i, t in enumerate(run_a.times):
        mask = run_a.radii + t < rho0 - 1e-9
        if np.any(mask):
            diff = np.max(np.abs(field_a[i, mask] - field_b[i, mask]))
            assert diff <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(CONE_SPECS)), velocity=st.booleans(),
       scale=st.floats(0.01, 6.0), h=st.sampled_from([0.01, 0.05, 1 / 16]),
       horizon=st.floats(0.5, 3.0))
def test_field_is_positive_zero_past_the_cone_edge(name, velocity, scale, h, horizon):
    spec = CONE_SPECS[name]
    eps = 0.01 * scale * spec.tau0 if name in ("iterlog", "doublelog", "triplelog") else scale
    data = (velocity_bump if velocity else default_bump)(eps)
    grid = CharacteristicGrid.cover(h, horizon, data.support_radius)
    run, field = march_field(data, spec, grid, cap=1e6)
    reach = math.ceil(data.support_radius / h) + 1
    for i, level in enumerate(field):
        past = level[reach + i + 1:]
        assert np.all(past == 0.0) and not np.any(np.signbit(past)), (i, run.status)


def test_support_grows_at_unit_speed():
    run, field = march_field(default_bump(0.5), make_spec(PowerLaw(1.0)),
                             CharacteristicGrid.cover(0.05, 3.0, 1.0))
    scale = np.max(np.abs(field))
    for i, t in enumerate(run.times):
        outside = run.radii > 1.0 + t + 1e-9
        if np.any(outside):
            assert np.max(np.abs(field[i, outside])) <= 1e-12 * scale


# ----------------------------------------------------------------- forcing

# the log-space forcing of march against its direct formula |u|^p mu(|u|),
# mu from the closed forms of tests/oracles.py;
# arguments stay above 1e-12 tau0, where the forcing is a normal float whose
# log is below 1e2 in size, so exp's argument error stays under 1e-13 relative
def _forcing_arguments(spec):
    top = 1e6 if math.isinf(spec.tau0) else spec.tau0
    parts = [st.just(0.0), st.just(top), st.floats(0.0, 12.0).map(lambda k: top * 10.0 ** -k)]
    if isinstance(spec.family, LogPower):
        # just past tau0, the bridge, 3 and the top, as far as |u|^p stays finite
        parts += [st.just(math.nextafter(top, math.inf)), st.floats(top, 3.0),
                  st.just(3.0), st.floats(3.0, 1e120)]
    return st.lists(st.one_of(*parts), min_size=2, max_size=40)


@pytest.mark.parametrize("name", sorted(set(CONE_SPECS) - {"linear"}))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_forcing_matches_the_direct_formula(name, data):
    spec = CONE_SPECS[name]
    abs_u = np.array(data.draw(_forcing_arguments(spec)))
    if data.draw(st.booleans()):  # a block of levels, as the identity residual passes
        abs_u = abs_u[:len(abs_u) // 2 * 2].reshape(2, -1)
    want = abs_u ** P3 * mu_direct(spec, abs_u)
    got = mu_power(spec, P3, abs_u)
    zero = want == 0.0
    assert np.array_equal(zero, abs_u == 0.0)
    assert np.all(got[zero] == 0.0) and not np.any(np.signbit(got[zero]))
    assert np.all(np.abs(got[~zero] - want[~zero]) <= 1e-13 * want[~zero])


@pytest.mark.parametrize("name", sorted(set(CONE_SPECS) - {"linear"}))
def test_forcing_refuses_what_mu_eval_refuses(name):
    spec = CONE_SPECS[name]
    bad = {"non-negative": [np.array([0.0, math.nan]), np.array([[0.0], [-1e-300]])]}
    if name in ("iterlog", "doublelog", "triplelog"):
        bad["beyond tau0"] = [np.array([0.0, math.nextafter(spec.tau0, 1.0)]),
                              np.array([[spec.tau0], [3.0]])]
    for kind, args in bad.items():
        for abs_u in args:
            with pytest.raises(ValueError, match=kind) as refused:
                mu_eval(spec, abs_u)
            with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
                mu_power(spec, P3, abs_u)


@pytest.mark.parametrize("name", sorted(set(CONE_SPECS) - {"linear"}))
def test_resolved_forcing_gives_mu_power_bits_and_refuses_nothing(name):
    # the kernel a march resolves once per spec gives mu_power's bits below
    # tau0 and, through LogPower's bridge, past it; it refuses nothing: a peak
    # past the admissible ceiling is mu_power's to refuse, and the march's
    spec = CONE_SPECS[name]
    kernel, ceiling, reason = forcing(spec, P3)
    assert (ceiling, reason) == admissible(spec)[:2]
    top = 1e6 if math.isinf(spec.tau0) else spec.tau0
    below = top * np.array([[0.0, 1e-9, 0.3], [0.5, 0.9, 1.0]])
    for abs_u in (below, np.append(below, 2.0 * top)):
        out = np.empty_like(abs_u)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            assert kernel(abs_u, out, abs_u.max()) is out
        if abs_u.max() <= ceiling:
            assert out.tobytes() == mu_power(spec, P3, abs_u).tobytes()
        else:
            assert name in ITERATED
            with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
                mu_power(spec, P3, abs_u)


def test_admissible_range_of_each_spec():
    # resolved once per spec: the largest argument mu accepts and the reason
    # past it; a LogPower bridge that cannot be built only lowers it to tau0
    for name in ("powerlaw", "log1p", "logpower"):
        ceiling, reason, bridge = admissible(CONE_SPECS[name])
        assert ceiling == math.inf and reason is None
        assert (bridge is not None) == (name == "logpower")
    for name in ITERATED:
        tau0 = CONE_SPECS[name].tau0
        assert admissible(CONE_SPECS[name]) == (
            tau0, f"mu argument beyond tau0={tau0:g} needs a continuation", None)
    assert admissible(make_spec(LogPower(0.2, 10.0), tau0=0.9)) == (
        0.9, "continuation bridge is not increasing for gamma=0.2, cl=10, tau0=0.9", None)
    # the bridge's coefficients overflow: near zero mu underflows to 0, as
    # before; past tau0 a ValueError with its reason, where it was an OverflowError
    huge = make_spec(LogPower(1e4), tau0=0.3)
    overflows = "continuation bridge overflows for gamma=10000, cl=1, tau0=0.3"
    assert admissible(huge) == (0.3, overflows, None)
    assert mu_eval(huge, 0.1) == 0.0
    for refused in (lambda: mu_eval(huge, 0.6),
                    lambda: march(default_bump(1.0), huge, CharacteristicGrid.cover(0.05, 1.0, 1.0))):
        with pytest.raises(ValueError, match=f"^{overflows}$"):
            refused()


@pytest.mark.parametrize("family, tau0", [(PowerLaw(1.0), 5.0), (LogOnePlus(1.0), 0.5)])
def test_global_families_take_no_cutoff_from_tau0(family, tau0):
    # a global family's formula holds on [0, inf): an explicit tau0 (the CLI's
    # --tau0) is no domain end, and mu, the forcing and the march past it are
    # those of the default tau0 = inf
    spec, default = make_spec(family, tau0=tau0), make_spec(family)
    abs_u = np.array([[0.0, 0.5 * tau0, tau0], [math.nextafter(tau0, 7.0), 6.0, 40.0]])
    assert np.array_equal(mu_eval(spec, abs_u), mu_eval(default, abs_u))
    assert mu_eval(spec, 6.0) == mu_eval(default, 6.0)
    assert np.array_equal(mu_power(spec, P3, abs_u), mu_power(default, P3, abs_u))
    data, grid = default_bump(2.0 * tau0), CharacteristicGrid.cover(1 / 16, 1.0, 1.0)
    _, field = march_field(data, spec, grid)
    assert np.max(np.abs(field)) > tau0
    assert np.array_equal(field, march_field(data, default, grid)[1])


# --------------------------------------------------------------- lifespans

def test_lifespan_monotone_and_deterministic():
    spec = make_spec(LogPower(0.2, 10.0))
    grid = CharacteristicGrid.cover(0.05, 8.0, 1.0)
    rows = lifespan_sweep(default_bump(1.0), spec, [2.0, 3.0, 5.0, 5.0], grid)
    assert all(r.status == "blew_up" for r in rows)
    times = [r.t_detect for r in rows]
    assert times[0] >= times[1] >= times[2]
    assert times[2] == times[3]  # duplicate amplitudes give identical rows


def test_lifespan_global_family_reaches_horizon():
    spec = make_spec(PowerLaw(1.0))
    grid = CharacteristicGrid.cover(0.05, 3.0, 1.0)
    rows = lifespan_sweep(default_bump(1.0), spec, [0.001, 0.01], grid)
    assert all(r.status == "completed" and r.t_detect is None for r in rows)


def test_lifespan_input_errors_are_raised_not_rows():
    # a grid that does not resolve the support fails every rung alike: raised
    # once, before any rung marches; an error of one rung alone stays its row
    spec = make_spec(LogPower(0.2, 10.0))
    with pytest.raises(ValueError, match="does not resolve the support"):
        lifespan_sweep(default_bump(1.0), spec, [2.0, 3.0],
                       CharacteristicGrid.cover(0.1, 2.0, 1.0))
    rows = lifespan_sweep(default_bump(1.0), make_spec(IteratedLogBlowup(1.0)), [1e-9, 1.0],
                          CharacteristicGrid.cover(0.05, 2.0, 1.0))
    assert rows[0].status == "completed"
    assert rows[1].status.startswith("failed: mu argument beyond tau0")


@pytest.mark.parametrize("eps", [-1.0, float("nan"), float("inf")])
def test_lifespan_rejects_nonpositive_amplitude(eps):
    # a NaN amplitude used to pass the check and "blow up" at t = h
    spec = make_spec(PowerLaw(1.0))
    grid = CharacteristicGrid.cover(0.05, 1.0, 1.0)
    with pytest.raises(ValueError):
        lifespan_sweep(default_bump(1.0), spec, [eps], grid)


# differential: the batched ladder against one march per amplitude, each
# rung's row built as lifespans were built before the rungs shared a march;
# LogPower with tau0 = 0.9 has a bridge that is not increasing, refused past tau0
LADDER_SPECS = {**{name: spec for name, spec in CONE_SPECS.items() if spec is not None},
                "logpower-tau0.9": make_spec(LogPower(0.2, 10.0), tau0=0.9)}


def one_rung_row(data, spec, eps, grid, cap=1e6):
    try:
        run = march(replace(data, amplitude=eps), spec, grid, cap=cap)
    except ValueError as exc:
        return LifespanRow(float(eps), None, f"failed: {exc}")
    return LifespanRow(float(eps), run.t_detect, run.status)


def assert_rows_are_one_rung_marches(data, spec, ladder, grid, cap=1e6):
    rows = lifespan_sweep(data, spec, ladder, grid, cap=cap)
    assert rows == [one_rung_row(data, spec, eps, grid, cap) for eps in ladder]
    return [row.status.split(":")[0] for row in rows]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ladder_rows_equal_one_rung_marches(data):
    # the iterated-log families take amplitudes around their tau0, so their
    # ladders straddle it; a cap near the amplitudes stops rungs at level 1
    name = data.draw(st.sampled_from(sorted(LADDER_SPECS)))
    spec = LADDER_SPECS[name]
    scale = spec.tau0 if name in ITERATED else 1.0
    amplitude = st.floats(-2.0, 1.1).map(lambda k: scale * 10.0 ** k)
    ladder = data.draw(st.lists(amplitude, min_size=1, max_size=6))
    ladder = data.draw(st.permutations(ladder + data.draw(st.lists(st.sampled_from(ladder),
                                                                   max_size=3))))
    cap = data.draw(st.one_of(st.just(math.inf), st.floats(-0.5, 6.0).map(lambda k: scale * 10.0 ** k)))
    datum = data.draw(st.sampled_from([default_bump, velocity_bump]))(1.0)
    grid = CharacteristicGrid.cover(data.draw(st.sampled_from([0.05, 1 / 16])),
                                    data.draw(st.floats(0.5, 3.0)), 1.0)
    assert_rows_are_one_rung_marches(datum, spec, ladder, grid, cap)


def test_ladder_rung_refused_by_a_bridge_that_is_not_increasing():
    # no iterated-log tau0 crossing: LogPower's bridge from tau0 = 0.9 is refused,
    # and the rung past it fails with the message its own march raises
    spec = LADDER_SPECS["logpower-tau0.9"]
    grid = CharacteristicGrid.cover(0.05, 3.0, 1.0)
    with pytest.raises(ValueError, match="not increasing") as refused:
        march(default_bump(2.0), spec, grid)
    rows = lifespan_sweep(default_bump(1.0), spec, [0.5, 2.0, 0.8], grid)
    assert [row.status for row in rows] == ["completed", f"failed: {refused.value}", "completed"]


@pytest.mark.parametrize("name", ITERATED)
def test_ladder_straddling_tau0_refuses_only_its_rungs_past_it(name):
    # rungs from far below to far above tau0; velocity data start at 0, so
    # their rungs pass tau0 at a later level, while the others march on
    spec = CONE_SPECS[name]
    ladder = [spec.tau0 * f for f in (0.01, 3.0, 0.5, 30.0, 0.01, 300.0, 3.0)]
    grid = CharacteristicGrid.cover(0.05, 2.0, 1.0)
    for datum in (default_bump(1.0), velocity_bump(1.0)):
        statuses = assert_rows_are_one_rung_marches(datum, spec, ladder, grid)
        assert statuses[0] == "completed" and statuses[3] == "failed", statuses


def velocity_rung_passing_tau0(spec, h=0.05):
    """A velocity-data amplitude whose peak rises to twice tau0, and the
    first level k whose peak passes tau0, with every earlier level at or
    below it."""
    grid = CharacteristicGrid.cover(h, 2.0, 1.0)
    eps = 2.0 * spec.tau0 / np.max(np.abs(march_field(velocity_bump(1.0), None, grid)[1]))
    peaks = np.max(np.abs(march_field(velocity_bump(eps), None, grid)[1]), axis=1)
    k = int(np.argmax(peaks > spec.tau0))
    assert k >= 2 and peaks[k] > spec.tau0 >= np.max(peaks[:k])
    return eps, k


@pytest.mark.parametrize("name", ITERATED)
def test_ladder_stops_where_a_one_rung_march_stops(name):
    spec, h = CONE_SPECS[name], 0.05
    eps, k = velocity_rung_passing_tau0(spec, h)
    below = 0.1 * eps  # a rung that completes beside the others
    # the last level is never forced: a rung whose last level passes tau0 completes
    last = CharacteristicGrid.cover(h, k * h, 1.0)
    run, field = march_field(velocity_bump(eps), spec, last)
    assert run.status == "completed" and np.max(np.abs(field[-1])) > spec.tau0
    assert assert_rows_are_one_rung_marches(velocity_bump(1.0), spec, [eps, below], last) == [
        "completed", "completed"]
    # one level more and that level is forced: the rung fails, its neighbour goes on
    longer = CharacteristicGrid.cover(h, (k + 1) * h, 1.0)
    assert assert_rows_are_one_rung_marches(velocity_bump(1.0), spec, [eps, below], longer) == [
        "failed", "completed"]
    # the cap check comes first: crossing the cap at the level that passes tau0 is a blow-up
    rows = lifespan_sweep(velocity_bump(1.0), spec, [eps, below], longer, cap=spec.tau0)
    assert rows[0] == LifespanRow(eps, k * h, "blew_up") == one_rung_row(
        velocity_bump(1.0), spec, eps, longer, cap=spec.tau0)
    assert rows[1].status == "completed"
    # a rung with eps > tau0 fails at level 1: on a grid of one level already
    one_level = CharacteristicGrid(h=h, t_levels=1, r_nodes=CharacteristicGrid.cover(h, h, 1.0).r_nodes)
    assert assert_rows_are_one_rung_marches(default_bump(1.0), spec, [0.5 * spec.tau0, eps],
                                            one_level) == ["completed", "failed"]


# ------------------------------------------------------------- convergence

def test_convergence_linear_second_order():
    result = convergence_study(velocity_bump(1.0), None, [0.05, 0.025, 0.0125], t_check=2.0)
    assert result.order is not None
    assert 1.7 <= result.order <= 2.3


def test_convergence_zero_data_exact():
    result = convergence_study(zero_data(), None, [0.05, 0.025, 0.0125], t_check=1.0)
    assert result.order is None
    assert all(d == 0.0 for d in result.diffs)


def test_convergence_nonlinear_ratio():
    result = convergence_study(default_bump(0.5), make_spec(PowerLaw(1.0)),
                               [0.05, 0.025, 0.0125], t_check=2.0)
    ratio = result.diffs[0] / result.diffs[1]
    assert 3.2 <= ratio <= 4.8


def test_convergence_requires_halving():
    with pytest.raises(ValueError):
        convergence_study(zero_data(), None, [0.05, 0.03, 0.02], t_check=1.0)
    with pytest.raises(ValueError):
        convergence_study(zero_data(), None, [0.05, 0.025], t_check=1.0)


def test_convergence_refuses_a_time_off_the_coarsest_grid():
    # t = 0.1 is no level of h = 1/16: rounding it to each grid would compare
    # t = 0.125, 0.094, 0.094 and 0.102; a level of the coarsest grid is one of all
    h_list = [1 / 16, 1 / 32, 1 / 64, 1 / 128]
    with pytest.raises(ValueError, match="t_check=0.1 is not a level of the coarsest grid"):
        convergence_study(velocity_bump(1.0), None, h_list, t_check=0.1)
    assert convergence_study(velocity_bump(1.0), None, h_list, t_check=0.125).order is not None


def test_blowup_time_stable_under_refinement():
    spec = make_spec(LogPower(0.2, 10.0))
    coarse = march(default_bump(5.0), spec, CharacteristicGrid.cover(0.02, 10.0, 1.0), cap=1e6)
    fine = march(default_bump(5.0), spec, CharacteristicGrid.cover(0.01, 10.0, 1.0), cap=1e6)
    assert coarse.status == fine.status == "blew_up"
    assert abs(fine.t_detect - coarse.t_detect) <= 0.1 * coarse.t_detect


def test_import_loads_no_scipy():
    # the command line, which imports every module, loads no scipy, and neither do
    # the n = 2 and n = 3 kernels or the n = 3 ball integral; the n >= 4 eigenfunction
    # and the ball integral of every other n load scipy.special.
    # The package root defines only __version__: it loads no submodule and no numpy
    src = os.path.dirname(os.path.dirname(wavecrit.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def loaded(statement, packages=("scipy",)):
        probe = (f"import sys; {statement}; "
                 f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))")
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        return ast.literal_eval(done.stdout.strip())

    assert loaded("import wavecrit", ("wavecrit", "numpy")) == ["wavecrit"]
    assert loaded("import wavecrit.cli") == []
    kernel = ("from wavecrit.kernels import KernelConfig, data_kernel; "
              "data_kernel(KernelConfig(n={n}, quad_points=64), 0.5, 1.0, [0.0, 0.5, 20.0])")
    assert loaded(kernel.format(n=2)) == []
    assert loaded(kernel.format(n=3)) == []
    assert "scipy.special" in loaded(kernel.format(n=4))
    ball = ("from wavecrit.kernels import free_wave_ball_integral; "
            "free_wave_ball_integral({n}, 1.0, 5.0)")
    assert loaded(ball.format(n=3)) == []
    assert "scipy.special" in loaded(ball.format(n=2))
