import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavecrit
from wavecrit.modulus import LogOnePlus, LogPower, PowerLaw, make_spec, mu_eval
from wavecrit.solver import (
    CharacteristicGrid,
    RadialData,
    convergence_study,
    default_bump,
    lifespan_sweep,
    linear_field,
    march,
    velocity_bump,
)
from wavecrit.exponents import strauss_exponent

from oracles import duhamel_apply, linear_propagator

P3 = strauss_exponent(3)


def zero_data():
    return RadialData(u0=lambda r: 0.0, u1=lambda r: 0.0,
                      support_radius=1.0, u0_prime=lambda r: 0.0)


def bump_profile(r):
    s = 1.0 - r * r
    return s**3 if abs(r) < 1.0 else 0.0


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
    run = march(data, None, grid)
    for t, r in [(0.5, 0.25), (1.5, 0.75)]:
        lattice = run.field[run.level_index(t), int(round(r / grid.h))]
        adaptive = linear_propagator(data, t, r)
        assert abs(lattice - adaptive) < 1e-3


# differential: the two-point path (fine table, lattice table) against the
# adaptive-quadrature oracle at drawn points; bounds fixed from measurements
feet = dict(t=st.floats(0.0, 6.0), r=st.floats(0.0, 8.0))


@settings(max_examples=60, deadline=None)
@given(**feet)
def test_linear_field_matches_oracle_displacement(t, r):
    data = default_bump(1.0)
    assert abs(linear_field(data, t, r)[0] - linear_propagator(data, t, r)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(**feet)
def test_linear_field_matches_oracle_velocity(t, r):
    data = velocity_bump(1.0)
    assert abs(linear_field(data, t, r)[0] - linear_propagator(data, t, r)) <= 1e-8


@pytest.fixture(scope="module")
def velocity_probes():
    # linear probe runs covering t <= 6 and r <= 8 for each step
    runs = {}
    for h in (0.05, 0.025):
        grid = CharacteristicGrid(h=h, t_levels=int(round(6.0 / h)),
                                  r_nodes=int(round(8.0 / h)) + 1)
        runs[h] = march(velocity_bump(1.0), None, grid)
    return runs


@settings(max_examples=60, deadline=None)
@given(h=st.sampled_from([0.05, 0.025]), **feet)
def test_march_linear_probe_matches_oracle(velocity_probes, h, t, r):
    run = velocity_probes[h]
    i, j = int(round(t / h)), int(round(r / h))
    oracle = linear_propagator(run.data, i * h, j * h)
    assert abs(run.field[i, j] - oracle) <= 0.5 * h * h


def test_lattice_free_part_matches_linear_field():
    # the two feet paths of the two-point formula: lattice table slices in
    # march and u0 callbacks in linear_field, at every node, axis included
    data = default_bump(0.7)
    run = march(data, None, CharacteristicGrid.cover(0.05, 4.0, 1.0))
    off = np.array([linear_field(data, t, run.radii) for t in run.times])
    assert np.max(np.abs(run.field - off)) <= 1e-13 * np.max(np.abs(run.field))
    assert np.array_equal(run.field[:, 0], off[:, 0])


def test_u0_derivative_fallback_spans_the_sampled_points():
    ramp = RadialData(u0=lambda r: r, u1=lambda r: 0.0, support_radius=1.0)
    for r in (0.0, 2e-7, 5e-7, 1e-6, 0.3):
        assert abs(ramp.u0_derivative(r) - 1.0) <= 1e-12
    bump = replace(default_bump(1.0), u0_prime=None)
    for r in (0.0, 5e-7, 0.3, 0.7, 0.99, 1.5):
        exact = -6.0 * r * (1.0 - r * r) ** 2 if r < 1.0 else 0.0
        assert abs(bump.u0_derivative(r) - exact) <= 1e-5


# ------------------------------------------------------------------ duhamel

def flat_run(c, h=0.05, levels=40, radius=50.0):
    from wavecrit.solver import SolutionRun

    grid = CharacteristicGrid(h=h, t_levels=levels, r_nodes=int(radius / h) + 3)
    field = np.full((levels + 1, grid.r_nodes), c)
    return SolutionRun(grid=grid, data=default_bump(0.0),
                       spec=make_spec(PowerLaw(1.0)), field=field,
                       status="completed")


def test_duhamel_zero_field():
    run = flat_run(0.0)
    assert duhamel_apply(run, 30, 1.0) == 0.0


def test_duhamel_constant_field_closed_form():
    # inner integral of (rho/2) c^{p+1} over the window is c^{p+1} (t-s) r,
    # so Lu = c^{p+1} t^2 / 2, exactly reproduced by the lattice trapezoid
    c = 0.8
    run = flat_run(c)
    for level, r in [(40, 1.0), (40, 0.05), (20, 3.7), (30, 0.0)]:
        t = level * run.grid.h
        expected = c ** (P3 + 1.0) * t * t / 2.0
        assert abs(duhamel_apply(run, level, r) - expected) < 1e-12 * expected


def test_duhamel_odd_window_cancels():
    # for t <= r the symmetric part of the window integrates to zero
    run = march(default_bump(0.5), make_spec(PowerLaw(1.0)),
                CharacteristicGrid.cover(0.05, 3.0, 1.0))
    h = run.grid.h
    k, i, j = 10, 40, 50  # s-level, t-level, r-node with r > t
    level = run.field[k]
    g = np.abs(level) ** P3 * mu_eval(run.spec, np.abs(level))
    hvals = 0.5 * run.radii * g
    m = j - (i - k)  # half-width of the symmetric window in nodes
    assert m > 0
    window = np.concatenate([-hvals[1:m][::-1], hvals[:m]])
    integral = np.trapezoid(window, dx=h)
    scale = np.trapezoid(np.abs(window), dx=h) + 1e-30
    assert abs(integral) <= 1e-12 * scale


def test_duhamel_rejects_off_lattice_radius():
    run = flat_run(0.5)
    with pytest.raises(ValueError):
        duhamel_apply(run, 10, 0.51234)


# -------------------------------------------------------------------- march

def test_march_zero_amplitude_is_zero():
    run = march(default_bump(0.0), make_spec(PowerLaw(1.0)),
                CharacteristicGrid.cover(0.05, 3.0, 1.0))
    assert run.status == "completed"
    assert np.max(np.abs(run.field)) == 0.0


def test_march_level_zero_is_sampled_data():
    run = march(default_bump(0.7), make_spec(PowerLaw(1.0)),
                CharacteristicGrid.cover(0.05, 1.0, 1.0))
    expected = 0.7 * np.asarray([run.data.u0(r) for r in run.radii])
    assert np.array_equal(run.field[0], expected)


def test_march_linear_probe_matches_propagator():
    data = default_bump(0.7)
    grid = CharacteristicGrid.cover(0.05, 3.0, 1.0)
    run = march(data, None, grid)
    for i in (0, 17, 40, 60):
        t = i * grid.h
        for j in (0, 3, 19, 44):
            r = j * grid.h
            assert abs(run.field[i, j] - linear_propagator(data, t, r)) < 1e-12


# differential: the diamond recurrence of march against the history re-sum
# of duhamel_apply on the run's own field; bounds fixed from measurements
FAMILIES = {"powerlaw": PowerLaw(1.0), "log1p": LogOnePlus(1.0),
            "logpower": LogPower(0.2, 10.0)}


@settings(max_examples=12, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), eps=st.floats(0.01, 6.0),
       h=st.sampled_from([1 / 16, 1 / 20, 1 / 32]), horizon=st.floats(0.5, 4.0))
def test_march_matches_history_oracle(family, eps, h, horizon):
    grid = CharacteristicGrid.cover(h, horizon, 1.0)
    cap = 1e6
    run = march(default_bump(eps), make_spec(FAMILIES[family]), grid, cap=cap)
    free = march(default_bump(eps), None, grid).field
    status, t_detect = "completed", None
    for i in range(1, run.field.shape[0]):
        oracle = free[i] + duhamel_apply(run, i, run.radii)
        peak = np.max(np.abs(run.field[i]))
        if run.status == "completed":
            assert np.max(np.abs(run.field[i] - oracle)) <= 1e-13 * np.max(np.abs(run.field))
        elif peak <= 10.0:
            assert np.max(np.abs(run.field[i] - oracle)) <= 1e-12 * peak
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


def test_march_stores_the_field_once():
    grid = CharacteristicGrid.cover(1 / 16, 25.0, 1.0)
    tracemalloc.start()
    try:
        run = march(default_bump(0.01), make_spec(PowerLaw(1.0)), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.status == "completed"
    assert peak <= 1.25 * run.field.nbytes


def test_march_without_u0_prime_matches_exact_derivative():
    grid = CharacteristicGrid.cover(0.05, 3.0, 1.0)
    spec = make_spec(PowerLaw(1.0))
    exact = march(default_bump(0.5), spec, grid).field
    quotient = march(replace(default_bump(0.5), u0_prime=None), spec, grid).field
    assert np.max(np.abs(quotient - exact)) <= 1e-9 * np.max(np.abs(exact))


def test_march_small_data_completes():
    run = march(default_bump(0.05), make_spec(PowerLaw(1.0)),
                CharacteristicGrid.cover(0.05, 10.0, 1.0))
    assert run.status == "completed"
    assert np.max(np.abs(run.field)) < 1.0


def test_march_blows_up_for_large_data():
    spec = make_spec(LogPower(0.2, 10.0))
    run = march(default_bump(5.0), spec,
                CharacteristicGrid.cover(0.02, 15.0, 1.0), cap=1e6)
    assert run.status == "blew_up"
    assert run.t_detect is not None and run.t_detect < 15.0
    # detection at level boundary: t_detect is an integer multiple of h
    assert abs(run.t_detect / run.grid.h - round(run.t_detect / run.grid.h)) < 1e-9
    # storage ends at the detection level
    assert run.field.shape[0] == round(run.t_detect / run.grid.h) + 1


def test_grid_beyond_memory_rejected_before_allocation():
    with pytest.raises(ValueError, match="bytes"):
        CharacteristicGrid.cover(1e-6, 1e6, 1.0)


def test_march_validates_grid_resolution():
    with pytest.raises(ValueError):
        march(default_bump(1.0), None, CharacteristicGrid.cover(0.2, 2.0, 1.0))


def test_march_validates_cone_cover():
    grid = CharacteristicGrid(h=0.05, t_levels=100, r_nodes=50)
    with pytest.raises(ValueError):
        march(default_bump(1.0), None, grid)


def test_march_validates_support():
    bad = RadialData(u0=lambda r: 1.0, u1=lambda r: 0.0,
                     support_radius=1.0, u0_prime=lambda r: 0.0)
    with pytest.raises(ValueError):
        march(bad, None, CharacteristicGrid.cover(0.05, 1.0, 1.0))


# -------------------------------------------------------- structural checks

def test_finite_propagation_speed():
    # changing data outside rho0 never changes u where r + t < rho0
    rho0 = 0.5
    spec = make_spec(PowerLaw(1.0))
    grid = CharacteristicGrid.cover(0.025, 0.4, 1.0)

    def outer_bump(r):
        if rho0 < r < 1.0:
            return 40.0 * (r - rho0) ** 3 * (1.0 - r) ** 3
        return 0.0

    def outer_bump_prime(r):
        if rho0 < r < 1.0:
            return 40.0 * (3 * (r - rho0) ** 2 * (1 - r) ** 3
                           - 3 * (r - rho0) ** 3 * (1 - r) ** 2)
        return 0.0

    base = default_bump(0.5)
    perturbed = RadialData(
        u0=lambda r: base.amplitude * (bump_profile(r)) + outer_bump(r),
        u1=lambda r: 0.0,
        support_radius=1.0,
        u0_prime=lambda r: base.amplitude * (-6.0 * r * (1 - r * r) ** 2
                                             if abs(r) < 1 else 0.0) + outer_bump_prime(r),
        amplitude=1.0,
    )
    inner = RadialData(u0=lambda r: 0.5 * bump_profile(r), u1=lambda r: 0.0,
                       support_radius=1.0,
                       u0_prime=lambda r: 0.5 * (-6.0 * r * (1 - r * r) ** 2
                                                 if abs(r) < 1 else 0.0))
    run_a = march(inner, spec, grid)
    run_b = march(perturbed, spec, grid)
    scale = np.max(np.abs(run_b.field))
    for i, t in enumerate(run_a.times):
        mask = run_a.radii + t < rho0 - 1e-9
        if np.any(mask):
            diff = np.max(np.abs(run_a.field[i, mask] - run_b.field[i, mask]))
            assert diff <= 1e-12 * scale


def test_support_grows_at_unit_speed():
    run = march(default_bump(0.5), make_spec(PowerLaw(1.0)),
                CharacteristicGrid.cover(0.05, 3.0, 1.0))
    scale = np.max(np.abs(run.field))
    for i, t in enumerate(run.times):
        outside = run.radii > 1.0 + t + 1e-9
        if np.any(outside):
            assert np.max(np.abs(run.field[i, outside])) <= 1e-12 * scale


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


def test_lifespan_rejects_nonpositive_amplitude():
    spec = make_spec(PowerLaw(1.0))
    grid = CharacteristicGrid.cover(0.05, 1.0, 1.0)
    with pytest.raises(ValueError):
        lifespan_sweep(default_bump(1.0), spec, [-1.0], grid)


# ------------------------------------------------------------- convergence

def test_convergence_linear_second_order():
    result = convergence_study(velocity_bump(1.0), None, [0.05, 0.025, 0.0125], t_check=2.0)
    assert not result.inconclusive
    assert 1.7 <= result.order <= 2.3


def test_convergence_zero_data_exact():
    result = convergence_study(zero_data(), None, [0.05, 0.025, 0.0125], t_check=1.0)
    assert result.inconclusive
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


def test_blowup_time_stable_under_refinement():
    spec = make_spec(LogPower(0.2, 10.0))
    coarse = march(default_bump(5.0), spec, CharacteristicGrid.cover(0.02, 10.0, 1.0), cap=1e6)
    fine = march(default_bump(5.0), spec, CharacteristicGrid.cover(0.01, 10.0, 1.0), cap=1e6)
    assert coarse.status == fine.status == "blew_up"
    assert abs(fine.t_detect - coarse.t_detect) <= 0.1 * coarse.t_detect


def test_import_loads_no_scipy():
    # the package front door is numpy only; scipy loads with kernels/weights
    src = os.path.dirname(os.path.dirname(wavecrit.__file__))
    probe = ("import sys, wavecrit; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
