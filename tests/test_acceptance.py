"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at run time.  The heavy
criteria (8, 9, 12) march real fields and dominate the runtime.
"""

import math

import numpy as np

from wavecrit.blowup import (
    build_ledger,
    exponent_sequences,
    integral_identity_residual,
)
from wavecrit.exponents import (
    exponent_identities_report,
    kernel_exponent,
    strauss_exponent,
    strauss_residual,
    weight_exponent,
)
from wavecrit.kernels import KernelConfig, free_wave_ball_integral, kernel_bounds_check
from wavecrit.modulus import (
    DoubleLogGlobal,
    IteratedLogBlowup,
    LogOnePlus,
    LogPower,
    PowerLaw,
    TripleLogGlobal,
    classify_strauss_threshold,
    convexity_check,
    jensen_margin,
    make_spec,
)
from wavecrit.solver import (
    CharacteristicGrid,
    RadialData,
    convergence_study,
    default_bump,
    march,
    velocity_bump,
)
from wavecrit.weights import (
    decay_profile_check,
    key_integral,
    zone_bound_check,
)
from wavecrit.modulus import mu_eval

from oracles import linear_propagator

P3 = strauss_exponent(3)
Q3 = kernel_exponent(3)


def report(num, text):
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


def test_criterion_01_exponent_exactness():
    assert abs(strauss_exponent(3) - (1.0 + math.sqrt(2.0))) < 1e-12
    for n in range(2, 65):
        assert abs(strauss_residual(n, strauss_exponent(n))) <= 1e-9
    assert abs(weight_exponent(3) - math.sqrt(2.0)) < 1e-12
    report(1, "root exact at n=3, residuals <= 1e-9 for n=2..64, weight exponent = sqrt(2)")


def test_criterion_02_identity_suite():
    worst = max(exponent_identities_report(n).fitted_constant for n in range(2, 11))
    assert worst < 1e-10
    report(2, f"both exponent identities < 1e-10 for n=2..10 (worst {worst:.2e})")


def test_criterion_03_iteration_ledger():
    for n in (2, 3, 4):
        p = strauss_exponent(n)
        a, b, s = exponent_sequences(n, 30)
        pj = p ** np.arange(31, dtype=float)
        assert np.max(np.abs(a - (p / (p - 1) * pj - 1 / (p - 1))) / pj) < 1e-9
        assert np.max(np.abs(b - (pj - 1.0)) / np.maximum(pj, 1.0)) < 1e-9
        assert np.max(np.abs(s - (p / (p - 1) * pj - 1 / ((p - 1) * p))) / pj) < 1e-9
        ledger = build_ledger(n, 30)
        rows = slice(ledger.j1, None)
        assert np.all(ledger.floor_margin[rows] >= -1e-9 * pj[rows])
    report(3, "recursions match closed forms to 1e-9 (j<=30, n=2,3,4); growth floor holds row-wise")


def test_criterion_04_kernel_lemmas():
    for n in (2, 3):
        ratios = [
            free_wave_ball_integral(n, 1.0, t) / (1.0 + t) ** ((n - 1) / 2.0)
            for t in np.linspace(0.0, 100.0, 101)
        ]
        assert max(ratios) / min(ratios) <= 20.0
    reports = {}
    for n in (2, 3):
        cfg = KernelConfig(n=n, lambda0=1.0, R=1.0, quad_points=1024)
        rep = kernel_bounds_check(cfg)
        assert rep.passed
        assert all(c > 0.0 and math.isfinite(c) for c in (rep.a0, rep.b0, rep.b1, rep.b2))
        reports[n] = rep
    report(4, "ball-integral ratio bracket <= 20 (n=2,3); kernel bounds pass with positive "
              f"constants at unit spectral cutoff (n=3: a0={reports[3].a0:.3g}, b2={reports[3].b2:.3g})")


def test_criterion_05_jensen_property():
    margin = jensen_margin(make_spec(PowerLaw(1.0)), 3, trials=10000, cells=16, seed=0)
    assert margin <= 1e-12
    assert convexity_check(make_spec(PowerLaw(1.0)), 3, np.linspace(-2, 2, 201)).passed
    report(5, f"10^4 randomized averaged-convexity trials: worst relative margin {margin:.2e}")


def test_criterion_06_linear_exactness_and_order():
    data = default_bump(0.7)
    grid = CharacteristicGrid.cover(0.05, 3.0, 1.0)
    run = march(data, None, grid)
    worst = 0.0
    for i in range(0, run.field.shape[0], 6):
        t = i * grid.h
        for j in range(0, grid.r_nodes, 9):
            r = j * grid.h
            worst = max(worst, abs(run.field[i, j] - linear_propagator(data, t, r)))
    assert worst < 1e-12

    result = convergence_study(velocity_bump(1.0), None, [0.05, 0.025, 0.0125], t_check=2.0)
    assert 1.7 <= result.order <= 2.3

    zero = RadialData(u0=np.zeros_like, u1=np.zeros_like, support_radius=1.0,
                      u0_prime=np.zeros_like)
    zrun = march(zero, None, CharacteristicGrid.cover(0.05, 2.0, 1.0))
    assert np.max(np.abs(zrun.field)) == 0.0
    report(6, f"linear probe matches propagator to {worst:.2e}; order {result.order:.2f}; zero data exact")


def test_criterion_07_structural_invariants():
    spec = make_spec(PowerLaw(1.0))
    grid = CharacteristicGrid.cover(0.05, 10.0, 1.0)  # 200 levels x 222 radial nodes
    assert grid.t_levels == 200
    run = march(default_bump(0.5), spec, grid)
    scale = float(np.max(np.abs(run.field)))

    # evenness of the extension path
    for t, r in [(0.5, 0.25), (2.0, 1.5)]:
        assert linear_propagator(run.data, t, r) == linear_propagator(run.data, t, -r)

    # finite propagation speed: perturb outside rho0, compare inside the cone
    rho0 = 0.5

    def outer(r):
        return np.where((rho0 < r) & (r < 1.0), 40.0 * (r - rho0) ** 3 * (1.0 - r) ** 3, 0.0)

    def outer_prime(r):
        return np.where(
            (rho0 < r) & (r < 1.0),
            40.0 * (3 * (r - rho0) ** 2 * (1 - r) ** 3 - 3 * (r - rho0) ** 3 * (1 - r) ** 2), 0.0)

    base = default_bump(0.5)
    # the amplitude multiplies the whole profile, so fold the bump in at
    # twice its size to survive the 0.5 scaling
    perturbed = RadialData(
        u0=lambda r: base.u0(r) + 2.0 * outer(r),
        u1=np.zeros_like,
        support_radius=1.0,
        u0_prime=lambda r: base.u0_prime(r) + 2.0 * outer_prime(r),
        amplitude=0.5,
    )
    run_b = march(perturbed, spec, grid)
    cone_worst = 0.0
    for i, t in enumerate(run.times):
        mask = run.radii + t < rho0 - 1e-9
        if np.any(mask):
            cone_worst = max(cone_worst, float(np.max(np.abs(run.field[i, mask] - run_b.field[i, mask]))))
    assert cone_worst <= 1e-12 * max(scale, float(np.max(np.abs(run_b.field))))

    # support growth r <= R + t
    support_worst = 0.0
    for i, t in enumerate(run.times):
        outside = run.radii > 1.0 + t + 1e-9
        if np.any(outside):
            support_worst = max(support_worst, float(np.max(np.abs(run.field[i, outside]))))
    assert support_worst <= 1e-12 * scale

    # odd-window identity on the symmetric sub-window (t <= r)
    k, i, j = 40, 120, 150
    level = run.field[k]
    g = np.abs(level) ** P3 * mu_eval(spec, np.abs(level))
    hvals = 0.5 * run.radii * g
    m = j - (i - k)
    window = np.concatenate([-hvals[1:m][::-1], hvals[:m]])
    integral = float(np.trapezoid(window, dx=grid.h))
    win_scale = float(np.trapezoid(np.abs(window), dx=grid.h)) + 1e-30
    assert abs(integral) <= 1e-12 * win_scale
    report(7, f"evenness, causality ({cone_worst:.2e}), support growth ({support_worst:.2e}), "
              f"odd window ({abs(integral):.2e}) on a 200-level grid")


def test_criterion_08_blowup_side():
    spec = make_spec(LogPower(0.2, 10.0))
    grid = CharacteristicGrid.cover(0.02, 15.0, 1.0)
    times = {}
    for eps in (2.0, 3.0, 5.0, 8.0):
        run = march(default_bump(eps), spec, grid, cap=1e6)
        assert run.status == "blew_up" and run.t_detect is not None
        times[eps] = run.t_detect
    ordered = [times[e] for e in (2.0, 3.0, 5.0, 8.0)]
    assert all(a >= b for a, b in zip(ordered, ordered[1:]))

    fine = march(default_bump(5.0), spec, CharacteristicGrid.cover(0.01, 15.0, 1.0), cap=1e6)
    drift = abs(fine.t_detect - times[5.0]) / times[5.0]
    assert drift < 0.10
    report(8, f"blow-up detected at T={ordered} (non-increasing); halving-h drift {drift:.1%}")


def test_criterion_09_global_side():
    spec = make_spec(PowerLaw(1.0))
    grid = CharacteristicGrid.cover(0.0625, 100.0, 1.0)
    run, profile = decay_profile_check(default_bump(0.01), spec, grid)  # a stream, as verify-global marches
    assert run.status == "completed"
    norm = max(m for _, m in profile.samples)
    assert math.isfinite(norm) and norm > 0.0
    assert profile.passed
    report(9, f"horizon-100 run completed; weighted sup norm {norm:.4g}; "
              f"decay constant {profile.fitted_constant:.4g} stable over the outer half")


def test_criterion_10_key_integral_and_zones():
    eps0 = 0.05
    for family in (PowerLaw(1.0), DoubleLogGlobal(-1.0)):
        spec = make_spec(family)
        ratios = [key_integral(xi, eps0, spec).ratio for xi in (10.0, 100.0, 1e3, 1e4)]
        assert min(ratios) > 0.0
        assert max(ratios) / min(ratios) <= 50.0
    zones = zone_bound_check(make_spec(PowerLaw(1.0)), eps0,
                             [(100.0, 10.0), (0.5, 0.9), (150.0, 100.0)])
    assert zones.passed
    report(10, "cone-interaction ratio spread <= 50 over four decades (both families); "
               "all three zone samples bounded")


def test_criterion_11_threshold_classifier():
    blow_up = [
        (LogPower(0.2, 1.0), "infinite"),
        (IteratedLogBlowup(1.0, 2), "infinite"),
    ]
    finite = [(LogPower(1.0 / P3, 5.0), "finite")]
    global_side = [
        (PowerLaw(1.0), "zero"),
        (PowerLaw(0.5), "zero"),
        (LogOnePlus(1.0), "zero"),
        (LogPower(0.8, 1.0), "zero"),
        (DoubleLogGlobal(-1.0), "zero"),
        (TripleLogGlobal(-0.5), "zero"),
    ]
    for family, expected in blow_up + finite + global_side:
        verdict = classify_strauss_threshold(make_spec(family), 3)
        assert verdict.threshold_class == expected, family
    verdict = classify_strauss_threshold(make_spec(LogPower(1.0 / P3, 5.0)), 3)
    assert verdict.estimate >= 5.0 - 1e-9
    report(11, "all example families classified on the correct side "
               "(blow-up -> infinite/finite >= cl, global -> zero)")


def test_criterion_12_integral_identity_refinement():
    spec = make_spec(PowerLaw(1.0))
    cfg = KernelConfig(n=3, lambda0=1.0, R=1.0, quad_points=2048)
    residuals = []
    for h in (0.0625, 0.03125):
        run = march(default_bump(0.5), spec, CharacteristicGrid.cover(h, 5.0, 1.0))
        residuals.append(abs(integral_identity_residual(run, cfg, Q3, 5.0)))
    ratio = residuals[0] / residuals[1]
    assert ratio >= 3.0
    report(12, f"identity residual at t=5 shrinks {ratio:.2f}x under one grid halving "
               f"({residuals[0]:.2e} -> {residuals[1]:.2e})")
