import math

import numpy as np
import pytest
from scipy import integrate

from wavecrit.blowup import (
    GrowthLedger,
    IterationConstants,
    build_ledger,
    divergence_onset,
    exponent_sequences,
    growth_sequence,
    integral_identity_residual,
    slicing_level,
    weighted_functional,
)
from wavecrit.exponents import kernel_exponent, strauss_exponent
from wavecrit.kernels import KernelConfig, data_kernel, source_kernel
from wavecrit.modulus import LogPower, PowerLaw, make_spec, mu_eval
from wavecrit.solver import CharacteristicGrid, RadialData, SolutionRun, default_bump, march

P3 = strauss_exponent(3)
Q3 = kernel_exponent(3)
CFG = KernelConfig(n=3, lambda0=1.0, R=1.0, quad_points=2048)


def test_slicing_levels():
    assert slicing_level(0) == 1.5
    assert slicing_level(1) == 1.75
    assert slicing_level(50) < 2.0
    assert slicing_level(50) > slicing_level(49)
    with pytest.raises(ValueError):
        slicing_level(-1)


def test_initial_exponent_row():
    a, b, s = exponent_sequences(3, 0)
    assert a[0] == 1.0 and b[0] == 0.0
    assert abs(s[0] - (1.0 + 1.0 / P3)) < 1e-15


def test_first_recursion_steps():
    a, b, s = exponent_sequences(3, 2)
    assert abs(a[1] - (1.0 + P3)) < 1e-14
    assert abs(a[2] - (P3**3 - 1.0) / (P3 - 1.0)) < 1e-12  # geometric sum identity


@pytest.mark.parametrize("n", [2, 3, 4])
def test_recursion_matches_closed_form(n):
    p = strauss_exponent(n)
    a, b, s = exponent_sequences(n, 30)
    pj = p ** np.arange(31, dtype=float)
    assert np.max(np.abs(a - (p / (p - 1) * pj - 1 / (p - 1))) / np.abs(pj)) < 1e-9
    assert np.max(np.abs(b - (pj - 1.0)) / np.maximum(pj, 1.0)) < 1e-9
    assert np.max(np.abs(s - (p / (p - 1) * pj - 1 / ((p - 1) * p))) / np.abs(pj)) < 1e-9


def test_recursion_shift_identities():
    # p a_j + 1 = a_{j+1} and the sigma-a gap contracts as stated; the gap is
    # a difference of p^j-sized terms, so the check scales atol with p^j
    for n in (2, 3, 4):
        p = strauss_exponent(n)
        a, _, s = exponent_sequences(n, 20)
        assert np.allclose(p * a[:-1] + 1.0, a[1:], rtol=1e-13)
        gap = s - a
        defect = np.abs(gap[1:] - (p * gap[:-1] + 1.0 / p - 1.0))
        assert np.all(defect <= 1e-13 * (1.0 + p * a[:-1]))


def test_growth_seed_and_one_step():
    const = IterationConstants()
    ledger = growth_sequence(3, const, 1)
    assert ledger.log_m[0] == math.log(const.m0) == 0.0
    expected = math.log(2.0**-3 / (3.0 * slicing_level(2) * (P3 + 1.0)))
    assert abs(ledger.log_m[1] - expected) < 1e-12


def test_growth_floor_rowwise():
    for n in (2, 3, 4):
        p = strauss_exponent(n)
        ledger = growth_sequence(n, IterationConstants(), 30)
        assert isinstance(ledger, GrowthLedger)
        pj = p ** np.arange(31, dtype=float)
        rows = slice(ledger.j1, None)
        assert np.all(ledger.floor_margin[rows] >= -1e-9 * pj[rows])


def test_growth_step_is_exact_in_log_space():
    # log M_{j+1} - p log M_j equals the explicit coefficient, by construction
    p = P3
    a, _, _ = exponent_sequences(3, 12)
    ledger = growth_sequence(3, IterationConstants(), 12)
    for j in range(12):
        coeff = math.log(1.0) - (2 * j + 3) * math.log(2.0) - math.log(
            3.0 * slicing_level(2 * j + 2) * (a[j] * p + 1.0)
        )
        scale = max(1.0, abs(p * ledger.log_m[j]))
        assert abs(ledger.log_m[j + 1] - p * ledger.log_m[j] - coeff) < 1e-14 * scale


def test_constants_validation():
    with pytest.raises(ValueError):
        IterationConstants(c0=-1.0)
    with pytest.raises(ValueError):
        IterationConstants(epsilon_exp=0.5)


def test_ledger_rows():
    ledger = build_ledger(3, IterationConstants(), 8)
    assert len(ledger.rows) == 9
    j, ell, a, b, s, logm = ledger.rows[0]
    assert (j, ell, a, b) == (0, 1.5, 1.0, 0.0)


# ------------------------------------------------------------- functionals

def _flat_run(value, h=0.05, levels=40, radius=50.0):
    grid = CharacteristicGrid(h=h, t_levels=levels, r_nodes=int(radius / h) + 3)
    field = np.full((levels + 1, grid.r_nodes), value)
    return SolutionRun(grid=grid, data=default_bump(0.0),
                       spec=make_spec(PowerLaw(1.0)), field=field, status="completed")


def test_functional_zero_field():
    run = _flat_run(0.0)
    assert weighted_functional(run, CFG, Q3, 1.0) == 0.0


def test_functional_nonnegative_on_nonnegative_field():
    spec = make_spec(PowerLaw(1.0))
    run = march(default_bump(0.2), spec, CharacteristicGrid.cover(0.05, 4.0, 1.0))
    for t in (1.0, 2.5, 4.0):
        assert weighted_functional(run, CFG, Q3, t) >= 0.0


def test_functional_single_bump_oracle():
    # field identically c: the modulus factor is constant, so the functional
    # reduces to c mu(c)^{1/p} times the kernel moment over the radius range
    c, t = 0.8, 1.5
    run = _flat_run(c)
    got = weighted_functional(run, CFG, Q3, t)
    r_max = run.radii[-1]
    oracle = c * mu_eval(run.spec, c) ** (1.0 / P3) * integrate.quad(
        lambda r: source_kernel(CFG, Q3, t, t, r) * 4.0 * math.pi * r * r,
        0.0, r_max, limit=200,
    )[0]
    assert abs(got - oracle) < 1e-3 * abs(oracle)  # lattice trapezoid vs adaptive


def test_functional_requires_modulus():
    run = march(default_bump(0.2), None, CharacteristicGrid.cover(0.05, 1.0, 1.0))
    with pytest.raises(ValueError):
        weighted_functional(run, CFG, Q3, 1.0)


def test_identity_zero_run():
    zero = RadialData(u0=lambda r: 0.0, u1=lambda r: 0.0,
                      support_radius=1.0, u0_prime=lambda r: 0.0)
    run = march(zero, make_spec(PowerLaw(1.0)), CharacteristicGrid.cover(0.05, 2.0, 1.0))
    assert integral_identity_residual(run, CFG, Q3, 2.0) == 0.0


def test_identity_linear_run_reduces_to_data_terms():
    run = march(default_bump(0.5), None, CharacteristicGrid.cover(0.0625, 3.0, 1.0))
    assert abs(integral_identity_residual(run, CFG, Q3, 3.0)) < 1e-12


def test_identity_residual_shrinks_under_refinement():
    spec = make_spec(PowerLaw(1.0))
    residuals = []
    for h in (0.0625, 0.03125):
        run = march(default_bump(0.5), spec, CharacteristicGrid.cover(h, 5.0, 1.0))
        residuals.append(abs(integral_identity_residual(run, CFG, Q3, 5.0)))
    assert residuals[0] / residuals[1] >= 3.0


def _residual_by_levels(run, cfg, q, t):
    """Reference: the identity summed level by level with scalar-s kernels."""
    i = run.level_index(t)
    h = run.grid.h
    r = run.radii
    meas = 4.0 * math.pi * r * r
    eps = run.data.amplitude

    def integral(values, s):
        return float(np.trapezoid(values * source_kernel(cfg, q, t, s, r) * meas, dx=h))

    u0v = eps * np.asarray([run.data.u0(x) for x in r])
    u1v = eps * np.asarray([run.data.u1(x) for x in r])
    total = float(np.trapezoid(u0v * data_kernel(cfg, q, t, r) * meas, dx=h))
    total += t * integral(u1v, 0.0)
    for k in range(i):
        u = np.abs(run.field[k])
        w = 0.5 * h if k == 0 else h
        total += w * (t - k * h) * integral(u**P3 * mu_eval(run.spec, u), k * h)
    return integral(run.field[i], t) - total


@pytest.mark.parametrize("levels", [0, 1, 2, 20])
def test_identity_matches_level_by_level_sum(levels):
    # t = 0 has no history and t = h a single level
    h = 0.0625
    run = march(default_bump(0.5), make_spec(PowerLaw(1.0)), CharacteristicGrid.cover(h, 2.0, 1.0))
    t = levels * h
    got = integral_identity_residual(run, CFG, Q3, t)
    ref = _residual_by_levels(run, CFG, Q3, t)
    scale = abs(np.trapezoid(run.field[levels] * source_kernel(CFG, Q3, t, t, run.radii)
                             * 4.0 * math.pi * run.radii**2, dx=h))
    assert abs(got - ref) <= 1e-13 * scale


def test_identity_builds_the_kernel_tables_once(monkeypatch):
    import wavecrit.kernels as kernels

    calls = []
    original = kernels.laplace_eigenfunction

    def counted(n, r):
        calls.append(n)
        return original(n, r)

    run = march(default_bump(0.5), make_spec(PowerLaw(1.0)),
                CharacteristicGrid.cover(0.03125, 5.0, 1.0))
    monkeypatch.setattr(kernels, "laplace_eigenfunction", counted)
    integral_identity_residual(run, CFG, Q3, 5.0)
    assert len(calls) <= 4  # one table and one phi(0) per kernel call


def test_identity_time_bounds():
    run = march(default_bump(0.2), make_spec(PowerLaw(1.0)),
                CharacteristicGrid.cover(0.05, 1.0, 1.0))
    with pytest.raises(ValueError):
        integral_identity_residual(run, CFG, Q3, 2.0)


# ------------------------------------------------------------------- onset

def test_onset_finite_for_threshold_family():
    spec = make_spec(LogPower(1.0 / P3, 5.0))
    constants = IterationConstants()
    base = constants.c7 * 5.0 ** (P3 / (P3 - 1.0))
    assert base > 1.0  # the premise of the finite-onset example
    onset = divergence_onset(3, constants, spec, 1e6)
    assert onset is not None and 0.0 < onset < 1e6


def test_onset_none_for_global_family():
    assert divergence_onset(3, IterationConstants(), make_spec(PowerLaw(1.0)), 1e6) is None


def test_onset_none_for_tiny_calibration():
    spec = make_spec(LogPower(1.0 / P3, 5.0))
    assert divergence_onset(3, IterationConstants(c7=1e-12), spec, 1e6) is None
