import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wavecrit.exponents import strauss_exponent
from wavecrit.modulus import DoubleLogGlobal, LogPower, PowerLaw, make_spec
from wavecrit.solver import CharacteristicGrid, RadialData, SolutionRun, default_bump, march
from wavecrit.weights import (
    bracket,
    classify_zone,
    data_norms,
    decay_profile_check,
    key_integral,
    linear_decay_check,
    log_weight,
    weighted_sup_norm,
    zone_bound_check,
)

P3 = strauss_exponent(3)


# ------------------------------------------------------------------ weights

def test_bracket_values():
    assert bracket(0.0) == 3.0
    assert bracket(-5.0) == 8.0


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_bracket_even(y):
    assert bracket(y) == bracket(-y)
    assert bracket(y) >= 3.0


def test_log_weight_domain():
    with pytest.raises(ValueError):
        log_weight(math.e)  # e < 3 sits outside the domain
    with pytest.raises(ValueError):
        log_weight(2.999999)


def test_log_weight_values():
    assert abs(log_weight(3.0) - math.log(3.0) ** (1.0 / P3)) < 1e-15
    assert abs(log_weight(math.e**3) - 3.0 ** (1.0 / P3)) < 1e-15


def test_weight_chain_total():
    # the composition with the bracket is defined for every real input
    for y in (-1e9, -1.0, 0.0, 2.5, 1e9):
        assert log_weight(bracket(y)) > 0.0


def test_triangle_bracket_inequality():
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 50.0, 400)
    r = rng.uniform(0.0, 50.0, 400)
    lhs = bracket(t - np.abs(r))
    assert np.all(lhs <= bracket(t + r) + 1e-12)
    assert np.all(lhs <= bracket(t - r) + 1e-12)


# ----------------------------------------------------------------- sup norm

def _run_with_field(field, h=0.1):
    grid = CharacteristicGrid(h=h, t_levels=field.shape[0] - 1, r_nodes=field.shape[1])
    return SolutionRun(grid=grid, data=default_bump(0.0), spec=None,
                       field=field, status="completed")


def test_sup_norm_zero_run():
    assert weighted_sup_norm(_run_with_field(np.zeros((5, 8)))) == 0.0


def test_sup_norm_single_point():
    delta = 0.37
    field = np.zeros((4, 6))
    field[0, 0] = delta
    kappa = 1.0 + 1.0 / P3
    expected = log_weight(3.0) * 3.0 * 3.0 ** (kappa - 1.0) * delta
    assert abs(weighted_sup_norm(_run_with_field(field)) - expected) < 1e-14


def test_sup_norm_monotone_under_domination():
    rng = np.random.default_rng(5)
    small = rng.uniform(-1.0, 1.0, (6, 9))
    large = small * rng.uniform(1.0, 2.0, small.shape)
    assert weighted_sup_norm(_run_with_field(np.abs(small))) <= weighted_sup_norm(
        _run_with_field(np.abs(large))
    )


# --------------------------------------------------------------- data norms

def test_data_norms_zero():
    zero = RadialData(u0=lambda r: 0.0, u1=lambda r: 0.0, support_radius=1.0,
                      u0_prime=lambda r: 0.0)
    assert data_norms(zero) == (0.0, 0.0)


def test_data_norms_finite_and_scaling():
    a1, b1 = data_norms(default_bump(0.01))
    a2, b2 = data_norms(default_bump(0.02))
    assert a1 > 0.0 and b1 == 0.0
    assert abs(a2 - 2.0 * a1) < 1e-15
    from wavecrit.solver import velocity_bump

    av, bv = data_norms(velocity_bump(0.01))
    assert av == 0.0 and bv > 0.0


def test_data_norms_attained_inside_support():
    # weights grow in r but the profile vanishes: enlarging the scan window
    # beyond support+1 must not change the norms
    data = default_bump(1.0)
    base = data_norms(data)
    wide = data_norms(
        RadialData(u0=data.u0, u1=data.u1, support_radius=2.0, u0_prime=data.u0_prime)
    )
    assert abs(base[0] - wide[0]) < 1e-6 * base[0]


# --------------------------------------------------------------- linear decay

def test_linear_decay_default_datum():
    report = linear_decay_check(default_bump(1.0), horizon=40.0, step=0.5)
    assert report.passed
    assert math.isfinite(report.fitted_constant) and report.fitted_constant > 0.0


def test_linear_decay_zero_data_vacuous():
    zero = RadialData(u0=lambda r: 0.0, u1=lambda r: 0.0, support_radius=1.0,
                      u0_prime=lambda r: 0.0)
    report = linear_decay_check(zero, horizon=10.0)
    assert report.passed and report.fitted_constant == 0.0


def test_linear_decay_builds_the_u1_table_once():
    calls = []
    base = default_bump(0.01)

    def u1(r):
        calls.append(r)
        return base.u1(r)

    assert linear_decay_check(replace(base, u1=u1), 100.0).passed
    assert len(calls) < 30000


def test_linear_decay_stable_under_longer_horizon():
    short = linear_decay_check(default_bump(1.0), horizon=40.0, step=0.5)
    long = linear_decay_check(default_bump(1.0), horizon=80.0, step=0.5)
    assert abs(long.fitted_constant - short.fitted_constant) < 0.1 * short.fitted_constant


def test_linear_decay_constant_is_datum_independent():
    # two unrelated data sets of comparable norms should fit constants of the
    # same order; the bound's constant must not hide datum-specific growth
    from wavecrit.solver import velocity_bump

    displacement = linear_decay_check(default_bump(1.0), horizon=40.0, step=0.5)
    velocity = linear_decay_check(velocity_bump(1.0), horizon=40.0, step=0.5)
    assert displacement.passed and velocity.passed
    ratio = displacement.fitted_constant / velocity.fitted_constant
    assert 0.2 <= ratio <= 5.0


# --------------------------------------------------------------- key integral

def test_key_integral_zero_window():
    res = key_integral(0.0, 0.1, make_spec(PowerLaw(1.0)))
    assert res.value == 0.0


def test_key_integral_symmetric():
    spec = make_spec(PowerLaw(1.0))
    assert key_integral(-100.0, 0.1, spec).value == key_integral(100.0, 0.1, spec).value


def test_key_integral_ratio_bounded():
    spec = make_spec(PowerLaw(1.0))
    ratios = [key_integral(xi, 0.05, spec).ratio for xi in (10.0, 100.0, 1e3, 1e4)]
    assert max(ratios) / min(ratios) <= 50.0


def test_key_integral_validates_eps0():
    with pytest.raises(ValueError):
        key_integral(10.0, 1.5, make_spec(PowerLaw(1.0)))


def test_key_integral_domain_propagates():
    # double-log family with eps0 too large pushes the modulus argument
    # beyond its near-zero regime
    spec = make_spec(DoubleLogGlobal(-1.0))
    with pytest.raises(ValueError):
        key_integral(10.0, 0.9, spec)


# --------------------------------------------------------------------- zones

def test_zone_classification():
    assert classify_zone(100.0, 10.0) == "I"
    assert classify_zone(0.5, 0.9) == "II"
    assert classify_zone(150.0, 100.0) == "III"
    with pytest.raises(ValueError):
        classify_zone(-1.0, 5.0)


def test_zone_bound_prescribed_samples():
    report = zone_bound_check(make_spec(PowerLaw(1.0)), 0.1,
                              [(100.0, 10.0), (0.5, 0.9), (150.0, 100.0)])
    assert report.passed
    zones = {row[0] for row in report.samples}
    assert zones == {"I", "II", "III"}


def test_zone_bound_rejects_axis_sample():
    with pytest.raises(ValueError):
        zone_bound_check(make_spec(PowerLaw(1.0)), 0.1, [(1.0, 0.0)])


# ------------------------------------------------------------- decay profile

def test_decay_profile_zero_run():
    zero = RadialData(u0=lambda r: 0.0, u1=lambda r: 0.0, support_radius=1.0,
                      u0_prime=lambda r: 0.0)
    run = march(zero, make_spec(PowerLaw(1.0)), CharacteristicGrid.cover(0.0625, 5.0, 1.0))
    report = decay_profile_check(run)
    assert report.passed and report.fitted_constant == 0.0


def test_decay_profile_small_data_run():
    run = march(default_bump(0.01), make_spec(PowerLaw(1.0)),
                CharacteristicGrid.cover(0.0625, 20.0, 1.0))
    report = decay_profile_check(run)
    assert report.passed
    # definitional identity with the weighted sup norm
    a, b = data_norms(run.data)
    assert abs(report.fitted_constant * (a + b) - weighted_sup_norm(run)) < 1e-9
    # norms handed in by the caller give the same report
    assert decay_profile_check(run, (a, b)) == report


def test_decay_profile_rejects_blown_up_run():
    spec = make_spec(LogPower(0.2, 10.0))
    run = march(default_bump(5.0), spec, CharacteristicGrid.cover(0.02, 10.0, 1.0), cap=1e6)
    assert run.status == "blew_up"
    with pytest.raises(ValueError):
        decay_profile_check(run)
