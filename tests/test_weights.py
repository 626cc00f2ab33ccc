import math
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavecrit.exponents import strauss_exponent
from wavecrit.modulus import (
    DoubleLogGlobal,
    IteratedLogBlowup,
    LogOnePlus,
    LogPower,
    PowerLaw,
    TripleLogGlobal,
    make_spec,
)
from wavecrit import weights
from wavecrit.reporting import BLOCK_ELEMENTS, row_blocks
from wavecrit.solver import (
    CharacteristicGrid,
    RadialData,
    default_bump,
    march,
    velocity_bump,
)
from wavecrit.weights import (
    _block_maxima,
    _cone_tables,
    _cone_weight,
    bracket,
    classify_zone,
    data_norms,
    decay_profile_check,
    key_integral,
    linear_decay_check,
    log_weight,
    zone_bound_check,
)

from oracles import (
    key_integral_mp,
    key_integral_quad,
    linear_propagator,
    march_field,
    march_level_by_level,
    zone_value_mp,
    zone_value_quad,
)
from test_solver import counted_profiles

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

def _field_maxima(field, h=0.1):
    """The cone-weighted maxima of a synthetic field of levels 0, 1, ...,
    reduced as one block (the cone of its data covers every node)."""
    grid = CharacteristicGrid(h=h, t_levels=field.shape[0] - 1, r_nodes=field.shape[1])
    return _block_maxima(grid, default_bump(0.0), _cone_tables(grid), 0, field)


def test_sup_norm_zero_run():
    assert _field_maxima(np.zeros((5, 8))).tolist() == [0.0] * 5


def test_sup_norm_single_point():
    delta = 0.37
    field = np.zeros((4, 6))
    field[0, 0] = delta
    kappa = 1.0 + 1.0 / P3
    expected = log_weight(3.0) * 3.0 * 3.0 ** (kappa - 1.0) * delta
    assert abs(_field_maxima(field).max() - expected) < 1e-14


def test_sup_norm_monotone_under_domination():
    rng = np.random.default_rng(5)
    small = rng.uniform(-1.0, 1.0, (6, 9))
    large = small * rng.uniform(1.0, 2.0, small.shape)
    assert np.all(_field_maxima(np.abs(small)) <= _field_maxima(np.abs(large)))


# --------------------------------------------------------------- data norms

def test_data_norms_zero():
    zero = RadialData(u0=np.zeros_like, u1=np.zeros_like, support_radius=1.0,
                      u0_prime=np.zeros_like)
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
    report = linear_decay_check(default_bump(1.0), horizon=40.0)
    assert report.passed
    assert math.isfinite(report.fitted_constant) and report.fitted_constant > 0.0


def test_linear_decay_zero_data_vacuous():
    zero = RadialData(u0=np.zeros_like, u1=np.zeros_like, support_radius=1.0,
                      u0_prime=np.zeros_like)
    report = linear_decay_check(zero, horizon=10.0)
    assert report.passed and report.fitted_constant == 0.0


def test_linear_decay_builds_the_u1_table_once():
    calls = []
    base = default_bump(0.01)

    def u1(r):
        calls.append(r)
        return base.u1(r)

    assert linear_decay_check(replace(base, u1=u1), 100.0).passed
    assert len(calls) == 2  # the free wave and the data_norms scan


def test_decay_profile_check_calls_each_profile_twice():
    # once for the march's free wave and once for the data_norms scan
    data, calls = counted_profiles(default_bump(0.01))
    run, report = decay_profile_check(data, make_spec(PowerLaw(1.0)),
                                      CharacteristicGrid.cover(0.0625, 5.0, 1.0))
    assert run.status == "completed" and report is not None
    assert calls == {"u0": 2, "u1": 2, "u0_prime": 2}


def band_nodes(t, radii):
    # the nodes the check reads at time t for support radius 1: the lattice
    # at h = 1/16, every second node, inside the Huygens band |r - t| <= 1
    return (np.abs(radii - t) <= 1.0) & (np.arange(len(radii)) % 2 == 0)


def scaled(data, radius):
    # ``data`` stretched from support radius 1 to ``radius``
    return RadialData(u0=lambda r: data.u0(r / radius), u1=lambda r: data.u1(r / radius),
                      support_radius=radius, u0_prime=lambda r: data.u0_prime(r / radius) / radius,
                      amplitude=data.amplitude)


@pytest.mark.parametrize("data, m", [
    (default_bump(1.0), 2), (velocity_bump(1.0), 2),
    (scaled(default_bump(1.0), 0.7), 3), (scaled(velocity_bump(1.0), 0.7), 3),
], ids=["displacement", "velocity", "displacement-0.7", "velocity-0.7"])
def test_linear_decay_reads_the_march_free_part(data, m):
    # the check and a linear march share one free-wave reader: the same level
    # maxima, bit for bit, on every m-th node (h = 1/(8m)) of the band of
    # half-width floor(8R)/8, the axis included where the band reaches it and
    # weighed with the rest of the band in one array call
    report = linear_decay_check(data, horizon=10.0)
    h = 0.125 / m
    run, field = march_field(data, None, CharacteristicGrid.cover(h, 10.0, data.support_radius))
    half_band = m * math.floor(data.support_radius / 0.125)
    nodes = np.arange(run.grid.r_nodes)
    for t, level_max in report.samples:
        i = int(round(t / h))
        assert t == run.times[i]
        band = (np.abs(nodes - i) <= half_band) & (nodes % m == 0)
        level, r = field[i, band], run.radii[band]
        assert level_max == np.max(_cone_weight(t, r) * np.abs(level))


def test_linear_decay_velocity_near_oracle():
    # with u1 != 0 the maxima carry the lattice's O(h^2) u1 error (2.6e-3
    # relative at h = 1/16, measured)
    data = velocity_bump(1.0)
    report = linear_decay_check(data, horizon=10.0)
    radii = np.arange(0.0, 11.0 + 1e-9, 1.0 / 16.0)
    for t, level_max in report.samples:
        r = radii[band_nodes(t, radii)]
        oracle = np.max(_cone_weight(t, r) * np.abs([linear_propagator(data, t, x) for x in r]))
        assert abs(level_max - oracle) <= 5e-3 * oracle


def test_linear_decay_refuses_what_march_refuses():
    with pytest.raises(ValueError, match="vanish beyond the support"):
        linear_decay_check(replace(default_bump(1.0), support_radius=0.5), horizon=2.0)


def test_linear_decay_refuses_a_horizon_past_memory(monkeypatch, traced_peak):
    # 1e300 asked np.arange for 2e300 times and was refused only by numpy's size limit
    with pytest.raises(ValueError, match=r"horizon=1e\+300: \d+ samples .* bytes of physical memory"):
        linear_decay_check(default_bump(1.0), 1e300)
    # at 1 byte of memory a small horizon is refused before its times or its free wave
    # exist: no profile is called, and less is traced than its 2001 times alone would take
    data, calls = counted_profiles(default_bump(1.0))
    monkeypatch.setattr(os, "sysconf", lambda name: 1)

    def refused():
        with pytest.raises(ValueError, match=r"horizon=1000.0: 2001 samples and a free wave of "
                                             r"16001 x 16018 levels allocates \d+ bytes, "
                                             r"more than the 1 bytes"):
            linear_decay_check(data, 1000.0)

    _, peak = traced_peak(refused)
    assert not calls and peak < 8 * 2001


def test_linear_decay_stable_under_longer_horizon():
    short = linear_decay_check(default_bump(1.0), horizon=40.0)
    long = linear_decay_check(default_bump(1.0), horizon=80.0)
    assert abs(long.fitted_constant - short.fitted_constant) < 0.1 * short.fitted_constant


def test_linear_decay_constant_is_datum_independent():
    # two unrelated data sets of comparable norms should fit constants of the
    # same order; the bound's constant must not hide datum-specific growth
    displacement = linear_decay_check(default_bump(1.0), horizon=40.0)
    velocity = linear_decay_check(velocity_bump(1.0), horizon=40.0)
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


def test_key_integral_refuses_nonfinite_xi():
    for xi in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="xi must be finite"):
            key_integral(xi, 0.05, make_spec(PowerLaw(1.0)))


def test_key_integral_domain_propagates():
    # double-log family with eps0 too large pushes the modulus argument
    # beyond its near-zero regime
    spec = make_spec(DoubleLogGlobal(-1.0))
    with pytest.raises(ValueError):
        key_integral(10.0, 0.9, spec)


@pytest.mark.parametrize("xi", [10.0, 1e4, 1e8, 1e12])
def test_key_integral_matches_mpmath(xi):
    # 1e8 is where adaptive quadrature over the whole window lost the peak
    # at eta = 0 and returned 5.04e-5 for 0.04599
    spec = make_spec(PowerLaw(1.0))
    assert key_integral(xi, 0.05, spec).value == pytest.approx(
        key_integral_mp(xi, 0.05, spec), rel=1e-12)


def _benchmark_xi_lists(monkeypatch):
    """The key-integral xi lists of the lemma-suite benchmark, seeds 0-20."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    return [[float(x) for x in workloads.build("lemma-suite", seed).inputs["xi_list"].split(",")]
            for seed in range(21)]


@pytest.mark.parametrize("family", [PowerLaw(1.0), DoubleLogGlobal(-1.0)])
def test_key_integral_matches_quad_on_the_benchmark_lists(monkeypatch, family):
    spec = make_spec(family)
    for xi_list in _benchmark_xi_lists(monkeypatch):
        for xi in xi_list:
            assert key_integral(xi, 0.05, spec).value == pytest.approx(
                key_integral_quad(xi, 0.05, spec), rel=1e-11)


def test_key_integral_refuses_a_sum_that_does_not_converge(monkeypatch):
    monkeypatch.setattr(weights, "_MAX_PANELS", 2)
    with pytest.raises(ValueError, match=r"did not converge at xi=100000000\.0"):
        key_integral(1e8, 0.05, make_spec(PowerLaw(1.0)))


def test_key_integral_near_the_float_maximum():
    # the rule converges far past the benchmark's xi; near the float maximum
    # the modulus argument underflows and the sum is refused by name
    spec = make_spec(DoubleLogGlobal(-1.0))
    res = key_integral(1e200, 0.05, spec)
    assert math.isfinite(res.value) and math.isfinite(res.ratio)
    for xi in (1e308, -1.7e308):
        with pytest.raises(ValueError, match=f"did not converge at xi={re.escape(str(xi))}"):
            key_integral(xi, 0.05, spec)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family, tau0, message", [
    # mu is past the largest float on the window, so the sum is inf
    (IteratedLogBlowup(1e300), 0.1, "integrand is not finite on the window"),
    # mu(eps0/<xi>) underflows to 0, and the ratio would divide by it
    (LogPower(2.0, 5e-324), None, "threshold product underflows to 0"),
], ids=["integrand-not-finite", "threshold-product-underflow"])
def test_key_integral_refuses_by_cause_and_xi(family, tau0, message):
    with pytest.raises(ValueError, match=rf"{message} at xi=10\.0"):
        key_integral(10.0, 0.05, make_spec(family, tau0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family, xi, eps0, message", [
    # the product is 5e-324 and the bound it scales underflows: was a ZeroDivisionError
    (LogPower(0.3, 5e-324), 1e-12, 0.05, "the ratio's bound underflows to 0"),
    # the sum passes the largest float: nan, then inf, each after a RuntimeWarning
    (LogPower(1e-12, 1.7e308), 1e-300, 0.05, "integrand is not finite on the window"),
    (LogPower(2.2e-308, 1.7e308), 1.7e308, 0.05, "integrand is not finite on the window"),
    # tau = eps0/<xi> underflows: was "threshold product needs 0 < tau < 1", naming no xi
    (PowerLaw(1.0), 1.7e308, 5e-324, "threshold product underflows to 0"),
], ids=["bound-underflow", "sum-nan-at-tiny-xi", "sum-inf-at-huge-xi", "tau-underflow"])
def test_key_integral_refuses_at_the_float_range_edges(family, xi, eps0, message):
    with pytest.raises(ValueError, match=rf"{message} at xi={re.escape(str(xi))}"):
        key_integral(xi, eps0, make_spec(family))


# --------------------------------------------------------------------- zones

def test_zone_classification():
    assert classify_zone(100.0, 10.0) == "I"
    assert classify_zone(0.5, 0.9) == "II"
    assert classify_zone(150.0, 100.0) == "III"
    with pytest.raises(ValueError):
        classify_zone(-1.0, 5.0)


@pytest.mark.parametrize("t, r", [(-5.0, 0.5), (-0.5, 0.9), (1.0, -0.5), (math.nan, 0.5)])
def test_zone_refuses_a_sample_before_t_0(t, r):
    # (-5, 0.5) was zone II, and its window, wholly before t = 0, a passing sample
    with pytest.raises(ValueError, match=r"zone samples need t, r >= 0"):
        classify_zone(t, r)
    with pytest.raises(ValueError, match=r"zone samples need"):
        zone_bound_check(make_spec(PowerLaw(1.0)), 0.1, [(t, r)])


@pytest.mark.parametrize("t, r", [(math.inf, 1.0), (1.0, math.inf)], ids=["t-inf", "r-inf"])
def test_zone_refuses_a_sample_that_is_not_finite(t, r):
    # (inf, 1) failed with constant 0 beside a nan row, since max(0.0, nan) is 0;
    # (1, inf) lay "in no zone", naming neither value
    with pytest.raises(ValueError, match=f"^zone samples need finite t and r, got t={t}, r={r}$"):
        zone_bound_check(make_spec(PowerLaw(1.0)), 0.1, [(t, r)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps0, sample, message", [
    # t + r overflows: "invalid value encountered in add" from the window's quadrature
    (0.05, (1.7e308, 1.7e308), r"^zone sample t \+ r overflows at t=1\.7e\+308"),
    (0.05, (np.float64(1.7e308), np.float64(1.7e308)), r"^zone sample t \+ r overflows"),
    # eps0 / <xi> is 0 on the whole window: was "threshold product needs 0 < tau < 1"
    (5e-324, (10.0, 5.0), r"^eps0=4\.94066e-324 / <t \+ r> underflows to 0 at t=10\.0, r=5\.0"),
], ids=["window-overflows", "window-overflows-numpy", "tau-underflows"])
def test_zone_refuses_a_sample_at_the_float_range_edges(eps0, sample, message):
    with pytest.raises(ValueError, match=message):
        zone_bound_check(make_spec(PowerLaw(1.0)), eps0, [sample])


def test_zone_bound_prescribed_samples():
    report = zone_bound_check(make_spec(PowerLaw(1.0)), 0.1,
                              [(100.0, 10.0), (0.5, 0.9), (150.0, 100.0)])
    assert report.passed
    zones = {row[0] for row in report.samples}
    assert zones == {"I", "II", "III"}


@pytest.mark.parametrize("family", [PowerLaw(1.0), DoubleLogGlobal(-1.0),
                                    TripleLogGlobal(-0.5), LogOnePlus(1.0)])
def test_zone_bound_matches_quad(family):
    # verify-global's and criterion 10's samples, then a window whose part
    # below 0 is the longer one; eps0 keeps eps0 / <xi> <= tau0
    spec = make_spec(family)
    eps0 = min(0.05, spec.tau0)
    samples = [(100.0, 10.0), (0.5, 0.9), (150.0, 100.0), (0.1, 1.0)]
    report = zone_bound_check(spec, eps0, samples)
    assert report.passed
    for (_, t, r, value) in report.samples:
        assert value == pytest.approx(zone_value_quad(spec, eps0, t, r), rel=1e-12)


@pytest.mark.parametrize("family", [PowerLaw(1.0), DoubleLogGlobal(-1.0)])
@pytest.mark.parametrize("t, r", [(1e12, 1e12), (1e6, 1e6)])
def test_zone_bound_matches_mpmath_on_a_wide_window(family, t, r):
    # windows [0, 2e12] and [0, 2e6] of 12 and 6 decades, each decade its own interval
    spec = make_spec(family)
    eps0 = min(0.05, spec.tau0)
    report = zone_bound_check(spec, eps0, [(t, r)])
    assert report.passed
    assert report.samples[0][3] == pytest.approx(zone_value_mp(spec, eps0, t, r), rel=1e-10)


def test_zone_bound_rejects_axis_sample():
    with pytest.raises(ValueError):
        zone_bound_check(make_spec(PowerLaw(1.0)), 0.1, [(1.0, 0.0)])


# ------------------------------------------------------------- decay profile

def test_decay_profile_zero_run():
    zero = RadialData(u0=np.zeros_like, u1=np.zeros_like, support_radius=1.0,
                      u0_prime=np.zeros_like)
    _, report = decay_profile_check(zero, make_spec(PowerLaw(1.0)),
                                    CharacteristicGrid.cover(0.0625, 5.0, 1.0))
    assert report.passed and report.fitted_constant == 0.0


def test_decay_profile_small_data_run():
    run, field = march_field(default_bump(0.01), make_spec(PowerLaw(1.0)),
                             CharacteristicGrid.cover(0.0625, 20.0, 1.0))
    a, b = data_norms(run.data)
    streamed, report = decay_profile_check(run.data, run.spec, run.grid)
    assert report.passed and streamed.field.nbytes == 0
    # definitional identity with the weighted sup norm of the collected field
    assert abs(report.fitted_constant * (a + b) - _full_field_maxima(run.grid, field).max()) < 1e-9


def test_decay_profile_of_a_blown_up_run_is_none():
    spec = make_spec(LogPower(0.2, 10.0))
    run, report = decay_profile_check(default_bump(5.0), spec,
                                      CharacteristicGrid.cover(0.02, 10.0, 1.0), cap=1e6)
    assert run.status == "blew_up" and report is None


# the per-level maxima are reduced in blocks cut at the light cone; they
# must equal the full-field formula bit for bit
def _full_field_maxima(grid, field):
    """``_cone_weight``'s formula on every node of ``field``, at the lattice
    distances t - r = h(i - j) and t + r = h(i + j)."""
    i, j = np.arange(len(field))[:, None], np.arange(grid.r_nodes)[None, :]
    tmr, tpr = bracket(grid.h * (i - j)), bracket(grid.h * (i + j))
    weight = log_weight(tmr) * tpr * tmr ** (1.0 / P3)
    return (weight * np.abs(field)).max(axis=1)


def _float_coordinate_maxima(grid, field):
    """``_cone_weight`` at the float coordinates t = ih, r = jh."""
    times, radii = grid.h * np.arange(len(field)), grid.h * np.arange(grid.r_nodes)
    return (_cone_weight(times[:, None], radii[None, :]) * np.abs(field)).max(axis=1)


def _blocked_maxima(grid, field):
    """``_block_maxima`` over the blocks of levels a level stream hands its reduction."""
    tables = _cone_tables(grid)
    return np.concatenate([_block_maxima(grid, default_bump(1.0), tables, b.start, field[b])
                           for b in row_blocks(*field.shape)])


@pytest.mark.parametrize("data, h, horizon", [
    (default_bump(0.3), 0.05, 7.0),  # three blocks, the last one partial
    (default_bump(0.01), 1 / 16, 12.5),
    (velocity_bump(0.5), 1 / 24, 4.0),
], ids=["h0.05", "h1_16", "velocity-h1_24"])
def test_level_maxima_equal_the_full_field_formula(data, h, horizon):
    spec, grid = make_spec(PowerLaw(1.0)), CharacteristicGrid.cover(h, horizon, 1.0)
    run, field = march_field(data, spec, grid)
    assert run.status == "completed"
    _, report = decay_profile_check(data, spec, grid)
    assert [m for _, m in report.samples] == _full_field_maxima(grid, field).tolist()


def _edge_field(grid, levels):
    """A field of ``levels`` levels that is 0 past the cone edge ceil(R/h) +
    1 + i of data of support R = 1 and largest on it."""
    field = np.random.default_rng(7).uniform(-1.0, 1.0, (levels, grid.r_nodes))
    for i, level in enumerate(field):
        edge = min(math.ceil(1.0 / grid.h) + 1 + i, grid.r_nodes - 1)
        level[edge] = 2.0
        level[edge + 1:] = 0.0
    return field


def test_level_maxima_read_up_to_the_cone_edge():
    grid = CharacteristicGrid.cover(0.05, 7.5, 1.0)
    field = _edge_field(grid, grid.t_levels + 1)
    assert _blocked_maxima(grid, field).tolist() == _full_field_maxima(grid, field).tolist()


# one row, one full block of levels, one row over it and many blocks
@pytest.mark.parametrize("full_blocks, rows", [(0, 1), (1, 0), (1, 1), (3, 1)],
                         ids=["one-row", "one-block", "one-row-over", "many-blocks"])
def test_level_maxima_equal_the_full_field_formula_across_block_edges(full_blocks, rows):
    grid = CharacteristicGrid.cover(0.05, 20.0, 1.0)
    field = _edge_field(grid, full_blocks * (BLOCK_ELEMENTS // grid.r_nodes) + rows)
    assert _blocked_maxima(grid, field).tolist() == _full_field_maxima(grid, field).tolist()


# at a dyadic h every lattice coordinate ih, jh, their sum and their difference
# is exact, so the lattice tables give the float-coordinate formula bit for bit
@pytest.mark.parametrize("h", [1 / 8, 1 / 16, 1 / 32])
def test_level_maxima_at_a_dyadic_step_equal_the_float_coordinate_formula(h):
    # a support of 2 is resolved by 16 nodes at h = 1/8 too
    data, spec = replace(default_bump(0.01), support_radius=2.0), make_spec(PowerLaw(1.0))
    grid = CharacteristicGrid.cover(h, 20.0, 2.0)
    _, field = march_field(data, spec, grid)
    _, report = decay_profile_check(data, spec, grid)
    assert [m for _, m in report.samples] == _float_coordinate_maxima(grid, field).tolist()
    grid = CharacteristicGrid.cover(h, 20.0, 1.0)
    edge = _edge_field(grid, grid.t_levels + 1)
    assert _blocked_maxima(grid, edge).tolist() == _float_coordinate_maxima(grid, edge).tolist()


# at another h, t - r is fl(h(i - j)), not fl(ih) - fl(jh): a maximum moves
# in its last bits at most, and on level 0, where both are -fl(jh), not at all
@pytest.mark.parametrize("data, h", [(default_bump(0.3), 0.05), (velocity_bump(0.5), 1 / 24)],
                         ids=["h0.05", "velocity-h1_24"])
def test_level_maxima_at_another_step_stay_near_the_float_coordinate_formula(data, h):
    spec, grid = make_spec(PowerLaw(1.0)), CharacteristicGrid.cover(h, 20.0, 1.0)
    _, field = march_field(data, spec, grid)
    _, report = decay_profile_check(data, spec, grid)
    maxima = np.array([m for _, m in report.samples])
    oracle = _float_coordinate_maxima(grid, field)
    assert maxima[0] == oracle[0]
    assert np.all(np.abs(maxima - oracle) <= 5e-15 * oracle)
    assert np.any(maxima != oracle)  # the two formulas do differ here


def test_decay_check_takes_the_log_once_per_lattice_diagonal(monkeypatch):
    sizes = []

    def counted(tau):
        sizes.append(np.size(tau))
        return log_weight(tau)

    monkeypatch.setattr(weights, "log_weight", counted)
    grid = CharacteristicGrid.cover(1 / 16, 50.0, 1.0)
    decay_profile_check(default_bump(0.01), make_spec(PowerLaw(1.0)), grid)
    # one value per diagonal j - i of the lattice, and the 4097 radii of data_norms,
    # against 655 k nodes of the marched levels
    assert sorted(sizes) == sorted([grid.t_levels + grid.r_nodes, 4097])


def test_decay_check_refuses_a_grid_beyond_memory_before_its_tables():
    grid = CharacteristicGrid.cover(1e-6, 1e6, 1.0)
    with pytest.raises(ValueError, match="bytes"):
        decay_profile_check(default_bump(0.01), make_spec(PowerLaw(1.0)), grid)


def test_decay_reduction_allocates_by_block(traced_peak):
    # temporaries scale with a block of levels, not with the field: the check, its
    # stream, lattice tables, reduction and data norms, peaks at 0.71 MB here, where
    # the field would take 20.7 MB, and under the bound of
    # test_level_stream_stores_no_field at a quarter of the field
    grid = CharacteristicGrid.cover(1 / 16, 100.0, 1.0)
    (run, report), peak = traced_peak(
        lambda: decay_profile_check(default_bump(0.01), make_spec(PowerLaw(1.0)), grid))
    assert run.status == "completed" and len(report.samples) == grid.t_levels + 1
    assert peak < 1.5e6


# differential: the level stream against the level-by-level march of
# ``oracles``, for the linear mode and five families, on grids of one block of
# levels, a block plus or minus one level and several blocks, and on grids
# whose band never leaves the axis; runs complete, cross a cap at a drawn
# level, or are refused past tau0 (iterlog, doublelog)
STREAM_SPECS = {"linear": None, **{name: make_spec(family) for name, family in {
    "powerlaw": PowerLaw(1.0), "log1p": LogOnePlus(1.0), "logpower": LogPower(0.2, 10.0),
    "iterlog": IteratedLogBlowup(1.0), "doublelog": DoubleLogGlobal(-1.0)}.items()}}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_level_stream_equals_the_level_by_level_march(data):
    name = data.draw(st.sampled_from(sorted(STREAM_SPECS)))
    spec = STREAM_SPECS[name]
    # iterated-log amplitudes around tau0; LogPower's velocity data at 3.0 to 4.2, which
    # blow up from level 124 down to level 33, in any block
    scale = spec.tau0 if name in ("iterlog", "doublelog") else 1.0
    low, high = {"iterlog": (-3.0, 0.8), "doublelog": (-3.0, 0.8),
                 "logpower": (0.47, 0.62)}.get(name, (-2.0, 0.8))
    amplitude = scale * 10.0 ** data.draw(st.floats(low, high))
    data_shapes = [velocity_bump] if name == "logpower" else [default_bump, velocity_bump]
    datum = data.draw(st.sampled_from(data_shapes))(amplitude)
    r_nodes = data.draw(st.integers(240, 400))  # covers 3 blocks of levels at h = 1/16
    block = BLOCK_ELEMENTS // r_nodes
    # (blocks, levels over them); 0 blocks: t_levels <= ceil(R/h) + 1, the band never leaves the axis
    k, d = data.draw(st.sampled_from([(0, 0), (1, -1), (1, 0), (1, 1), (2, 0), (3, -1), (3, 1)]))
    levels = k * block + d if k else data.draw(st.integers(2, 18))
    grid = CharacteristicGrid(h=1 / 16, t_levels=levels - 1, r_nodes=r_nodes)
    cap = data.draw(st.sampled_from([1e6, math.inf, None]))
    if cap is None:  # a cap the run crosses at a drawn level past the first, in any block
        try:
            peaks = np.max(np.abs(march_level_by_level(datum, spec, grid, math.inf)[0][1:]), axis=1)
        except ValueError:  # refused past tau0: so is every march below
            peaks = np.ones(1)
        cap = float(np.quantile(peaks[np.isfinite(peaks)], data.draw(st.floats(0.0, 1.0))))
    try:
        field, status, last = march_level_by_level(datum, spec, grid, cap)
    except ValueError:  # refused past tau0: the march and its decay check refuse alike
        with pytest.raises(ValueError) as refused:
            march(datum, spec, grid, cap)
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            decay_profile_check(datum, spec, grid, cap)
        return
    t_detect = last * grid.h if status == "blew_up" else None
    streamed = []

    def keep(i0, rows):
        assert i0 == block * len(streamed)
        streamed.append(rows.copy())

    run = march(datum, spec, grid, cap, reduce=keep)
    assert (run.status, run.t_detect, run.field.shape) == (status, t_detect, (last + 1, 0))
    assert all(len(rows) == block for rows in streamed[:-1])
    assert np.concatenate(streamed).tobytes() == field.tobytes()
    # the block reduction of the stream, nan past a cap of inf included, is the
    # full-field formula's, and the decay check reads it for a completed run only
    tables = _cone_tables(grid)
    maxima = np.concatenate([_block_maxima(grid, datum, tables, block * k, rows)
                             for k, rows in enumerate(streamed)])
    assert np.array_equal(maxima, _full_field_maxima(grid, field), equal_nan=True)
    run, report = decay_profile_check(datum, spec, grid, cap)
    assert (run.status, run.t_detect) == (status, t_detect)
    if run.status == "completed":
        assert [m for _, m in report.samples] == maxima.tolist()
    else:
        assert report is None


def test_level_stream_stores_no_field(traced_peak):
    # the field of this grid would take 5.2 MB; the decay check on its stream peaks at 0.56 MB
    grid = CharacteristicGrid.cover(1 / 16, 50.0, 1.0)
    (run, report), peak = traced_peak(
        lambda: decay_profile_check(default_bump(0.01), make_spec(PowerLaw(1.0)), grid))
    assert run.status == "completed" and run.field.nbytes == 0
    assert len(report.samples) == grid.t_levels + 1
    assert peak < 1.5e6
