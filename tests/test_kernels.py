import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from oracles import kernel_bounds_by_call, kernels_mp, kernels_whole_array
from wavecrit.exponents import kernel_exponent
from wavecrit.reporting import BLOCK_ELEMENTS
from wavecrit.kernels import (
    KernelConfig,
    _i0e,
    _scaled_eigenfunction,
    _source_envelope,
    data_and_source_kernels,
    data_kernel,
    eigenfunction_growth_ratio,
    free_wave_ball_integral,
    kernel_bounds_check,
    laplace_eigenfunction,
    log_laplace_eigenfunction,
    source_kernel,
    sphere_area,
)

Q3 = kernel_exponent(3)
CFG = KernelConfig(n=3, lambda0=1.0, R=1.0, quad_points=4096)


# ------------------------------------------------------------- eigenfunction

def test_eigenfunction_at_origin():
    assert abs(laplace_eigenfunction(3, 0.0) - 4.0 * math.pi) < 1e-12
    assert abs(laplace_eigenfunction(2, 0.0) - 2.0 * math.pi) < 1e-12


def test_eigenfunction_three_dim_closed_form():
    assert abs(laplace_eigenfunction(3, 1.0) - 4.0 * math.pi * math.sinh(1.0)) < 1e-12


def test_eigenfunction_against_quadrature_oracle():
    # oracle: 1-d sphere reduction 2*pi * int_{-1}^{1} e^{r s} ds, adaptively
    r = 1.7
    oracle = 2.0 * math.pi * integrate.quad(lambda s: math.exp(r * s), -1.0, 1.0)[0]
    assert abs(laplace_eigenfunction(3, r) - oracle) < 1e-10 * oracle


def test_eigenfunction_two_dim_against_angle_integral():
    r = 2.5
    oracle = integrate.quad(lambda th: math.exp(r * math.cos(th)), 0.0, 2.0 * math.pi)[0]
    assert abs(laplace_eigenfunction(2, r) - oracle) < 1e-10 * oracle


def test_i0e_is_scipy_bit_for_bit():
    # the Cephes rule scipy runs: both series, the seam at 8 from either side, the
    # subnormal and overflow ends, inf and nan, and dense log and linear grids
    z = np.concatenate([
        [0.0, 5e-324, 1e-300, 1e-8, np.nextafter(8.0, 0.0), 8.0, np.nextafter(8.0, 16.0),
         700.0, 1e300, np.inf, np.nan],
        np.logspace(-320.0, 300.0, 20001),
        np.linspace(0.0, 40.0, 20001),
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = _i0e(z), special.i0e(z)
        scaled = _scaled_eigenfunction(2, z)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(scaled.view(np.int64), (2.0 * math.pi * want).view(np.int64))
    assert got[0] == 1.0 and got[9] == 0.0 and np.isnan(got[10])  # at 0, inf and nan


@pytest.mark.parametrize("r", [0.0, 1e-3, 3.0, 40.0])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_eigenfunction_general_dimension(n, r):
    # oracle: the 1-d sphere reduction |S^{n-2}| int e^{r s} (1 - s^2)^{(n-3)/2} ds,
    # adaptively, with the algebraic endpoint weight and e^r taken out
    alpha = 0.5 * (n - 3)
    oracle = sphere_area(n - 2) * math.exp(r) * integrate.quad(
        lambda s: math.exp(r * (s - 1.0)), -1.0, 1.0, weight="alg",
        wvar=(alpha, alpha), epsabs=0.0, epsrel=1e-13,
    )[0]
    assert abs(laplace_eigenfunction(n, r) - oracle) <= 1e-12 * oracle
    assert abs(log_laplace_eigenfunction(n, r) - math.log(oracle)) <= 1e-12 * max(
        1.0, abs(math.log(oracle)))


def test_eigenfunction_monotone():
    for n in (2, 3):
        vals = laplace_eigenfunction(n, np.linspace(0.0, 50.0, 400))
        assert np.all(np.diff(vals) > 0.0)


def test_eigenfunction_rejects_negative_radius():
    with pytest.raises(ValueError):
        laplace_eigenfunction(3, -1.0)


@pytest.mark.parametrize("n", [4, 5])
def test_eigenfunction_general_dimension_elementwise(n):
    # the Bessel branch must broadcast over a lam x r table
    radii = np.array([[0.0, 0.5, 2.0], [3.0, 7.5, 40.0]])
    for fn in (laplace_eigenfunction, log_laplace_eigenfunction):
        got = fn(n, radii)
        scalar = np.array([[fn(n, x) for x in row] for row in radii])
        assert got.shape == radii.shape
        assert np.max(np.abs(got - scalar) / np.abs(scalar)) <= 1e-14


def test_data_kernel_general_dimension_memory(traced_peak):
    # the n >= 4 eigenfunction is elementwise: no per-radius quadrature array
    radii = np.linspace(0.0, 2.0, 100)
    assert traced_peak(lambda: data_kernel(KernelConfig(n=4), kernel_exponent(4), 1.0, radii))[1] < 30e6


def test_data_kernel_general_dimension_matches_scalar_calls():
    cfg = KernelConfig(n=4, lambda0=1.0, R=1.0, quad_points=64)
    q = kernel_exponent(4)
    radii = np.linspace(0.0, 2.0, 5)
    got = data_kernel(cfg, q, 1.5, radii)
    scalar = np.array([data_kernel(cfg, q, 1.5, x) for x in radii])
    assert np.max(np.abs(got - scalar) / scalar) <= 1e-14


def test_growth_ratio_three_dim():
    assert abs(eigenfunction_growth_ratio(3, 20.0) - 2.0 * math.pi) < 1e-8
    big = eigenfunction_growth_ratio(3, 5000.0)  # far beyond naive overflow
    assert abs(big - 2.0 * math.pi) < 1e-10


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_growth_ratio_general_dimension_far_out(n):
    # phi_n(r) r^{(n-1)/2} e^{-r} -> (2 pi)^{(n-1)/2}, with a relative O(1/r)
    # correction of (n^2 - 4n + 3) / (8r), at most 6e-4 for n <= 7 at r = 5000
    limit = (2.0 * math.pi) ** (0.5 * (n - 1))
    assert abs(eigenfunction_growth_ratio(n, 5000.0) / limit - 1.0) <= 1e-3


def test_growth_ratio_two_dim_stabilizes():
    vals = [eigenfunction_growth_ratio(2, r) for r in (10.0, 20.0, 40.0)]
    assert max(vals) / min(vals) < 1.05


# -------------------------------------------------------------- ball integral

def closed_ball_three(R, t):
    z = R + t
    return 16.0 * math.pi**2 * math.exp(-t) * (z * math.cosh(z) - math.sinh(z))


def test_ball_integral_closed_form():
    got = free_wave_ball_integral(3, 1.0, 0.0)
    assert abs(got - closed_ball_three(1.0, 0.0)) < 1e-9 * got
    assert abs(got - 16.0 * math.pi**2 * math.exp(-1.0)) < 1e-9 * got


def test_ball_integral_adaptive_oracle():
    def integrand(z, t):
        return 4.0 * math.pi * z * z * laplace_eigenfunction(3, z) * math.exp(-t)

    for t in (0.5, 7.0):
        oracle = integrate.quad(integrand, 0.0, 1.0 + t, args=(t,), limit=200)[0]
        got = free_wave_ball_integral(3, 1.0, t)
        assert abs(got - oracle) < 1e-8 * oracle


@pytest.mark.parametrize("n", [2, 3])
def test_ball_integral_growth_bracket(n):
    ratios = [
        free_wave_ball_integral(n, 1.0, t) / (1.0 + t) ** ((n - 1) / 2.0)
        for t in np.linspace(0.0, 100.0, 101)
    ]
    assert min(ratios) > 0.0
    assert max(ratios) / min(ratios) <= 20.0


@pytest.mark.parametrize("R, t", [(1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0),
                                  (1.0, math.inf), (0.0, 1.0), (1.0, -0.5)])
def test_ball_integral_refuses_bad_radius_or_time_by_name(R, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"got R={R}, t={t}"):
            free_wave_ball_integral(3, R, t)


def test_ball_integral_shrunk_lower_bound():
    # restricting the radial integral to [t, R+t] already carries the growth
    for t in (5.0, 40.0):
        zeta = np.linspace(t, 1.0 + t, 2001)
        vals = 4.0 * math.pi * zeta**2 * laplace_eigenfunction(3, zeta) * math.exp(-t)
        shrunk = np.trapezoid(vals, zeta)
        assert shrunk / (1.0 + t) > 1.0  # strictly positive fixed fraction


# ------------------------------------------------------------------ kernels

def test_data_kernel_incomplete_gamma_oracle():
    got = data_kernel(CFG, Q3, 0.0, 0.0)
    oracle = (
        4.0
        * math.pi
        * special.gammainc(Q3 + 1.0, CFG.R * CFG.lambda0)
        * special.gamma(Q3 + 1.0)
        / CFG.R ** (Q3 + 1.0)
    )
    assert abs(got - oracle) < 1e-6 * oracle


def test_flat_exponent_kernel():
    # q = 0 and a formally tiny R: integral approaches lam0 * phi(0)
    cfg = KernelConfig(n=3, lambda0=1.0, R=1e-9, quad_points=4096)
    got = data_kernel(cfg, 0.0, 0.0, 0.0)
    assert abs(got - 4.0 * math.pi) < 1e-6 * 4.0 * math.pi


def test_kernels_coincide_at_origin_time():
    assert source_kernel(CFG, Q3, 0.0, 0.0, 0.0) == data_kernel(CFG, Q3, 0.0, 0.0)


def test_source_kernel_rows_match_scalar_calls():
    # one row per s, including s = 0 and s = t; t = 800 puts lam (t - s)
    # past sinh's overflow, where only the difference form is finite
    radii = np.linspace(0.0, 3.0, 7)
    for t in (2.5, 800.0):
        s = np.array([0.0, 1e-6, 0.3 * t, t - 5e-5, t])
        rows = source_kernel(CFG, Q3, t, s, radii)
        assert rows.shape == (s.size, radii.size) and np.all(np.isfinite(rows))
        for row, sk in zip(rows, s):
            scalar = source_kernel(CFG, Q3, t, sk, radii)
            assert np.max(np.abs(row - scalar) / np.abs(scalar)) <= 1e-14
        column = source_kernel(CFG, Q3, t, s, 0.7)
        scalar = np.array([source_kernel(CFG, Q3, t, sk, 0.7) for sk in s])
        assert column.shape == s.shape
        assert np.max(np.abs(column - scalar) / scalar) <= 1e-14


def test_source_kernel_diagonal_formula():
    # at s = t the time factor is identically 1
    t, r = 3.0, 0.8
    lam = CFG.lambda0 * (np.arange(CFG.quad_points + 1) / CFG.quad_points) ** 3
    integrand = np.exp(-lam * (CFG.R + t)) * laplace_eigenfunction(3, lam * r) * lam**Q3
    oracle = np.trapezoid(integrand[1:], lam[1:])
    got = source_kernel(CFG, Q3, t, t, r)
    assert abs(got - oracle) < 1e-6 * abs(got)


def test_source_kernel_domain_errors():
    with pytest.raises(ValueError):
        source_kernel(CFG, Q3, 1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        source_kernel(CFG, Q3, 1.0, np.array([0.0, 1.0 + 1e-12]), 0.0)
    with pytest.raises(ValueError):
        data_kernel(CFG, -1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        data_kernel(CFG, Q3, -0.5, 0.0)


def test_config_refuses_nonfinite_lambda0_or_radius():
    for fields in ({"lambda0": math.nan}, {"lambda0": math.inf}, {"R": math.nan}, {"R": 0.0}):
        with pytest.raises(ValueError, match="positive and finite"):
            KernelConfig(**fields)


def test_source_envelope_against_mpmath():
    # with lam = z, t = 1, s = 0 and m = R the envelope is e^{-z} sinh(z)/z alone, which
    # a difference of exponentials loses to cancellation at small z (1.9e-13 at 1.01e-4)
    zs = np.array([0.0, 1e-300, 1e-8, 0.99e-4, 1.01e-4, 1e-3, 0.1, 1.0, 30.0])
    got = _source_envelope(CFG, 1.0, 0.0, zs, CFG.R)[0]
    with mpmath.workdps(40):
        want = np.array([float(mpmath.exp(-z) * mpmath.sinh(z) / z) if z else 1.0
                         for z in map(mpmath.mpf, zs)])
    assert np.all(np.abs(got - want) <= 1e-15 * want)
    # at s = t the sinh factor is exactly 1
    lam = np.linspace(0.0, 2.0, 9)
    assert np.array_equal(_source_envelope(CFG, 2.0, 2.0, lam, 0.5)[0],
                          np.exp(-lam * (CFG.R + 2.0 - 0.5)))


def test_kernels_refuse_non_finite_times_by_name():
    cfg = KernelConfig(n=3, quad_points=64)
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"t={t}"):
            data_kernel(cfg, 0.5, t, 0.3)
        with pytest.raises(ValueError, match=f"t={t}"):
            source_kernel(cfg, 0.5, t, 1.0, 0.3)
    for s in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ValueError, match="s=nan"):
            source_kernel(cfg, 0.5, 1.0, s, 0.3)


def test_source_kernel_continuous_across_seam():
    t = 2.0
    a = source_kernel(CFG, Q3, t, t - 1.0001e-4, 0.5)
    b = source_kernel(CFG, Q3, t, t - 0.9999e-4, 0.5)
    assert abs(a - b) < 1e-10


def test_mesh_refinement_stability():
    for maker, args in (
        (data_kernel, (Q3, 5.0, 0.7)),
        (source_kernel, (Q3, 5.0, 2.0, 1.3)),
    ):
        coarse = maker(KernelConfig(3, 1.0, 1.0, 16384), *args)
        fine = maker(KernelConfig(3, 1.0, 1.0, 32768), *args)
        assert abs(coarse / fine - 1.0) < 1e-8


def test_quad_points_floor():
    with pytest.raises(ValueError):
        KernelConfig(3, 1.0, 1.0, 8)


# ------------------------------------------------------------- bound sweeps

@pytest.mark.parametrize("n", [2, 3])
def test_kernel_bounds_pass(n):
    cfg = KernelConfig(n=n, lambda0=1.0, R=1.0, quad_points=1024)
    report = kernel_bounds_check(cfg, kernel_exponent(n))
    assert report.passed
    for c in (report.a0, report.b0, report.b1, report.b2):
        assert math.isfinite(c) and c > 0.0


def test_bound_at_origin_is_kernel_value():
    cfg = KernelConfig(n=3, lambda0=1.0, R=1.0, quad_points=1024)
    report = kernel_bounds_check(cfg, Q3)
    assert report.a0 <= data_kernel(cfg, Q3, 0.0, 0.0) + 1e-12


@pytest.mark.parametrize("quad_points", [64, 1024])
@pytest.mark.parametrize("lambda0", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernel_bounds_equal_the_call_by_call_sweep(n, lambda0, quad_points):
    # one table per distinct radius set gives every constant and every
    # sample of one table per kernel call, bit for bit
    cfg = KernelConfig(n=n, lambda0=lambda0, R=1.0, quad_points=quad_points)
    got = kernel_bounds_check(cfg, kernel_exponent(n))
    ref = kernel_bounds_by_call(cfg, kernel_exponent(n))
    assert (got.a0, got.b0, got.b1, got.b2) == (ref.a0, ref.b0, ref.b1, ref.b2)
    assert got.passed == ref.passed and got.region == ref.region
    assert got.samples == ref.samples and len(got.samples) == 40 * 21 + 41


def test_paired_kernels_equal_the_two_kernel_calls():
    s, r = np.array([0.0, 0.7, 2.5]), np.linspace(0.0, 3.0, 7)
    data, source = data_and_source_kernels(CFG, Q3, 2.5, s, r)
    assert data.tobytes() == data_kernel(CFG, Q3, 2.5, r).tobytes()
    assert source.tobytes() == source_kernel(CFG, Q3, 2.5, s, r).tobytes()


# the (quad_points x len(r)) table and the (len(s) x quad_points) envelope are filled in
# row_blocks: at FULL quad points 8 radii or 8 times fill one block exactly and 9 take
# a second, FULL + 1 points take one table row over, and the last two take many blocks
FULL = BLOCK_ELEMENTS // 8


@pytest.mark.parametrize("quad_points, n_s, n_r", [
    (FULL, 1, 1), (FULL, 8, 8), (FULL, 9, 9), (FULL + 1, 8, 8), (2048, 161, 193),
    (64, 1025, 1025)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernels_equal_the_whole_array_fills(n, quad_points, n_s, n_r):
    cfg, q, t = KernelConfig(n=n, quad_points=quad_points), kernel_exponent(n), 2.5
    s, r = np.linspace(0.0, t, n_s), np.linspace(0.0, 3.0, n_r)
    data, source = data_and_source_kernels(cfg, q, t, s, r)
    ref_data, ref_source = kernels_whole_array(cfg, q, t, s, r)
    assert data.tobytes() == ref_data.tobytes() and source.tobytes() == ref_source.tobytes()
    assert source_kernel(cfg, q, t, s, r).tobytes() == ref_source.tobytes()


def test_only_a_kernel_value_past_the_float_range_is_refused():
    # phi(3, 800) and phi(3, 14 * 51) pass the largest float, but the kernels there do
    # not; at s = 0 the source kernel at r = 800 is about e^{799}, and at lam0 = 1e300
    # the rule's lam0^{q+1} passes the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diag = source_kernel(KernelConfig(n=3, quad_points=64), Q3, 800.0, 800.0, 800.0)
        wide = data_kernel(KernelConfig(n=3, lambda0=14.0, quad_points=64), Q3, 1.0, 51.0)
        assert 0.0 < diag < math.inf and 0.0 < wide < math.inf
        with pytest.raises(ValueError, match=r"lambda0=1 .* radius 800 past the float range"):
            source_kernel(KernelConfig(n=3, quad_points=64), Q3, 800.0, 0.0, 800.0)
        with pytest.raises(ValueError, match=r"lambda0=1e\+300 .* radius 0\.5 past the float"):
            data_kernel(KernelConfig(n=3, lambda0=1e300, quad_points=64), Q3, 1.0, 0.5)


@pytest.mark.parametrize("lambda0", [14.0, 30.0, 100.0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernel_bounds_hold_past_the_eigenfunction_overflow(n, lambda0):
    # phi(lambda0 * 51) passes the largest float from lambda0 = 13.88 (n = 3) on
    cfg = KernelConfig(n=n, lambda0=lambda0, R=1.0, quad_points=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = kernel_bounds_check(cfg, kernel_exponent(n))
    constants = (rep.a0, rep.b0, rep.b1, rep.b2)
    assert rep.passed and all(0.0 < c < math.inf for c in constants)


@pytest.mark.parametrize("lambda0", [1.0, 14.0, 30.0, 100.0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernels_equal_the_rule_in_mpmath(n, lambda0):
    # the same lam rule summed from the unscaled eigenfunction and envelopes, at the
    # sweep's last time, on the discs the sweep samples, out to phi(100 * 51) ~ e^5100
    cfg, q, t = KernelConfig(n=n, lambda0=lambda0, quad_points=32), kernel_exponent(n), 50.0
    for s in (0.0, 47.5, 50.0):
        r = np.linspace(0.0, cfg.R + s, 3)
        data, source = kernels_mp(cfg, q, t, s, r)
        assert np.max(np.abs(source_kernel(cfg, q, t, s, r) / source - 1.0)) <= 1e-12
        if s == 0.0:
            assert np.max(np.abs(data_kernel(cfg, q, t, r) / data - 1.0)) <= 1e-12


def test_kernel_bounds_rejects_bad_exponent():
    with pytest.raises(ValueError):
        kernel_bounds_check(KernelConfig(n=3), -1.5)
