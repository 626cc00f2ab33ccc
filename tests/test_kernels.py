import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

from wavecrit.exponents import kernel_exponent
from wavecrit.kernels import (
    KernelConfig,
    data_kernel,
    eigenfunction_growth_ratio,
    free_wave_ball_integral,
    kernel_bounds_check,
    laplace_eigenfunction,
    log_laplace_eigenfunction,
    sinh_over_z,
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


def test_data_kernel_general_dimension_memory():
    # the n >= 4 eigenfunction is elementwise: no per-radius quadrature array
    radii = np.linspace(0.0, 2.0, 100)
    tracemalloc.start()
    try:
        data_kernel(KernelConfig(n=4), kernel_exponent(4), 1.0, radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6


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


def test_sinh_ratio_seam():
    # series and direct paths agree across the switch point
    for z in np.geomspace(1e-5, 1e-3, 25):
        direct = math.sinh(z) / z
        series = 1.0 + z * z / 6.0 * (1.0 + z * z / 20.0 * (1.0 + z * z / 42.0))
        assert abs(direct - series) < 1e-10
        assert abs(sinh_over_z(z) - direct) < 1e-10


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


def test_kernel_bounds_rejects_bad_exponent():
    with pytest.raises(ValueError):
        kernel_bounds_check(KernelConfig(n=3), -1.5)
