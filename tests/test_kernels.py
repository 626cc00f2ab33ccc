import itertools
import math
import re
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from oracles import (data_kernel_n3, kernel_bounds_by_call, kernels_mp, kernels_whole_array,
                     source_kernel_quad)
from wavecrit.exponents import kernel_exponent
from wavecrit.reporting import BLOCK_ELEMENTS, row_blocks
from wavecrit.kernels import (
    KernelConfig,
    _data_envelope,
    _i0e,
    _lam_rule,
    _lam_transform,
    _scaled_eigenfunction,
    _source_envelope,
    data_and_source_kernels,
    data_kernel,
    free_wave_ball_integral,
    kernel_bounds_check,
    source_kernel,
    sphere_area,
)

Q3 = kernel_exponent(3)
CFG = KernelConfig(n=3, lambda0=1.0, R=1.0, quad_points=4096)


# ------------------------------------------------------------- eigenfunction

def _phi_scaled(n, r):
    """phi(r) e^{-r} at one radius, through the package's scaled form."""
    return float(_scaled_eigenfunction(n, np.array([r]))[0])


def test_eigenfunction_at_origin():
    assert abs(_phi_scaled(3, 0.0) - 4.0 * math.pi) < 1e-12
    assert abs(_phi_scaled(2, 0.0) - 2.0 * math.pi) < 1e-12


def test_eigenfunction_three_dim_closed_form():
    # 4 pi sinh(1) e^{-1}
    assert abs(_phi_scaled(3, 1.0) - 2.0 * math.pi * -math.expm1(-2.0)) < 1e-12


def test_eigenfunction_against_quadrature_oracle():
    # oracle: 1-d sphere reduction 2*pi * int_{-1}^{1} e^{r (s - 1)} ds, adaptively
    r = 1.7
    oracle = 2.0 * math.pi * integrate.quad(lambda s: math.exp(r * (s - 1.0)), -1.0, 1.0)[0]
    assert abs(_phi_scaled(3, r) - oracle) < 1e-10 * oracle


def test_eigenfunction_two_dim_against_angle_integral():
    r = 2.5
    oracle = integrate.quad(lambda th: math.exp(r * (math.cos(th) - 1.0)), 0.0, 2.0 * math.pi)[0]
    assert abs(_phi_scaled(2, r) - oracle) < 1e-10 * oracle


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
    oracle = sphere_area(n - 2) * integrate.quad(
        lambda s: math.exp(r * (s - 1.0)), -1.0, 1.0, weight="alg",
        wvar=(alpha, alpha), epsabs=0.0, epsrel=1e-13,
    )[0]
    assert abs(_phi_scaled(n, r) - oracle) <= 1e-12 * oracle


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eigenfunction_monotone(n):
    # phi increases: its log, log(phi e^{-z}) + z, does, out past phi's overflow
    z = np.linspace(0.0, 2000.0, 8001)
    assert np.all(np.diff(np.log(_scaled_eigenfunction(n, z)) + z) > 0.0)


@pytest.mark.parametrize("n", [4, 5])
def test_eigenfunction_general_dimension_elementwise(n):
    # the Bessel branch must broadcast over a lam x r table
    radii = np.array([[0.0, 0.5, 2.0], [3.0, 7.5, 40.0]])
    got = _scaled_eigenfunction(n, radii)
    scalar = np.array([[_phi_scaled(n, x) for x in row] for row in radii])
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


def _growth_ratio(n, r):
    """phi(r) r^{(n-1)/2} e^{-r}: the eigenfunction compensated by its growth law."""
    return _phi_scaled(n, r) * r ** (0.5 * (n - 1))


def test_growth_ratio_three_dim():
    assert abs(_growth_ratio(3, 20.0) - 2.0 * math.pi) < 1e-8
    big = _growth_ratio(3, 5000.0)  # far beyond naive overflow
    assert abs(big - 2.0 * math.pi) < 1e-10


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_growth_ratio_general_dimension_far_out(n):
    # phi_n(r) r^{(n-1)/2} e^{-r} -> (2 pi)^{(n-1)/2}, with a relative O(1/r)
    # correction of (n^2 - 4n + 3) / (8r), at most 6e-4 for n <= 7 at r = 5000
    limit = (2.0 * math.pi) ** (0.5 * (n - 1))
    assert abs(_growth_ratio(n, 5000.0) / limit - 1.0) <= 1e-3


def test_growth_ratio_two_dim_stabilizes():
    vals = [_growth_ratio(2, r) for r in (10.0, 20.0, 40.0)]
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
    def integrand(z, t):  # 4 pi z^2 phi(z) e^{-t}, phi(z) = 4 pi sinh(z) / z
        return 16.0 * math.pi**2 * z * math.sinh(z) * math.exp(-t)

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


@pytest.mark.parametrize("R, t", [(1e20, 5.0), (1.0, 1e300), (1.7e308, 1.7e308)])
def test_ball_integral_past_the_float_range_is_refused_by_name(R, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"at R={R:g}, t={t:g} needs R + t <= 256")):
            free_wave_ball_integral(3, R, t)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ball_integral_holds_its_rule_to_r_plus_t_256(n):
    # the 4097-point rule's relative error is 9e-8 at R + t = 256 and grows past it; the
    # next double is refused before sampling
    assert 0.0 < free_wave_ball_integral(n, 1.0, 255.0) < math.inf
    past = math.nextafter(256.0, math.inf)
    with pytest.raises(ValueError, match=re.escape(f"at R={past:g}, t=0 needs R + t <= 256")):
        free_wave_ball_integral(n, past, 0.0)


def test_ball_integral_of_a_high_dimension_past_the_float_range_is_refused_by_name():
    # within R + t <= 256 the sum still passes the largest float from about n = 150 on
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape("at R=1, t=0 passes the float range")):
            free_wave_ball_integral(200, 1.0, 0.0)


def test_ball_integral_shrunk_lower_bound():
    # restricting the radial integral to [t, R+t] already carries the growth
    for t in (5.0, 40.0):
        zeta = np.linspace(t, 1.0 + t, 2001)
        vals = 16.0 * math.pi**2 * zeta * np.sinh(zeta) * math.exp(-t)
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
    integrand = np.exp(-lam * (CFG.R + t - r)) * _scaled_eigenfunction(3, lam * r) * lam**Q3
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
    got = _source_envelope(CFG, 1.0, 0.0)[1](zs, CFG.R, slice(None))[0]
    with mpmath.workdps(40):
        want = np.array([float(mpmath.exp(-z) * mpmath.sinh(z) / z) if z else 1.0
                         for z in map(mpmath.mpf, zs)])
    assert np.all(np.abs(got - want) <= 1e-15 * want)
    # at s = t the sinh factor is exactly 1
    lam = np.linspace(0.0, 2.0, 9)
    assert np.array_equal(_source_envelope(CFG, 2.0, 2.0)[1](lam, 0.5, slice(None))[0],
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


def test_kernels_refuse_non_finite_radii_by_name():
    # the radius is named, not lambda0, and nothing warns on the way; a finite radius
    # whose kernel passes the float range is refused as such
    cfg = KernelConfig(n=3, quad_points=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (math.nan, math.inf, -math.inf, np.array([0.5, math.inf])):
            with pytest.raises(ValueError, match="radius must be finite, got r=(nan|inf)"):
                data_kernel(cfg, Q3, 1.0, r)
            with pytest.raises(ValueError, match="radius must be finite, got r=(nan|inf)"):
                source_kernel(cfg, Q3, 1.0, 0.5, r)
        with pytest.raises(ValueError, match=r"radius 1\.7e\+308 past the float range"):
            data_kernel(cfg, Q3, 1.0, 1.7e308)


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
    report = kernel_bounds_check(cfg)
    assert report.passed
    for c in (report.a0, report.b0, report.b1, report.b2):
        assert math.isfinite(c) and c > 0.0


def test_bound_at_origin_is_kernel_value():
    cfg = KernelConfig(n=3, lambda0=1.0, R=1.0, quad_points=1024)
    report = kernel_bounds_check(cfg)
    assert report.a0 <= data_kernel(cfg, Q3, 0.0, 0.0) + 1e-12


@pytest.mark.parametrize("n, lambda0, quad_points", [
    *itertools.product([2, 3, 4], [0.5, 1.0, 3.0], [64, 1024]), (2, 1.0, 2048), (3, 1.0, 2048)])
def test_kernel_bounds_equal_the_call_by_call_sweep(n, lambda0, quad_points):
    # one table per distinct radius set gives every constant and every
    # sample of one table per kernel call, bit for bit; at 2048 points the
    # table takes two lam blocks, and each row's sum runs across both
    cfg = KernelConfig(n=n, lambda0=lambda0, R=1.0, quad_points=quad_points)
    got = kernel_bounds_check(cfg)
    ref = kernel_bounds_by_call(cfg)
    assert (got.a0, got.b0, got.b1, got.b2) == (ref.a0, ref.b0, ref.b1, ref.b2)
    assert got.passed == ref.passed and got.region == ref.region
    assert got.samples == ref.samples and len(got.samples) == 40 * 21 + 41


def test_kernel_bounds_build_one_table_per_radius_set(monkeypatch):
    # each distinct disc radius R + s fills its table once, however many of the sweep's
    # evaluations it feeds (123 at s = 0), and the rule reads phi(0) once
    import wavecrit.kernels as kernels

    evaluated = []
    original = kernels._scaled_eigenfunction

    def counted(n, z):
        evaluated.append(np.size(z))
        return original(n, z)

    monkeypatch.setattr(kernels, "_scaled_eigenfunction", counted)
    cfg = KernelConfig(n=3, quad_points=64)
    kernel_bounds_check(cfg)
    radii = {cfg.R + s for t in np.linspace(0.0, 50.0, 41)
             for s in (0.0, t, *(np.linspace(0.0, 0.95 * t, 21) if t > 0 else ()))}
    assert len(radii) == 447
    assert sum(evaluated) == len(radii) * cfg.quad_points * 9 + 1


@pytest.mark.parametrize("quad_points", [64, 2048])
def test_kernel_bounds_evaluate_envelopes_per_radius_set(monkeypatch, quad_points):
    # each radius set evaluates the envelopes of its data rows and of its source rows
    # in blocks of at most 9 rows, one per radius, on each lam block: 461 evaluations
    # per lam block, not one per (t, s) (963)
    import wavecrit.kernels as kernels

    evaluated = []
    for name in ("_cosh_rows", "_sinh_rows"):
        def counted(*args, original=getattr(kernels, name)):
            rows = original(*args)
            evaluated.append(len(rows))
            return rows

        monkeypatch.setattr(kernels, name, counted)
    cfg = KernelConfig(n=3, quad_points=quad_points)
    kernel_bounds_check(cfg)
    rows = {}
    for t in np.linspace(0.0, 50.0, 41):
        lower = np.linspace(0.0, 0.95 * t, 21) if t > 0 else ()
        for key in [(cfg.R, "data"), (cfg.R, "source"), *((cfg.R + s, "source") for s in lower),
                    (cfg.R + t, "source")]:
            rows[key] = rows.get(key, 0) + 1
    lam_blocks = len(list(row_blocks(cfg.quad_points, 9)))
    assert sum(-(-count // 9) for count in rows.values()) == 461
    assert len(evaluated) == 461 * lam_blocks and sum(evaluated) == 963 * lam_blocks


@pytest.mark.parametrize("n, held", [(2, 0.70e6), (3, 0.51e6)])
def test_kernel_bounds_hold_one_table_and_one_envelope_block(traced_peak, n, held):
    # beyond its 963 x 9 values (69 kB) the sweep holds one 1024 x 9 table block and its
    # scratch, one envelope block of at most 9 rows in two buffers, numpy's broadcast
    # buffers (8192 values each) and, for n = 2, i0e's copies and Clenshaw buffers:
    # 0.48 MB (n = 3) and 0.63 MB (n = 2) here; one envelope per (t, s) held 0.49 and
    # 0.67 MB, and envelope blocks of 15 rows 0.57 MB at n = 3.  A 64-point sweep first
    # keeps numpy's one-time set-up out of the count.
    kernel_bounds_check(KernelConfig(n=n, quad_points=64))
    cfg = KernelConfig(n=n, quad_points=1024)
    report, peak = traced_peak(lambda: kernel_bounds_check(cfg))
    assert report.passed and peak < 963 * 9 * 8 + held


def test_paired_kernels_equal_the_two_kernel_calls():
    s, r = np.array([0.0, 0.7, 2.5]), np.linspace(0.0, 3.0, 7)
    data, source = data_and_source_kernels(CFG, Q3, 2.5, s, r)
    assert data.tobytes() == data_kernel(CFG, Q3, 2.5, r).tobytes()
    assert source.tobytes() == source_kernel(CFG, Q3, 2.5, s, r).tobytes()


# the kernels walk lam in row_blocks(quad_points, len(r)): at FULL quad points 8 radii
# fill one block exactly and 9 take a second, FULL + 1 points take one table row over,
# and the last two take many blocks
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


@pytest.mark.parametrize("quad_points, n_s, n_r, held", [
    (2048, 161, 193, 1.25e6), (64, 1025, 1025, 1.75e6), (2048, 1000, 1, 0.65e6)])
@pytest.mark.parametrize("n", [2, 3])
def test_kernels_hold_no_whole_table_or_envelope(traced_peak, n, quad_points, n_s, n_r, held):
    # beyond the outputs one block of table and of product and two of envelope rows are
    # held, and i0e's Clenshaw buffers for n = 2: 0.42-0.81 MB (the whole table and
    # envelope at 2048 points are 5.8 MB, the whole envelope of 1000 times 16 MB); at
    # 1025 x 1025 the output's finiteness mask, 1.05 MB, sets the peak
    cfg, q, t = KernelConfig(n=n, quad_points=quad_points), kernel_exponent(n), 2.5
    s, r = np.linspace(0.0, t, n_s), np.linspace(0.0, 3.0, n_r)
    (data, source), peak = traced_peak(lambda: data_and_source_kernels(cfg, q, t, s, r))
    assert peak < data.nbytes + source.nbytes + held


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernels_leave_their_arguments_unchanged(n):
    # the table and envelope blocks are filled in place, in buffers of their own
    cfg, q, t = KernelConfig(n=n, quad_points=64), kernel_exponent(n), 2.5
    z, s, r = np.linspace(0.0, 20.0, 41), np.linspace(0.0, t, 5), np.linspace(0.0, 3.0, 7)
    rule = _lam_rule(cfg, q)
    arguments = (z, s, r, *rule[:2])
    before = [a.copy() for a in arguments]
    _scaled_eigenfunction(n, z)
    for envelope in (_data_envelope(cfg, t), _source_envelope(cfg, t, s)):
        envelope[1](rule[0], 3.0, slice(None))
    _lam_transform(cfg, rule, r, _data_envelope(cfg, t), _source_envelope(cfg, t, s))
    assert all(np.array_equal(a, b) for a, b in zip(arguments, before))


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
        rep = kernel_bounds_check(cfg)
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


def test_kernels_hold_the_lam_integral_itself():
    # the integrals, not the package's rule: the data kernel's n = 3 closed form and the
    # source kernel by adaptive quadrature; the graded trapezoid's error falls as N^-2
    tolerances = {1024: (2e-6, 1e-5), 2048: (5e-7, 3e-6)}  # data, source
    radii = np.array([0.0, 0.5, 3.0])
    for t in (0.0, 1.0, 5.0, 20.0, 50.0):
        exact = np.array([data_kernel_n3(CFG, t, r) for r in radii])
        for n_points, (tol, _) in tolerances.items():
            got = data_kernel(replace(CFG, quad_points=n_points), Q3, t, radii)
            assert np.max(np.abs(got / exact - 1.0)) <= tol
    for t in (1.0, 5.0, 20.0, 50.0):
        for s in (0.0, t / 2, t):
            radii = np.array([0.0, 0.5, CFG.R + s])
            exact = np.array([source_kernel_quad(CFG, t, s, r) for r in radii])
            for n_points, (_, tol) in tolerances.items():
                got = source_kernel(replace(CFG, quad_points=n_points), Q3, t, s, radii)
                assert np.max(np.abs(got / exact - 1.0)) <= tol


def test_the_kernel_oracles_coincide_at_origin_time():
    # at t = s = 0 both envelopes are e^{-lam R}: the closed form meets the quadrature
    for r in (0.0, 0.5, 3.0):
        assert math.isclose(data_kernel_n3(CFG, 0.0, r), source_kernel_quad(CFG, 0.0, 0.0, r),
                            rel_tol=1e-15)
