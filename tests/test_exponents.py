import math
import sys

import mpmath
import pytest
from hypothesis import given, strategies as st

from wavecrit.exponents import (
    exponent_identities_report,
    holder_conjugate,
    kernel_exponent,
    strauss_exponent,
    strauss_residual,
    weight_exponent,
)


def bisect_root(n, lo=1.0, hi=10.0, iters=200):
    # independent oracle: bisection on the defining quadratic
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if strauss_residual(n, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_three_dimensional_root():
    assert abs(strauss_exponent(3) - (1.0 + math.sqrt(2.0))) < 1e-12
    assert strauss_exponent(3) == 2.414213562373095  # 1 + sqrt(2) correctly rounded


def _digits(n):
    """Decimal digits enough for p(n) - 1 = 2/n + ... to keep 60 of its own."""
    return 60 + 2 * len(str(n))


def _strauss_mp(n):
    with mpmath.workdps(_digits(n)):
        n = mpmath.mpf(n)
        return (n + 1 + mpmath.sqrt((n + 1) ** 2 + 8 * (n - 1))) / (2 * (n - 1))


# every n of the first dimensions, and large n, where p(n) = 1 + 2/n + ... and a
# root formed as a difference of two numbers near n + 1 cancels to 1.0 by n = 1e12;
# past n = 1.3e154 the square (n + 1)^2 overflows, up to the largest float
MP_DIMENSIONS = [*range(2, 65), *(10**k for k in range(2, 16)),
                 10**154, 10**155, 10**200, int(sys.float_info.max)]


@pytest.mark.parametrize("n", MP_DIMENSIONS)
def test_root_agrees_with_mpmath(n):
    exact = _strauss_mp(n)
    assert abs(mpmath.mpf(strauss_exponent(n)) - exact) <= 1.5 * math.ulp(float(exact))


# p / (p - 1) of the float p cancels: 1.6e-9 relative off at n = 1e8, 8e-4 at n = 1e15
@pytest.mark.parametrize("n", MP_DIMENSIONS)
def test_conjugate_agrees_with_mpmath(n):
    with mpmath.workdps(_digits(n)):
        p = _strauss_mp(n)
        exact = p / (p - 1)
    assert abs(mpmath.mpf(holder_conjugate(n)) - exact) <= 1.5 * math.ulp(float(exact))


def test_two_dimensional_root_closed_form_and_bisection():
    p = strauss_exponent(2)
    assert abs(p - (3.0 + math.sqrt(17.0)) / 2.0) < 1e-12
    assert abs(p - 3.561552812809) < 1e-10
    assert abs(p - bisect_root(2)) < 1e-12


def test_one_dimensional_exponent_refused():
    # p(1) = +infinity by convention is no float: refused, by every function of p
    for of_n in (strauss_exponent, holder_conjugate, kernel_exponent, weight_exponent,
                 exponent_identities_report):
        with pytest.raises(ValueError, match="n >= 2, got n=1"):
            of_n(1)


def test_dimension_past_the_float_range_refused():
    # 10^400 has no float: refused by name, by every function of p
    for of_n in (strauss_exponent, holder_conjugate, kernel_exponent, weight_exponent,
                 exponent_identities_report):
        with pytest.raises(ValueError, match=r"^n=10{400} is past the float range"):
            of_n(10**400)


@pytest.mark.parametrize("n", [0, -1])
def test_nonpositive_dimension_rejected(n):
    with pytest.raises(ValueError):
        strauss_exponent(n)


def test_residual_examples():
    assert abs(strauss_residual(3, 1.0 + math.sqrt(2.0))) < 1e-12
    assert strauss_residual(7, 0.0) == -2.0
    assert abs(strauss_residual(2, 3.5615528128)) < 1e-8


@given(st.integers(min_value=2, max_value=64))
def test_root_solves_quadratic(n):
    assert abs(strauss_residual(n, strauss_exponent(n))) <= 1e-9 * n * n


def test_root_strictly_decreasing():
    values = [strauss_exponent(n) for n in range(2, 65)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_conjugate_pairing():
    for n in range(2, 65):
        p = strauss_exponent(n)
        assert abs(1.0 / p + 1.0 / holder_conjugate(n) - 1.0) < 1e-12


def test_kernel_exponent_values():
    assert abs(kernel_exponent(3) - (2.0 - math.sqrt(2.0))) < 1e-12
    assert abs(kernel_exponent(2) - (0.5 - 2.0 / (3.0 + math.sqrt(17.0)))) < 1e-12
    for n in range(2, 65):
        q = kernel_exponent(n)
        assert q >= 0.0
        # q - (n-3)/2 equals 1 - 1/p > 0
        assert q - (n - 3) / 2.0 > 0.0
        assert q > -1.0


def test_weight_exponent_is_sqrt_two_at_three():
    assert abs(weight_exponent(3) - math.sqrt(2.0)) < 1e-12
    assert weight_exponent(3) > 1.0


@pytest.mark.parametrize("n", [2, 3, 10])
def test_identities_tight(n):
    report = exponent_identities_report(n)
    assert report.passed
    assert report.fitted_constant < 1e-10


def test_identities_report_where_p_rounds_to_one():
    # p(10^20) rounds to 1.0, and q / (p - 1) divided by zero; q p' / p does not
    report = exponent_identities_report(10**20)
    assert report.region == f"exponent identities, n={10**20}"
    assert math.isfinite(report.fitted_constant)


def test_identities_moderate_dimensions():
    for n in range(2, 11):
        assert exponent_identities_report(n).fitted_constant < 1e-10
    assert exponent_identities_report(10).fitted_constant < 1e-9


def test_identities_hold_relative_to_their_largest_term():
    # an absolute residual failed from n = 10^8 (2.2e-8 > 1e-9), read 7.5e19 at
    # n = 10^20, where p rounds to 1, and nan at 10^200, where q p' overflowed
    dims = [*range(2, 65), *(10**k for k in range(1, 16)), 10**20, 10**200,
            int(sys.float_info.max)]
    for n in dims:
        report = exponent_identities_report(n)
        assert report.passed and 0.0 <= report.fitted_constant < 1e-15, (n, report)
