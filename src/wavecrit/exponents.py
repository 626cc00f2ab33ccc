"""Exponent algebra of the laboratory: the Strauss exponent p(n), its Holder
conjugate, the kernel exponent q = (n-1)/2 - 1/p and the weight exponent
1 + 1/p, one function each, plus a check of the exponent identities the
iteration uses.  Each is defined for n >= 2; the one-dimensional convention
p(1) = +infinity is no float, so ``strauss_exponent(1)`` raises and no
infinite p can reach a formula (the CLI's ``exponents --n 1`` reports it).
"""

from __future__ import annotations

import math

from .reporting import WeightReport


def strauss_residual(n: int, p: float) -> float:
    """Value of (n-1)p^2 - (n+1)p - 2; zero exactly at the Strauss exponent."""
    return (n - 1.0) * p * p - (n + 1.0) * p - 2.0


def _discriminant_root(n: int) -> float:
    """sqrt((n + 1)^2 + 8(n - 1)) for n >= 2, read by p(n) and its conjugate."""
    if n < 2:
        raise ValueError(f"the Strauss exponent needs n >= 2, got n={n} "
                         f"(p(1) is +infinity by convention)")
    b = n + 1.0
    return math.sqrt(b * b + 8.0 * (n - 1.0))


def strauss_exponent(n: int) -> float:
    """Positive root of (n-1)p^2 - (n+1)p - 2 = 0 for n >= 2,
    (n + 1 + d) / (2(n - 1)) with d = ``_discriminant_root(n)``: both terms
    of the numerator are positive, so nothing cancels."""
    return (n + 1.0 + _discriminant_root(n)) / (2.0 * (n - 1.0))


def holder_conjugate(n: int) -> float:
    """Holder conjugate p/(p - 1) of p = p(n) for n >= 2, 1 + (d + n - 3) / 8
    with d = ``_discriminant_root(n)`` > 4: a sum of positive terms, where
    p - 1 cancels as p tends to 1."""
    return 1.0 + (_discriminant_root(n) + n - 3.0) / 8.0


def kernel_exponent(n: int) -> float:
    """Power of the spectral variable in the data/source kernels.

    q = (n-1)/2 - 1/p(n); non-negative, and q - (n-3)/2 = 1 - 1/p > 0, which
    is what the kernel bound checks require.
    """
    return (n - 1.0) / 2.0 - 1.0 / strauss_exponent(n)


def weight_exponent(n: int = 3) -> float:
    """Exponent 1 + 1/p(n) of the light-cone weight (equals sqrt(2) at n=3)."""
    return 1.0 + 1.0 / strauss_exponent(n)


def exponent_identities_report(n: int) -> WeightReport:
    """Numerically evaluate the two exponent identities the iteration uses.

    Both reduce to the defining quadratic:
      q/(p-1) - (n-1)/2 * p' + (n-1)  ==  p'/p
      -q - (n-1)(p/2 - 1)             ==  -1
    """
    p = strauss_exponent(n)
    pc = holder_conjugate(n)
    q = kernel_exponent(n)
    res1 = q / (p - 1.0) - (n - 1.0) / 2.0 * pc + (n - 1.0) - pc / p
    res2 = (-q - (n - 1.0) * (p / 2.0 - 1.0)) - (-1.0)
    worst = max(abs(res1), abs(res2))
    return WeightReport(region=f"exponent identities, n={n}", fitted_constant=worst,
                        passed=worst < 1e-9)
