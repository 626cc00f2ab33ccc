"""Exponent algebra of the laboratory: the Strauss exponent p(n), its Holder
conjugate, the kernel exponent q = (n-1)/2 - 1/p and the weight exponent
1 + 1/p, one function each, plus a check of the exponent identities the
iteration uses.  Each is defined for 2 <= n <= the largest float, and
refuses an n past it by name; p(1) = +infinity by convention is no float,
so ``strauss_exponent(1)`` raises and no infinite p can reach a formula
(the CLI's ``exponents --n 1`` reports it).
"""

from __future__ import annotations

import math
import sys

from .reporting import WeightReport


def strauss_residual(n: int, p: float) -> float:
    """Value of (n-1)p^2 - (n+1)p - 2; zero exactly at the Strauss exponent."""
    return (n - 1.0) * p * p - (n + 1.0) * p - 2.0


def _discriminant_root(n: int) -> float:
    """sqrt((n + 1)^2 + 8(n - 1)), read by p(n) and its conjugate, as (n + 1)
    sqrt(1 + 8 ((n - 1)/(n + 1)) / (n + 1)), where no square overflows."""
    if n < 2:
        raise ValueError(f"the Strauss exponent needs n >= 2, got n={n} "
                         f"(p(1) is +infinity by convention)")
    if n > sys.float_info.max:
        raise ValueError(f"n={n} is past the float range (at most {sys.float_info.max:.6g})")
    b = n + 1.0
    return b * math.sqrt(1.0 + 8.0 * ((n - 1.0) / b) / b)


def strauss_exponent(n: int) -> float:
    """Positive root of (n-1)p^2 - (n+1)p - 2 = 0 for n >= 2,
    (n + 1 + d) / (2(n - 1)) with d = ``_discriminant_root(n)``: both terms
    of the numerator are positive and halved first: nothing cancels or overflows."""
    return (0.5 * _discriminant_root(n) + 0.5 * (n + 1.0)) / (n - 1.0)


def holder_conjugate(n: int) -> float:
    """Holder conjugate p/(p - 1) of p = p(n) for n >= 2, 1 + (d + n - 3) / 8
    with d = ``_discriminant_root(n)`` > 4: a sum of positive terms, where
    p - 1 cancels as p tends to 1, each scaled first so that none overflows."""
    return 1.0 + (0.125 * _discriminant_root(n) + 0.125 * n - 0.375)


def kernel_exponent(n: int) -> float:
    """Power of the spectral variable in the data/source kernels.

    q = (n-1)/2 - 1/p(n); non-negative, and q - (n-3)/2 = 1 - 1/p > 0, which
    is what the kernel bound checks require.
    """
    p = strauss_exponent(n)  # refuses an n past the float range before n - 1.0 does
    return (n - 1.0) / 2.0 - 1.0 / p


def weight_exponent(n: int = 3) -> float:
    """Exponent 1 + 1/p(n) of the light-cone weight (equals sqrt(2) at n=3)."""
    return 1.0 + 1.0 / strauss_exponent(n)


def exponent_identities_report(n: int) -> WeightReport:
    """Numerically evaluate the two exponent identities the iteration uses.

    Both reduce to the defining quadratic:
      q/(p-1) - (n-1)/2 * p' + (n-1)  ==  p'/p
      -q - (n-1)(p/2 - 1)             ==  -1
    Each is judged relative to its largest term, since where p rounds to 1
    terms of size n^2/8 cancel.  q/(p-1) is formed as q p'/p, which stays
    finite there, and the first identity is divided by n - 1, so no term
    overflows up to the largest float.
    """
    p = strauss_exponent(n)
    pc = holder_conjugate(n)
    q = kernel_exponent(n)
    m = n - 1.0
    worst = max(abs(sum(terms)) / max(map(abs, terms)) for terms in (
        (q / m * pc / p, -0.5 * pc, 1.0, -pc / p / m),
        (-q, -m * (p / 2.0 - 1.0), 1.0)))
    return WeightReport(region=f"exponent identities, n={n}", fitted_constant=worst,
                        passed=worst < 1e-9)
