"""Exponent algebra underpinning the whole laboratory.

Everything downstream (kernels, iteration ledgers, weighted norms) consumes
the numbers computed here: the Strauss exponent p(n), its Holder conjugate,
the kernel exponent q = (n-1)/2 - 1/p and the weight exponent 1 + 1/p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .reporting import WeightReport


class InfiniteExponent:
    """Tagged marker for the one-dimensional convention p = +infinity.

    Supports no arithmetic on purpose, so it cannot silently leak into
    formulas that divide by p.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "InfiniteExponent()"


STRAUSS_INFINITE = InfiniteExponent()


def strauss_residual(n: int, p: float) -> float:
    """Value of (n-1)p^2 - (n+1)p - 2; zero exactly at the Strauss exponent."""
    return (n - 1.0) * p * p - (n + 1.0) * p - 2.0


def strauss_exponent(n: int):
    """Positive root of (n-1)p^2 - (n+1)p - 2 = 0 for n >= 2.

    For n == 1 the conventional infinite marker is returned.  Uses the
    cancellation-free quadratic branch.
    """
    if n <= 0:
        raise ValueError(f"dimension must be positive, got n={n}")
    if n == 1:
        return STRAUSS_INFINITE
    a, b, c = n - 1.0, -(n + 1.0), -2.0
    disc = math.sqrt(b * b - 4.0 * a * c)
    # q-form of the quadratic formula; the subtraction below never cancels.
    qq = -0.5 * (b - math.copysign(disc, b))
    return max(qq / a, c / qq)


def holder_conjugate(p: float) -> float:
    if p <= 1.0:
        raise ValueError(f"conjugate needs p > 1, got p={p}")
    return p / (p - 1.0)


def kernel_exponent(n: int) -> float:
    """Power of the spectral variable in the data/source kernels.

    q = (n-1)/2 - 1/p(n); non-negative, and q - (n-3)/2 = 1 - 1/p > 0, which
    is what the kernel bound checks require.
    """
    if n < 2:
        raise ValueError(f"kernel exponent needs n >= 2, got n={n}")
    return (n - 1.0) / 2.0 - 1.0 / strauss_exponent(n)


def weight_exponent(n: int = 3) -> float:
    """Exponent 1 + 1/p(n) of the light-cone weight (equals sqrt(2) at n=3)."""
    return 1.0 + 1.0 / strauss_exponent(n)


@dataclass(frozen=True)
class ExponentSet:
    """Algebraic backbone consumed by every other module."""

    n: int
    p_strauss: float
    p_conjugate: float
    q: float
    kappa: float


def exponent_set(n: int) -> ExponentSet:
    if n < 2:
        raise ValueError(f"exponent set needs n >= 2, got n={n}")
    p = strauss_exponent(n)
    return ExponentSet(
        n=n,
        p_strauss=p,
        p_conjugate=holder_conjugate(p),
        q=kernel_exponent(n),
        kappa=weight_exponent(n),
    )


def exponent_identities_report(n: int) -> WeightReport:
    """Numerically evaluate the two exponent identities the iteration uses.

    Both reduce to the defining quadratic:
      q/(p-1) - (n-1)/2 * p' + (n-1)  ==  p'/p
      -q - (n-1)(p/2 - 1)             ==  -1
    """
    if n < 2:
        raise ValueError(f"identities need n >= 2, got n={n}")
    p = strauss_exponent(n)
    pc = holder_conjugate(p)
    q = kernel_exponent(n)
    res1 = q / (p - 1.0) - (n - 1.0) / 2.0 * pc + (n - 1.0) - pc / p
    res2 = (-q - (n - 1.0) * (p / 2.0 - 1.0)) - (-1.0)
    worst = max(abs(res1), abs(res2))
    return WeightReport(region=f"exponent identities, n={n}", fitted_constant=worst,
                        passed=worst < 1e-9)
