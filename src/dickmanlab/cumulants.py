"""Exact integer/rational algebra for Bernoulli cumulants.

The n-th cumulant of a Bernoulli(x) law is a polynomial c_n(x) with
integer coefficients.  Everything here is exact arbitrary-precision
arithmetic: the leading coefficients reach n! in magnitude (overflowing
64-bit at n = 21) and the identities verified by the test suite are exact
claims, so floating arithmetic would be strictly weaker.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple


def a_coeff(k: int, n: int) -> int:
    """Alternating binomial sum  sum_{j=0}^k (-1)^(j+1) C(k,j) j^n."""
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return sum((-1) ** (j + 1) * comb(k, j) * j**n for j in range(k + 1))


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind via the triangle recurrence."""
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    if k == n:
        return 1
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


class CumulantPoly(NamedTuple):
    """Coefficients of c_n(x) in the monomial basis, coeffs[i] on x^i."""

    n: int
    coeffs: tuple  # exact ints

    def eval_at(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def cumulant_explicit(n: int) -> CumulantPoly:
    """c_n(x) = x(1-x) * sum_{k=1}^{n-1} a_{k,n-1} x^{k-1}, for n >= 2."""
    if n < 2:
        raise ValueError(f"explicit form needs n >= 2, got {n}")
    inner = [a_coeff(k, n - 1) for k in range(1, n)]  # coeff on x^(k-1)
    # multiply by (x - x^2)
    coeffs = [0] * (n + 1)
    for i, c in enumerate(inner):
        coeffs[i + 1] += c
        coeffs[i + 2] -= c
    return CumulantPoly(n=n, coeffs=tuple(coeffs))


def cumulant_recurrence(n: int) -> CumulantPoly:
    """c_n(x) from the recurrence c_{j+1} = x(1-x) c_j', seeded with c_1 = x."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    coeffs = [0, 1]  # c_1(x) = x
    for _ in range(n - 1):
        deriv = [i * c for i, c in enumerate(coeffs)][1:]
        new = [0] * (len(deriv) + 2)
        for i, c in enumerate(deriv):
            new[i + 1] += c
            new[i + 2] -= c
        coeffs = new
    return CumulantPoly(n=n, coeffs=tuple(coeffs))


def cumulant_ratio_series(n: int) -> list[Fraction]:
    """Coefficients a_{k,n}/k of x^{k-1} in c_n(x)/x - 1, k = 2..n."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return [Fraction(a_coeff(k, n), k) for k in range(2, n + 1)]


@lru_cache(maxsize=None)
def _cumulant_cached(j: int) -> CumulantPoly:
    return cumulant_explicit(j) if j >= 2 else CumulantPoly(n=1, coeffs=(0, 1))


def _sum_of_powers(e: int, m: int, n: int) -> int:
    """sum_{k=m+1}^n k^e, exact, from k^e = sum_i S(e, i) i! C(k, i).

    Summing C(k, i) over k = 0..n gives C(n+1, i+1), so the cost is O(e)
    integer operations whatever the length of the range.
    """
    return sum(stirling2(e, i) * factorial(i) * (comb(n + 1, i + 1) - comb(m + 1, i + 1))
               for i in range(e + 1))


def alpha_j(m: int, n: int, j: int) -> float:
    """Series coefficient sum_{k=m+1}^n k^{j-1} (k c_j(1/k) - 1) / (n - m).

    Each term is the integer sum_i c_{j,i} k^{j-i} - k^{j-1} (c_j has
    degree j), so the numerator is the exact integer
    sum_i c_{j,i} P_{j-i} - P_{j-1}, P_e the sum of k^e over the block,
    and the one division by n - m is correctly rounded.
    """
    if j < 1:
        raise ValueError(f"need j >= 1, got {j}")
    if not (2 <= m < n):
        raise ValueError(f"need 2 <= m < n, got m={m}, n={n}")
    coeffs = _cumulant_cached(j).coeffs
    total = sum(c * _sum_of_powers(j - i, m, n) for i, c in enumerate(coeffs))
    return float(Fraction(total - _sum_of_powers(j - 1, m, n), n - m))
