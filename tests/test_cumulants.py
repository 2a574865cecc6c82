import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickmanlab.cumulants import (
    a_coeff,
    alpha_j,
    cumulant_explicit,
    cumulant_ratio_series,
    cumulant_recurrence,
    stirling2,
)


def test_a_coeff_known_values():
    assert all(a_coeff(1, n) == 1 for n in range(1, 15))
    assert a_coeff(2, 2) == -2
    for n in range(1, 12):
        assert a_coeff(n, n) == (-1) ** (n + 1) * math.factorial(n)
    with pytest.raises(ValueError):
        a_coeff(5, 3)


def test_stirling_values():
    assert all(stirling2(n, n) == 1 for n in range(12))
    assert stirling2(4, 2) == 7
    assert stirling2(5, 0) == 0
    with pytest.raises(ValueError):
        stirling2(3, 4)


def test_stirling_bridge():
    for n in range(1, 21):
        for k in range(1, n + 1):
            assert a_coeff(k, n) == (-1) ** (k + 1) * math.factorial(k) * stirling2(n, k)


def test_small_polynomials():
    assert cumulant_explicit(2).coeffs == (0, 1, -1)          # x - x^2
    assert cumulant_explicit(3).coeffs == (0, 1, -3, 2)       # x(1-x)(1-2x)
    assert cumulant_explicit(4).coeffs == (0, 1, -7, 12, -6)  # x(1-x)(1-6x+6x^2)


def test_recurrence_seeds():
    assert cumulant_recurrence(1).coeffs == (0, 1)
    assert cumulant_recurrence(2).coeffs == (0, 1, -1)


def test_explicit_equals_recurrence_up_to_30():
    for n in range(2, 31):
        assert cumulant_explicit(n).coeffs == cumulant_recurrence(n).coeffs


def test_degree_and_roots():
    for n in range(2, 15):
        poly = cumulant_explicit(n)
        assert len(poly.coeffs) - 1 == n
        assert poly.coeffs[-1] != 0
        assert poly.eval_at(Fraction(0)) == 0
        assert poly.eval_at(Fraction(1)) == 0


def test_variance_matches_moments():
    c2 = cumulant_explicit(2)
    for p in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 10)):
        assert c2.eval_at(p) == p * (1 - p)


def test_ratio_series_identity():
    for n in range(2, 31):
        series = cumulant_ratio_series(n)
        poly = cumulant_explicit(n)
        for x in (Fraction(1, 3), Fraction(2, 5), Fraction(7, 11)):
            lhs = poly.eval_at(x) / x - 1
            rhs = sum(c * x ** (k - 1) for k, c in zip(range(2, n + 1), series))
            assert lhs == rhs


def test_ratio_series_n2():
    assert cumulant_ratio_series(2) == [Fraction(-1)]


def test_alpha_values():
    for m, n in [(2, 4), (2, 10), (5, 9)]:
        assert alpha_j(m, n, 1) == 0.0
    # j=2 term is k c_2(1/k) - 1 = -1/k, so alpha_2 = -(n-m)/(n-m) = -1
    assert alpha_j(2, 4, 2) == -1.0
    assert alpha_j(3, 10, 2) == -1.0


def test_alpha_preconditions():
    with pytest.raises(ValueError):
        alpha_j(2, 4, 0)
    with pytest.raises(ValueError):
        alpha_j(4, 4, 2)
    with pytest.raises(ValueError):
        alpha_j(1, 4, 2)


@given(n=st.integers(min_value=2, max_value=24), k=st.integers(min_value=1, max_value=24))
@settings(max_examples=40, deadline=None)
def test_stirling_bridge_property(n, k):
    if k <= n:
        assert a_coeff(k, n) == (-1) ** (k + 1) * math.factorial(k) * stirling2(n, k)


def alpha_j_rational(m, n, j):
    """alpha_j by a Fraction loop over c_j(1/k), converted to float once."""
    poly = cumulant_explicit(j) if j >= 2 else cumulant_recurrence(1)
    total = Fraction(0)
    for k in range(m + 1, n + 1):
        total += k ** (j - 1) * (k * poly.eval_at(Fraction(1, k)) - 1)
    return float(total / (n - m))


@given(mn=st.tuples(st.integers(2, 300), st.integers(2, 300)).filter(lambda t: t[0] < t[1]),
       j=st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_alpha_j_is_the_rational_loop(mn, j):
    m, n = mn
    assert alpha_j(m, n, j) == alpha_j_rational(m, n, j)


def alpha_j_integer_loop(m, n, j):
    """alpha_j by the per-k Horner loop: one exact integer term per k of the block."""
    coeffs = (cumulant_explicit(j) if j >= 2 else cumulant_recurrence(1)).coeffs
    total = 0
    for k in range(m + 1, n + 1):
        acc = 0
        for c in coeffs:  # sum_i c_i k^(j-i)
            acc = acc * k + c
        total += acc - k ** (j - 1)
    return float(Fraction(total, n - m))


@pytest.mark.parametrize("m,n", [(2, 3), (2, 4), (5, 9), (20, 1500), (100, 5000)])
def test_alpha_j_power_sums_are_the_per_k_loop(m, n):
    for j in range(1, 12):
        assert repr(alpha_j(m, n, j)) == repr(alpha_j_integer_loop(m, n, j)), j
