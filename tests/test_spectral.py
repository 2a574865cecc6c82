import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dickmanlab import audits, config
from dickmanlab.audits import chi, f_envelope, g_envelope
from dickmanlab.exact_dist import pmf, prob_at
from dickmanlab.spectral import (
    gamma_grids,
    gamma_mn,
    gamma_series,
    invert_cf,
    l2_cf_integral,
    l2_cf_integral_quad,
    l2_cf_limit,
    phi_T,
    phi_dickman,
)
from dickmanlab.exact_dist import KappaSeq


def test_phi_Z_basics():
    # phi_T(k - 1, k, t) is the characteristic function of Z_k at t*k.
    assert phi_T(4, 5, 0.0) == 1.0
    assert phi_T(0, 1, 0.7) == pytest.approx(cmath.exp(0.7j), abs=1e-15)
    with pytest.raises(ValueError):
        phi_T(-1, 0, 1.0)


@given(k=st.integers(min_value=1, max_value=1000),
       t=st.floats(min_value=-50, max_value=50, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_phi_Z_modulus_bound(k, t):
    assert abs(phi_T(k - 1, k, t)) <= 1.0 + 1e-12


def test_phi_T_at_pi():
    # sum over pmf(0,2): (e^{i pi} + e^{3 i pi}) / 2 = -1
    val = phi_T(0, 2, math.pi)
    assert val.real == pytest.approx(-1.0, abs=1e-12)
    assert val.imag == pytest.approx(0.0, abs=1e-12)


def test_phi_T_matches_pmf_sum():
    d = pmf(0, 6)
    for t in (0.3, 1.7, -2.2):
        direct = sum(p * cmath.exp(1j * t * v) for v, p in enumerate(d.probs))
        assert abs(phi_T(0, 6, t) - direct) < 1e-12


def test_phi_dickman_values():
    assert phi_dickman(0.0) == 1.0 + 0.0j
    v = phi_dickman(1.0)
    # high-node fixed Simpson oracle for the exponent at t=1
    u = np.linspace(0.0, 1.0, 1_000_001)
    re = np.where(u > 0, (np.cos(u) - 1.0) / np.where(u > 0, u, 1.0), 0.0)
    im = np.where(u > 0, np.sin(u) / np.where(u > 0, u, 1.0), 1.0)
    h = 1e-6
    def simpson(f):
        return h / 3 * (f[0] + f[-1] + 4 * f[1:-1:2].sum() + 2 * f[2:-1:2].sum())
    oracle = cmath.exp(complex(simpson(re), simpson(im)))
    assert abs(v - oracle) < 1e-10


# exp(Ci(|t|) - gamma - log|t| + i Si(t)) by mpmath at 40 digits, rounded
# to 30 significant digits.
PHI_DICKMAN_MPMATH = [
    (1e-3, 0.999999250000263888824452172991, 0.000999999527777912777748716149023),
    (0.5, 0.828033112019092823253780943274, 0.444973628630987870873343739358),
    (1.0, 0.460157496353148105521025402917, 0.638178263551176896392848420797),
    (5.0, 0.00193735017501682147881952062828, 0.0928378349005636581113280681627),
    (-5.0, 0.00193735017501682147881952062828, -0.0928378349005636581113280681627),
    (33.0, 8.9722204442085029285158239984e-06, 0.0175365865037536365696888647189),
    (250.0, 2.12168153599017483755631559144e-06, 0.00223712688772859470944488640694),
    (1000.0, 3.16478076829806308390945750665e-07, 0.000561923528860336777287382879212),
    (5000.0, 3.46847839877463550641247311015e-09, 0.000112269710033899206945262058444),
    (1e4, -5.34597475619964102659414543571e-09, 5.61442327620354118244011668248e-05),
]


@pytest.mark.parametrize("t,re,im", PHI_DICKMAN_MPMATH)
def test_phi_dickman_matches_mpmath(t, re, im):
    want = complex(re, im)
    assert abs(phi_dickman(t) - want) <= 1e-14 * abs(want)


@given(t=st.floats(min_value=0.0, max_value=1e4))
@settings(max_examples=60, deadline=None)
def test_phi_dickman_conjugate_symmetry(t):
    assert phi_dickman(-t) == phi_dickman(t).conjugate()


@pytest.mark.parametrize("t", [1e4 * (1 + 1e-15), -2e4, math.inf, -math.inf, math.nan])
def test_phi_dickman_rejects_out_of_range(t):
    with pytest.raises(ValueError):
        phi_dickman(t)


def test_gamma_mn_zero_and_resummation():
    assert gamma_mn(2, 10, 0.0) == 0.0
    for u in (1.0, -0.4, 3.0):
        oracle = sum(
            cmath.exp(1j * u * k) * (1 - cmath.exp(1j * u * k)) / (k - 1 + cmath.exp(1j * u * k))
            for k in range(3, 11)
        ) / 8
        assert abs(gamma_mn(2, 10, u) - oracle) < 1e-14
    us = np.array([0.0, 1.0, -0.4, 3.0])
    assert list(gamma_mn(2, 10, us)) == [gamma_mn(2, 10, float(u)) for u in us]
    with pytest.raises(ValueError):
        gamma_mn(1, 10, 0.5)


# gamma_{m,n}(pi j/(P-1)) at P = 10001 by mpmath at 40 digits, rounded to 25
# significant digits.  j = P-1 (u = pi, exactly real) is the argmax of |gamma|
# at all three pairs; j = P-4 is where rounding u*k in a dense e^{iuk} costs
# most near pi.
GAMMA_P = 10001
GAMMA_MPMATH = {
    (2, 10): [
        (3333, -0.2063587493769480006752323, -0.0670084766374099403692296),
        (9997, -0.4190234772360555071364891, 0.004016677769134766270480586),
        (10000, -0.4190476190476190476190476, 0.0),
    ],
    (2, 1000): [
        (3333, -0.001555266272175672109937603, -0.0004805336347958194808535362),
        (9997, -0.007420496570050068574701683, 0.001583670053508690739729242),
        (10000, -0.008192501291691546312947643, 0.0),
    ],
    (20, 1000): [
        (3333, -5.853923163148405030737567e-5, -5.964772370217712813696678e-5),
        (9997, -0.003311143132578039406255298, 0.001557493684092467104092856),
        (10000, -0.004096804476207949191544327, 0.0),
    ],
}


@pytest.mark.parametrize("m,n", sorted(GAMMA_MPMATH))
def test_gamma_grid_matches_mpmath_to_1e15_of_the_sup(m, n):
    # Guards the exact roots of unity: the dense e^{iuk} route, with u*k
    # rounded, is off by 1.4e-13 of the sup at (20, 1000).
    g = next(gamma_grids([(m, n)], GAMMA_P))
    sup = max(abs(complex(re, im)) for _, re, im in GAMMA_MPMATH[m, n])
    assert float(np.abs(g).max()) == pytest.approx(sup, rel=1e-15)
    for j, re, im in GAMMA_MPMATH[m, n]:
        assert abs(g[j] - complex(re, im)) <= 1e-15 * sup, j


@given(mn=st.lists(st.integers(2, 200), min_size=2, max_size=2, unique=True).map(sorted),
       P=st.integers(2, 3000))
@settings(max_examples=60, deadline=None)
@example(mn=[2, 3], P=2)
@example(mn=[3, 4], P=2)
def test_gamma_grid_is_gamma_mn_on_the_linspace_grid(mn, P):
    # Guards the series coefficients, their truncation and the fold mod M
    # against the pointwise definition, for every grid size down to P = 2.
    # The scale is the a-priori bound sup_u |gamma| <= (2/(n-m)) sum 1/(k-2),
    # not the grid sup: at (3, 4), P = 2 the kernel vanishes on the grid and
    # the dense reference is pure rounding (1.2e-16 from e^{4 pi i}).
    m, n = mn
    g = next(gamma_grids([(m, n)], P))
    dense = gamma_mn(m, n, np.linspace(0.0, math.pi, P))
    scale = 2.0 * np.sum(1.0 / np.arange(m - 1, n - 1)) / (n - m)
    assert g.shape == (P,)
    assert np.abs(g - dense).max() <= 1e-12 * scale


@pytest.mark.parametrize("u_points", [1, 0, -3])
def test_gamma_grid_rejects_fewer_than_two_points(u_points):
    with pytest.raises(ValueError):
        next(gamma_grids([(2, 10)], u_points))
    with pytest.raises(ValueError):
        next(gamma_grids([(1, 10)], 11))


def test_gamma_series_against_closed_form():
    assert gamma_series(2, 6, 0.0, 5) == 0.0
    assert abs(gamma_series(2, 6, 0.05, 12) - gamma_mn(2, 6, 0.05)) < 1e-8


def test_envelopes():
    assert f_envelope(2, 10, 0.0) == 0.0
    assert f_envelope(2, 10, 1.0) > 0.0
    assert g_envelope(2, 10) > 0.0
    assert g_envelope(9, 10) > 1.0 / math.log(10 / 9)  # 1/log term dominates
    with pytest.raises(ValueError, match=r"need 2 <= m < n, got m=1, n=5"):
        f_envelope(1, 5, 1.0)
    with pytest.raises(ValueError, match=r"need 2 <= m < n, got m=3, n=3"):
        g_envelope(3, 3)


def test_f_envelope_is_expm1_of_the_bracket():
    assert f_envelope(2, 10, 1.0) == math.expm1(audits._bracket(2, 10))
    assert audits._bracket(2, 10) == math.log(5) / 64 + 4 / 8


@pytest.mark.parametrize("x", [1.0, 2.0])
def test_g_and_chi_are_their_formulas_on_a_far_cell(x):
    m, n = config.cov_far_pairs()[0]
    kappa = KappaSeq(x)
    L = math.log(n / m)
    B = L / (n - m) ** 2 + (m + 2) / (n - m)
    g = math.expm1(B * L * L) + 1.0 / L
    assert g_envelope(m, n) == g
    dk = kappa(n) - kappa(m)
    r = (n - m) / dk
    assert chi(m, n, kappa) == (r * L / math.sqrt(n - m) + r * g + x * abs(r - 1.0 / x)
                                + (m + 1) / dk)


def test_chi_exact_multiple_drops_middle_term():
    k = KappaSeq(1, mode="exact-multiple")
    # with kappa_n = n the term x |(n-m)/(kappa_n-kappa_m) - 1/x| vanishes
    val = chi(5, 20, k)
    expect = math.log(4.0) / math.sqrt(15) + g_envelope(5, 20) + 6 / 15
    assert val == pytest.approx(expect, abs=1e-12)
    with pytest.raises(ValueError):
        chi(5, 20, KappaSeq(0.01))


def test_l2_parseval_small_n():
    assert l2_cf_integral(pmf(0, 1)) == pytest.approx(2 * math.pi, abs=1e-12)
    assert l2_cf_integral(pmf(0, 2)) == pytest.approx(2 * math.pi, abs=1e-12)
    for n in (1, 2, 4, 6, 8):
        par = l2_cf_integral(pmf(0, n))
        quad = l2_cf_integral_quad(n)
        assert abs(par - quad) < 1e-6
    with pytest.raises(ValueError):
        l2_cf_integral(pmf(2, 5))
    with pytest.raises(ValueError):
        l2_cf_integral_quad(64)


def test_l2_limit_value(table):
    # 2 pi e^{-2 gamma} int rho^2; int rho^2 ~ 1.462858 puts this near 2.858
    assert l2_cf_limit(table) == pytest.approx(2.858, abs=2e-3)


def test_inversion_consistency():
    for n in (3, 6, 12):
        d = pmf(0, n)
        for v in (0, 1, n, len(d.probs) - 1):
            assert abs(invert_cf(d, v) - prob_at(d, v)) < 1e-8


def test_w1_envelope_audit_with_golden_constant():
    c = config.load_golden()["w1"]["constant"]
    for m, n in config.W1_PAIRS:
        for row in audits.AUDITS["w1"].rows([(m, n)], None, None):
            if row.x != 0.0:
                bound = math.expm1(c * (1 + 1e-9) * row.x * row.x * audits._bracket(m, n))
                assert row.lhs <= bound + 1e-12


@pytest.mark.parametrize("P", [2, 11, 257])
def test_gamma_grids_of_many_pairs_are_the_one_pair_grids(P):
    # One series serves every pair, with several m, in any order and with repeats.
    pairs = [(5, 40), (2, 7), (20, 200), (5, 40), (2, 3), (3, 200), (20, 21), (7, 9)]
    for (m, n), g in zip(pairs, gamma_grids(pairs, P), strict=True):
        assert g.tobytes() == next(gamma_grids([(m, n)], P)).tobytes(), (m, n)
    for bad in ([(5, 9), (9, 5)], [(2, 10), (1, 10)], [(2, 10), (4, 4)], []):
        with pytest.raises(ValueError):
            next(gamma_grids(bad, P))
    with pytest.raises(ValueError):
        next(gamma_grids(pairs, 1))
