import functools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dickmanlab import audits, config, exact_dist
from dickmanlab.audits import f_envelope
from dickmanlab.exact_dist import KappaSeq, pmf, prob_at
from dickmanlab.spectral import gamma_grids, gamma_mn, phi_T, phi_dickman

KAPPA1 = KappaSeq(1, mode="exact-multiple")


def test_audit_row_ratio():
    r = audits.AuditRow("t", 2, 4, 1.0, 2, 4, lhs=1.0, envelope=4.0)
    assert r.ratio == 0.25
    r = audits.AuditRow("t", 2, 4, 1.0, 2, 4, lhs=1.0, envelope=0.0)
    assert r.ratio == float("inf")
    with pytest.raises(TypeError):  # the ratio is derived, never passed
        audits.AuditRow("t", 2, 4, 1.0, 2, 4, lhs=1.0, envelope=4.0, ratio=0.5)


def test_llt_table_small_n(table):
    rows = audits.llt_table(KAPPA1, [1, 3], table)
    assert rows[0].lhs == pytest.approx(1.0, abs=1e-15)  # T_1 = 1 always
    assert rows[1].lhs == pytest.approx(1.0, abs=1e-13)  # 3 * P(T_3 = 3) = 1
    assert rows[0].envelope == pytest.approx(0.5614594836, abs=1e-9)


def test_llt_errors_shrink(table):
    rows = audits.llt_table(KAPPA1, config.LLT_N_LIST, table)
    errs = [abs(r.lhs - r.envelope) for r in rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.05


def test_stimabase_row():
    r = audits.stimabase_check(2, 50, KAPPA1)
    assert math.isfinite(r.lhs) and r.lhs >= 0.0
    assert r.envelope == pytest.approx((1 + math.log(25)) / math.sqrt(48), abs=1e-12)
    with pytest.raises(ValueError):
        audits.stimabase_check(5, 5, KAPPA1)


def test_stimabase_reads_the_full_law_values():
    # Built on 0..d only, the row equals the one read from the full law.
    for m, n in ((2, 50), (5, 200), (20, 1000)):
        r = audits.stimabase_check(m, n, KAPPA1)
        probs = pmf(m, n).probs
        d = r.kappa_n - r.kappa_m
        window = float(probs[max(d - n + 1, 0): d - m].sum())
        assert r.lhs == abs(d * prob_at(pmf(m, n), d) - window)


def test_w2_rows(table):
    r = audits.w2_check(2, 40, table)
    assert 0.0 < r.lhs <= 1.0
    r2 = audits.w2_check(2, 400, table)
    assert r2.lhs < r.lhs


def test_zs_rows(table):
    powers = exact_dist.power_sum_scan([2, *config.ZS_N_LIST])
    r = audits.zs_check(2, table, powers[2])
    assert r.lhs == pytest.approx(2 * math.pi, abs=1e-12)
    rows = [audits.zs_check(n, table, powers[n]) for n in config.ZS_N_LIST]
    gaps = [abs(r.lhs - r.envelope) for r in rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_sigma_band():
    assert audits.sigma_band(1.0, 0.2) == pytest.approx(1.5, abs=1e-15)
    assert audits.sigma_band(2.0, 0.1) == pytest.approx(2.8 / 2.2, abs=1e-15)
    with pytest.raises(ValueError):
        audits.sigma_band(1.0, 0.6)


def test_lemmino_inside_band():
    assert audits.lemmino_check(KappaSeq(1.0), 0.2, 40, 50)
    assert audits.lemmino_check(KappaSeq(1.0), 0.2, 10, 14)
    assert audits.lemmino_check(KappaSeq(2.0), 0.1, 40, 50)
    # The zero is read from exact reachability, not from a float law on
    # 0..2,205,450.
    assert audits.lemmino_check(KappaSeq(1.0), 0.2, 2000, 2900)


def test_lemmino_outside_band_is_error():
    with pytest.raises(ValueError):
        audits.lemmino_check(KappaSeq(1.0), 0.2, 40, 70)


def test_lemmino_band_widens_as_eps_shrinks():
    # sigma -> 2 as eps -> 0, so pairs further out become admissible
    assert audits.lemmino_check(KappaSeq(1.0), 0.01, 40, 78)


@st.composite
def lemmino_cells(draw):
    """(kappa, eps, m, n): a decimal slope, eps in (0, 1/(2x)), an in-band cell, n <= 64."""
    x = draw(st.decimals("0.5", "4", places=3))
    kappa = KappaSeq(x, mode=draw(st.sampled_from(("floor", "round"))))
    x = kappa.x_float
    eps = draw(st.floats(0.02, 0.98)) / (2.0 * x)
    sigma = audits.sigma_band(x, eps)
    cells = [(m, n) for n in range(2, 65) for m in range(1, n) if n < sigma * m
             and all(abs(kappa(j) / j - x) < eps * x for j in (m, n))]
    assume(cells)
    return (kappa, eps, *draw(st.sampled_from(cells)))


@functools.cache
def _exact_law(m, n):
    return pmf(m, n, mode="exact").probs


@given(case=lemmino_cells())
@settings(max_examples=40, deadline=None)
@example(case=(KappaSeq(1.0), 0.2, 40, 50))
@example(case=(KappaSeq(2.0, mode="round"), 0.1, 40, 50))
def test_lemmino_is_the_exact_law_at_its_target(case):
    kappa, eps, m, n = case
    d = kappa(n) - kappa(m)
    assert audits.lemmino_check(kappa, eps, m, n) == (_exact_law(m, n)[d] == 0)


def test_covariance_regimes():
    rows = audits.covariance_audit(KAPPA1, [(3, 3)], regime="diag")
    assert rows[0].lhs == pytest.approx(2.0, abs=1e-12)
    assert rows[0].envelope == 3.0
    rows = audits.covariance_audit(KAPPA1, [(2, 3)], regime="near")
    assert rows[0].envelope == 1.0
    rows = audits.covariance_audit(KAPPA1, [(3, 12)], regime="far")
    assert rows[0].envelope > 0.0 and math.isfinite(rows[0].ratio)
    with pytest.raises(ValueError):
        audits.covariance_audit(KAPPA1, [(3, 12)], regime="middle")


def test_gamma_kernel_sup_shape():
    # The FFT grid gives the sup of the dense pointwise route.
    for m, n, u_points in [(2, 10, 2001), (5, 200, 10001), (20, 1000, 777)]:
        us = np.linspace(0.0, math.pi, u_points)
        dense = float(np.abs(gamma_mn(m, n, us)).max()) * (n - m) / (1.0 + math.log(n / m))
        assert audits.gamma_kernel_sup(m, n, u_points) == pytest.approx(dense, rel=1e-12)


def test_gamma_kernel_sup_peak_memory_is_small():
    # Guards against a dense u-by-k matrix: 10001 x 980 complex is 157 MB.
    tracemalloc.start()
    try:
        audits.gamma_kernel_sup(20, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@pytest.mark.parametrize("u_points", [1, 0])
def test_gamma_kernel_sup_needs_two_points(u_points):
    with pytest.raises(ValueError):
        audits.gamma_kernel_sup(2, 10, u_points)


def test_golden_constants_no_regression(table):
    golden = config.load_golden()
    computed = audits.run_calibration(table)
    problems = audits.check_golden(computed, golden)
    assert problems == []


def test_check_golden_detects_problems():
    golden = {"w2": {"constant": 1.0, "grid_hash": audits.grid_hash("w2")}}
    assert audits.check_golden({"w2": 2.0}, golden)
    assert audits.check_golden({"w1": 1.0}, golden) == ["w1: missing from golden file"]
    stale = {"w2": {"constant": 1.0, "grid_hash": "feedbeef"}}
    assert audits.check_golden({"w2": 0.5}, stale)
    assert audits.check_golden({"w2": 0.5}, golden) == []


def test_check_golden_reports_a_name_no_audit_has():
    golden = {"a": {"constant": 1.0, "grid_hash": "feedbeef"}}
    assert audits.check_golden({"a": 0.5, "b": 0.5}, golden) == [
        "a: no audit has this name", "b: no audit has this name"]


def _stamps():
    return {key: audits.grid_hash(key) for key in audits.AUDITS}


@pytest.mark.parametrize("name", ["LLT_N_LIST", "ZS_N_LIST"])
def test_cli_defaults_move_no_stamp(monkeypatch, name):
    before = _stamps()
    monkeypatch.setattr(config, name, (*getattr(config, name), 4000))
    assert _stamps() == before


def _replan(monkeypatch, key, plan, *grid):
    """The registry entry ``key`` with another sub-grid bound into its plan."""
    audit = audits.AUDITS[key]._replace(plan=functools.partial(plan, *grid))
    monkeypatch.setitem(audits.AUDITS, key, audit)
    return audit


@pytest.mark.parametrize("key, edit", [
    ("w2", lambda mp: mp.setattr(config, "W2_PAIRS", (*config.W2_PAIRS, (2, 80)))),
    ("stimabase", lambda mp: mp.setattr(config, "STIMABASE_N_CAP", 900)),
    ("gamma_kernel", lambda mp: _replan(mp, "gamma_kernel", audits._gamma_kernel_plan, 5001)),
    ("w1", lambda mp: _replan(mp, "w1", audits._w1_plan, 81, 5.0)),
    ("cov_near", lambda mp: mp.setattr(config, "COV_EPS", 0.1)),
])
def test_a_grid_edit_moves_only_its_readers_stamps(monkeypatch, key, edit):
    before = _stamps()
    edit(monkeypatch)
    after = _stamps()
    # The stimabase pairs are the gamma kernel's cells too.
    moved = {"stimabase": {"stimabase", "gamma_kernel"}}.get(key, {key})
    assert {k for k in before if before[k] != after[k]} == moved


def test_gamma_kernel_sup_reads_the_registrys_sub_grid(monkeypatch):
    default = audits.AUDITS["gamma_kernel"].rows([(2, 10)], None, None)[0].lhs
    assert default == audits.gamma_kernel_sup(2, 10)
    audit = _replan(monkeypatch, "gamma_kernel", audits._gamma_kernel_plan, 11)
    assert audit.rows([(2, 10)], None, None)[0].lhs == audits.gamma_kernel_sup(2, 10, 11)


def test_audit_laws_stop_where_their_reads_do(dp_sweeps, table):
    audits.llt_table(KappaSeq(1), [1000, 4000], table)
    assert sum(s.cells for s in dp_sweeps) <= 0.55 * 15_769_480  # capped at kappa_4000 alone
    audits.w2_check(20, 1500, table)
    assert max(s.widest for s in dp_sweeps) < 8000  # floor(x_max (n - m)) + 1 = 44,401


def test_each_audit_grid_is_one_dp_sweep(dp_sweeps):
    rows = audits.covariance_audit(KappaSeq(2.0), config.cov_far_pairs(), regime="far")
    assert len(rows) == len(config.cov_far_pairs()) and len(dp_sweeps) == 1
    dp_sweeps.clear()
    stimabase = audits.AUDITS["stimabase"]
    rows = stimabase.rows(stimabase.pairs(1.0), KappaSeq(1.0), None)
    assert len(rows) == len(config.stimabase_pairs()) and len(dp_sweeps) == 1


def test_calibration_is_one_dp_sweep(dp_sweeps, table):
    # Every audit and slope reads one book of laws: one sweep of 1,000
    # steps (the largest n), whose top falls after the last read of the
    # wide w2 laws.  Without that fall the sweep computes 13,115,473 cells.
    audits.run_calibration(table)
    assert len(dp_sweeps) == 1 and dp_sweeps[0].steps == 1000
    assert dp_sweeps[0].cells <= 9_200_000


def test_calibration_evaluates_the_dickman_cf_once_per_t(monkeypatch, table):
    calls = []
    phi = audits.phi_dickman
    monkeypatch.setattr(audits, "phi_dickman", lambda t: calls.append(t) or phi(t))
    audits.run_calibration(table)
    assert len(calls) == config.W1_T_POINTS == len(set(calls))


def test_calibration_constants_are_bit_for_bit_frozen(table):
    # w1 differs from golden/constants.json by 7.2e-14 relative: the file
    # predates the fixed Gauss-Legendre Dickman cf.
    computed = {k: repr(v) for k, v in audits.run_calibration(table).items()}
    assert computed == {
        "stimabase": "0.07698619822515206",
        "w1": "0.43479575603004017",
        "w2": "0.0",
        "gamma_kernel": "1.2851166715356424",
        "cov_diag": "0.6666666666666666",
        "cov_near": "0.5",
        "cov_far": "0.050056249336760505",
    }


# ------------------------------- golden constants at their exact binding cells

def _exact_law(m, n):
    return pmf(m, n, mode="exact").probs


def _exact_atom(m, n, v):
    law = _exact_law(m, n)
    return law[v] if 0 <= v < len(law) else Fraction(0)


def _exact_cov(m, n, kappa):
    """cov_Y from Fraction laws, by the same block split as exact_dist.cov_Y."""
    pm = _exact_atom(0, m, kappa(m))
    if m == n:
        return m * m * (pm - pm * pm)
    return (m * pm) * (n * _exact_atom(m, n, kappa(n) - kappa(m)) - n * _exact_atom(0, n, kappa(n)))


def _mp_g(m, n):
    """g_envelope in mpmath."""
    L = mpmath.log(mpmath.mpf(n) / m)
    B = L / (n - m) ** 2 + mpmath.mpf(m + 2) / (n - m)
    return mpmath.expm1(B * L * L) + 1 / L


def _mp_chi(m, n, kappa):
    """chi in mpmath, at the integer slope 1 of kappa."""
    dk = kappa(n) - kappa(m)
    r = mpmath.mpf(n - m) / dk
    return (r * mpmath.log(mpmath.mpf(n) / m) / mpmath.sqrt(n - m) + r * _mp_g(m, n)
            + abs(r - 1) + mpmath.mpf(m + 1) / dk)


def _mp_far_envelope(m, n, kappa):
    """The far-regime covariance envelope of ``audits._cov_plan`` in mpmath."""
    return (mpmath.mpf(n) / (n - m) * _mp_chi(m, n, kappa) + mpmath.mpf(m) / (n - m)
            + _mp_chi(2, n, kappa) + mpmath.mpf(1) / n)


def _exact_stimabase(m, n, kappa):
    d = kappa(n) - kappa(m)
    law = _exact_law(m, n)
    lhs = abs(d * law[d] - sum(law[max(d - n + 1, 0): d - m]))
    assert lhs == Fraction(3, 40)
    return mpmath.mpf(lhs.numerator) / lhs.denominator * mpmath.sqrt(n - m) / (
        1 + mpmath.log(mpmath.mpf(n) / m))


def _exact_cov_ratio(want, envelope):
    def ratio(m, n, kappa):
        c = _exact_cov(m, n, kappa)
        assert c == want
        return mpmath.mpf(abs(c).numerator) / abs(c).denominator / envelope(m, n, kappa)
    return ratio


# key: (binding cell at slope 1, exact ratio there, ulps of the stored constant
# above that ratio: the least and the most this test accepts).  Stimabase and
# cov_far round up by 3.7 and 3.0 ulps: the stored bound is safe.
EXACT_BINDING = {
    "stimabase": ((2, 8), _exact_stimabase, (0, 4)),
    "cov_diag": ((3, 3), _exact_cov_ratio(2, lambda m, n, kappa: m), (-0.5, 0.5)),
    "cov_near": ((3, 4), _exact_cov_ratio(Fraction(-1, 2), lambda m, n, kappa: 1), (0, 0)),
    "cov_far": ((3, 6), _exact_cov_ratio(Fraction(-3, 4), _mp_far_envelope), (0, 4)),
}


def _binding_cell(key):
    """(constant, slope, m, n) of the row that sets the constant of a ratio audit."""
    constant, rows = audits.calibrate([audits.AUDITS[key]], None)[key]
    x, row = max(((x, r) for x, rs in rows.items() for r in rs), key=lambda xr: xr[1].ratio)
    assert row.ratio == constant
    return constant, x, row.m, row.n


@pytest.mark.parametrize("key", sorted(EXACT_BINDING))
def test_golden_constant_is_its_exact_ratio_at_the_binding_cell(key):
    (m, n), exact_ratio, (lo, hi) = EXACT_BINDING[key]
    constant, x, bm, bn = _binding_cell(key)
    stored = config.load_golden()[key]["constant"]
    assert stored == constant
    assert (x, bm, bn) == (1.0, m, n)
    with mpmath.workdps(40):
        exact = exact_ratio(m, n, KappaSeq(1))
        ulps = float((mpmath.mpf(stored) - exact) / math.ulp(float(exact)))
    assert lo <= ulps <= hi, ulps


def test_golden_gamma_kernel_is_one_ulp_below_its_closed_form():
    # At u = pi, e^{iuk} = (-1)^k: the odd k = 3, 5, 7 give -2/(k-2) each, so
    # 6 |gamma_{2,8}(pi)| = 46/15 and the constant is 46/(15(1 + 2 log 2)).
    # The stored value is 1 ulp BELOW the correctly rounded one (1.28 ulps
    # below the exact ratio): as a bound it is short by that last bit.
    constant, x, m, n = _binding_cell("gamma_kernel")
    stored = config.load_golden()["gamma_kernel"]["constant"]
    assert stored == constant == 1.2851166715356424
    assert (x, m, n) == (1.0, 2, 8)
    grid = next(gamma_grids([(2, 8)], config.GAMMA_U_POINTS))
    assert int(np.abs(grid).argmax()) == config.GAMMA_U_POINTS - 1  # u = pi
    with mpmath.workdps(40):
        rounded = float(46 / (15 * (1 + 2 * mpmath.log(2))))
    assert rounded == 1.2851166715356426
    assert stored == math.nextafter(rounded, 0.0)


def _mp_w1_ratio(m, n, t):
    """log1p(lhs)/(t^2 B) of the w1 audit in mpmath: phi_T of T/(n - m) as its
    finite product, phi_D(t) = exp(-Cin(t) + i Si(t)), Cin(t) = gamma + log t - Ci(t)."""
    t = mpmath.mpf(t)
    phi_t = mpmath.fprod(1 - mpmath.mpf(1) / k + mpmath.expj(k * t / (n - m)) / k
                         for k in range(m + 1, n + 1))
    cin = mpmath.euler + mpmath.log(t) - mpmath.ci(t)
    phi_d = mpmath.exp(-cin + 1j * mpmath.si(t))
    B = mpmath.log(mpmath.mpf(n) / m) / (n - m) ** 2 + mpmath.mpf(m + 2) / (n - m)
    return mpmath.log1p(abs(phi_t - phi_d)) / (t * t * B), phi_t, phi_d, B


def test_golden_w1_lies_below_its_exact_ratio_at_the_binding_cell():
    # calibrate binds w1 at (20, 400) with |t| = 0.25, the least nonzero |t| on
    # its grid.  The stored constant lies BELOW the exact ratio there, by 6.6e-13
    # relative (5152 ulps): as a bound it falls short of its own binding cell.
    # The cause is phi_T's 380-factor float product (2.0e-15 absolute against
    # an lhs of 1.6e-3); phi_dickman is within 4e-17.
    constant, rows = audits.calibrate([audits.AUDITS["w1"]], None)["w1"]
    binding = {(r.m, r.n, abs(r.x)) for r in rows[1.0]
               if r.x != 0.0 and audits._solve_w1([r]) == constant}
    assert binding == {(20, 400, 0.25)}
    golden = config.load_golden()
    stored = golden["w1"]["constant"]
    assert not audits.check_golden({"w1": constant}, golden)
    with mpmath.workdps(40):
        exact, phi_t, phi_d, _ = _mp_w1_ratio(20, 400, 0.25)
        assert abs(complex(phi_t) - phi_T(20, 400, 0.25 / 380)) < 3e-15
        assert abs(complex(phi_d) - phi_dickman(0.25)) < 1e-16
        assert 6.5e-13 < (exact - stored) / exact < 6.7e-13
        assert 5100 < (exact - stored) / math.ulp(float(exact)) < 5200
        assert constant <= stored < exact  # the float route lands lower still


def test_w1_ratio_tends_to_its_small_t_limit():
    # As t -> 0 the lhs is t^2 |Var(T/(n - m)) - 1/2| / 2 + O(t^3), so the ratio
    # tends to L(m, n) = (2m - 1)/(4(n - m)B) < 1/2.  At t = 1e-3 the measured
    # gap is 3.0 to 3.2e-7 relative on every pair.
    for m, n in config.W1_PAIRS:
        with mpmath.workdps(40):
            ratio, _, _, B = _mp_w1_ratio(m, n, 1e-3)
            limit = (2 * m - 1) / (4 * (n - m) * B)
            assert abs(ratio / limit - 1) < 1e-5, (m, n)
        assert limit < 0.5


def test_golden_w2_is_zero_since_every_distance_is_the_jump_at_0(table):
    # Every w2 row's distance is the jump P(T_m^n = 0) = m/n at 0 (the product
    # of 1 - 1/k telescopes), within 16 ulps (the worst is 14, at (20, 400)), and
    # m/n + 0.18 < 1/log(n/m): the g envelope's 1/L term covers each row alone,
    # so _solve_w2 returns exactly the stored 0.0.
    constant, rows = audits.calibrate([audits.AUDITS["w2"]], table)["w2"]
    assert [(r.m, r.n) for r in rows[1.0]] == list(config.W2_PAIRS)
    for r in rows[1.0]:
        assert abs(r.lhs - r.m / r.n) <= 16 * math.ulp(r.m / r.n), (r.m, r.n)
        assert r.m / r.n + 0.18 < 1 / math.log(r.n / r.m), (r.m, r.n)
    assert _exact_law(5, 50)[0] == Fraction(5, 50)
    assert constant == config.load_golden()["w2"]["constant"] == 0.0


@pytest.mark.parametrize("key", sorted(audits.AUDITS))
def test_calibrate_of_one_audit_is_its_calibration_and_its_own_rows(key, table):
    audit = audits.AUDITS[key]
    constant, rows = audits.calibrate([audit], table)[key]
    assert repr(constant) == repr(audits.run_calibration(table)[key])
    assert list(rows) == list(audit.slopes)
    for x, got in rows.items():
        assert repr(got) == repr(audit.rows(audit.pairs(x), KappaSeq(x), table)), x


@pytest.mark.parametrize("key", ["w1", "w2"])
def test_envelope_plans_reject_a_bad_cell(key, table):
    # The plan, not its reader, rejects the cell: no sweep or row is made.
    with pytest.raises(ValueError, match=r"^need 2 <= m < n, got m=2, n=2$"):
        audits.AUDITS[key].plan([(5, 50), (2, 2)], None, table)


@pytest.mark.parametrize("m", [0, -1])
def test_envelopes_check_the_block_before_the_log(m):
    # log(n/m) read first: m = 0 divided by zero and m = -1 hit a math domain error.
    with pytest.raises(ValueError, match=r"^need 2 <= m < n"):
        audits.g_envelope(m, 3)
    with pytest.raises(ValueError, match=r"^need 2 <= m < n"):
        audits.chi(m, 3, KappaSeq(1))


def test_gamma_kernel_series_per_m_is_the_one_pair_sup():
    pairs = config.stimabase_pairs()
    rows = audits.AUDITS["gamma_kernel"].rows(pairs, None, None)
    assert [r.lhs for r in rows] == [audits.gamma_kernel_sup(m, n) for m, n in pairs]


def _w1_cell(m, n):
    """The w1 rows of one cell, from the characteristic functions directly."""
    ts = np.linspace(-config.W1_T_SPAN, config.W1_T_SPAN, config.W1_T_POINTS)
    return [audits.AuditRow("w1", m, n, float(t), 0, 0, abs(v - phi_dickman(float(t))),
                            f_envelope(m, n, t))
            for t, v in zip(ts, phi_T(m, n, ts / (n - m)))]


# Each one-cell function by registry key: (its result at (m, n), that
# result read from the registry rows of the one cell).  w1 has no one-cell
# function in the package; its entry computes the rows of one cell itself.
ONE_CELL = {
    "stimabase": (lambda m, n, kappa, table: audits.stimabase_check(m, n, kappa),
                  lambda rows: rows[0]),
    "w1": (lambda m, n, kappa, table: _w1_cell(m, n), lambda rows: rows),
    "w2": (lambda m, n, kappa, table: audits.w2_check(m, n, table), lambda rows: rows[0]),
    "gamma_kernel": (lambda m, n, kappa, table: audits.gamma_kernel_sup(m, n),
                     lambda rows: rows[0].lhs),
    **{f"cov_{regime}": (lambda m, n, kappa, table, regime=regime:
                         audits.covariance_audit(kappa, [(m, n)], regime=regime),
                         lambda rows: rows)
       for regime in ("diag", "near", "far")},
}


@pytest.mark.parametrize("key", sorted(ONE_CELL))
def test_one_cell_function_is_its_registry_entry_on_one_cell(key, table):
    audit = audits.AUDITS[key]
    one_cell, pick = ONE_CELL[key]
    for x in audit.slopes:
        kappa, grid = KappaSeq(x), audit.pairs(x)
        for m, n in (grid[0], grid[-1]):
            want = pick(audit.rows([(m, n)], kappa, table))
            assert repr(one_cell(m, n, kappa, table)) == repr(want), (x, m, n)


def test_law_book_has_one_entry_per_distinct_request():
    requests = [(0, 5, 0, None), (2, 9, 0, 4), (0, 5, 0, None), (2, 9, 0, 4), (2, 9, 0, None)]
    book = exact_dist._laws(iter(requests))
    assert len(book) == 3 and set(book) == set(requests)
    assert exact_dist._laws([]) == {} and exact_dist._laws(iter(())) == {}


def test_audit_rows_from_a_shared_book_are_their_own_rows(table):
    # One book for every plan gives each audit the rows it computes alone.
    plans = [(a, x, a.plan(a.pairs(x), KappaSeq(x), table))
             for a in audits.AUDITS.values() for x in a.slopes]
    book = exact_dist._laws(r for _, _, (requests, _) in plans for r in requests)
    for a, x, (_, read) in plans:
        assert repr(read(book)) == repr(a.rows(a.pairs(x), KappaSeq(x), table)), (a.key, x)


def test_stimabase_rejects_a_degenerate_target():
    # kappa_2 = kappa_3 = 1 at x = 1/2: the increment target is 0.
    with pytest.raises(ValueError, match=r"^degenerate target: kappa_n - kappa_m = 0$"):
        audits.stimabase_check(2, 3, KappaSeq(0.5))


def test_lemmino_rejects_a_target_that_strays_from_its_slope():
    # (5, 6) lies in the band, but kappa_5 / 5 = 0.2 is not within 1 % of 0.3.
    with pytest.raises(ValueError, match=r"^kappa_5/5 strays from x=0.3 by >= eps\*x$"):
        audits.lemmino_check(KappaSeq(0.3), 0.01, 5, 6)
