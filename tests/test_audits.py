import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dickmanlab import audits, config, exact_dist
from dickmanlab.exact_dist import KappaSeq, pmf, prob_at
from dickmanlab.spectral import Envelope, f_envelope, gamma_mn, phi_T, phi_dickman

KAPPA1 = KappaSeq(1, mode="exact-multiple")


def test_audit_row_ratio():
    r = audits.AuditRow("t", 2, 4, 1.0, 2, 4, lhs=1.0, envelope=4.0)
    assert r.ratio == 0.25
    r = audits.AuditRow("t", 2, 4, 1.0, 2, 4, lhs=1.0, envelope=0.0)
    assert r.ratio == float("inf")


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
    golden = {"a": {"constant": 1.0, "grid_hash": config.grid_hash()}}
    assert audits.check_golden({"a": 2.0}, golden)
    assert audits.check_golden({"b": 1.0}, golden)
    stale = {"a": {"constant": 1.0, "grid_hash": "feedbeef"}}
    assert audits.check_golden({"a": 0.5}, stale)
    assert audits.check_golden({"a": 0.5}, golden) == []


def test_audit_laws_stop_where_their_reads_do(monkeypatch, table):
    cells, widest = [0], [0]
    steps = exact_dist._steps

    def counted(*args, **kwargs):
        for k, laws in steps(*args, **kwargs):
            cells[0] += len(laws)
            widest[0] = max(widest[0], len(laws))
            yield k, laws

    monkeypatch.setattr(exact_dist, "_steps", counted)
    audits.llt_table(KappaSeq(1), [1000, 4000], table)
    assert cells[0] <= 0.55 * 15_769_480  # the sweep capped at kappa_4000 alone
    audits.w2_check(20, 1500, table)
    assert widest[0] < 8000  # floor(x_max (n - m)) + 1 = 44,401


def test_each_audit_grid_is_one_dp_sweep(monkeypatch):
    sweeps = []
    steps = exact_dist._steps

    def counted(*args, **kwargs):
        sweeps.append(args)
        return steps(*args, **kwargs)

    monkeypatch.setattr(exact_dist, "_steps", counted)
    rows = audits.covariance_audit(KappaSeq(2.0), config.cov_far_pairs(), regime="far")
    assert len(rows) == len(config.cov_far_pairs()) and len(sweeps) == 1
    sweeps.clear()
    stimabase = audits.AUDITS["stimabase"]
    rows = stimabase.rows(stimabase.pairs(1.0), KappaSeq(1.0), None)
    assert len(rows) == len(config.stimabase_pairs()) and len(sweeps) == 1


def test_calibration_is_one_dp_sweep(monkeypatch, table):
    # Every audit and slope reads one book of laws: one sweep of 1,000
    # steps (the largest n), whose top falls after the last read of the
    # wide w2 laws.  Without that fall the sweep computes 13,115,473 cells.
    sweeps = []
    steps = exact_dist._steps

    def counted(*args, **kwargs):
        sweeps.append([0, 0])
        for k, laws in steps(*args, **kwargs):
            sweeps[-1][0] += 1
            sweeps[-1][1] += laws.size
            yield k, laws

    monkeypatch.setattr(exact_dist, "_steps", counted)
    audits.run_calibration(table)
    assert len(sweeps) == 1 and sweeps[0][0] == 1000
    assert sweeps[0][1] <= 9_200_000


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


def test_gamma_kernel_series_per_m_is_the_one_pair_sup():
    pairs = config.stimabase_pairs()
    rows = audits.AUDITS["gamma_kernel"].rows(pairs, None, None)
    assert [r.lhs for r in rows] == [audits.gamma_kernel_sup(m, n) for m, n in pairs]


def _w1_cell(m, n):
    """The w1 rows of one cell, from the characteristic functions directly."""
    ts = np.linspace(-config.W1_T_SPAN, config.W1_T_SPAN, config.W1_T_POINTS)
    return [audits.AuditRow("w1", m, n, float(t), 0, 0, abs(v - phi_dickman(float(t))),
                            f_envelope(Envelope(m, n), t))
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
    requests = [(0, 5, None), (2, 9, 4), (0, 5, None), (2, 9, 4), (2, 9, None)]
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
