import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dickmanlab.audits import llt_table, run_calibration, w2_check
from dickmanlab.dickman import build_rho_table, dickman_cdf
from dickmanlab.exact_dist import (
    KappaSeq,
    Pmf,
    _chernoff_cap,
    _covariances,
    _dickman_tail,
    _kolmogorov_cap,
    _laws,
    _power_sum_cap,
    _steps,
    convolve,
    cov_Y,
    kolmogorov_distance,
    pmf,
    point_prob_scan,
    power_sum,
    power_sum_scan,
    prob_at,
)


def _law(m, n, cap=None):
    """The float law of T_m^n on 0..min(S, cap), as the one-request book holds it."""
    return np.atleast_1d(_laws([(m, n, 0, cap)])[m, n, 0, cap])  # cap 0 is an atom, a float


def brute_force(n):
    """Full enumeration over the 2^(n-1) outcomes of (Z_2, ..., Z_n)."""
    out = {}
    for bits in itertools.product((0, 1), repeat=n - 1):
        value = 1 + sum(k * z for k, z in zip(range(2, n + 1), bits))
        p = Fraction(1)
        for k, z in zip(range(2, n + 1), bits):
            p *= Fraction(1, k) if z else Fraction(k - 1, k)
        out[value] = out.get(value, Fraction(0)) + p
    return out


def test_small_exact_pmfs():
    d = pmf(0, 2, mode="exact")
    assert {v: p for v, p in enumerate(d.probs) if p} == {1: Fraction(1, 2), 3: Fraction(1, 2)}
    d = pmf(0, 3, mode="exact")
    assert {v: p for v, p in enumerate(d.probs) if p} == {
        1: Fraction(1, 3), 3: Fraction(1, 3), 4: Fraction(1, 6), 6: Fraction(1, 6)}
    d = pmf(2, 4, mode="exact")
    assert {v: p for v, p in enumerate(d.probs) if p} == {
        0: Fraction(1, 2), 3: Fraction(1, 4), 4: Fraction(1, 6), 7: Fraction(1, 12)}


@pytest.mark.parametrize("n", [2, 5, 9, 12])
def test_brute_force_equivalence(n):
    ref = brute_force(n)
    exact = pmf(0, n, mode="exact")
    assert {v: p for v, p in enumerate(exact.probs) if p} == ref
    flt = pmf(0, n)
    for v in range(len(flt.probs)):
        assert abs(flt.probs[v] - float(ref.get(v, 0))) < 1e-12


def test_exact_mass_is_one():
    assert sum(pmf(0, 20, mode="exact").probs) == 1


def test_exact_mode_cap():
    with pytest.raises(ValueError):
        pmf(0, 65, mode="exact")
    with pytest.raises(ValueError):
        pmf(3, 3)


@pytest.mark.parametrize("m,n", [(3, 7), (5, 12), (10, 20)])
def test_convolution_consistency(m, n):
    direct = pmf(0, n)
    combined = convolve(pmf(0, m), pmf(m, n))
    assert np.max(np.abs(direct.probs - combined.probs)) < 1e-12


def test_convolve_requires_abutting_blocks():
    with pytest.raises(ValueError):
        convolve(pmf(0, 3), pmf(4, 6))


def test_support_gap():
    d = pmf(5, 15)
    for v in range(1, 6):
        assert prob_at(d, v) == 0.0
    assert prob_at(d, 0) > 0.0


def test_prob_at_off_support():
    d = pmf(0, 3)
    assert prob_at(d, 5) == 0.0
    assert prob_at(d, -1) == 0.0
    assert prob_at(d, 10**6) == 0.0
    assert prob_at(d, 3) == pytest.approx(1 / 3, abs=1e-15)


def test_mean_is_span():
    for m, n in [(0, 10), (2, 17), (5, 40)]:
        probs = pmf(m, n).probs
        assert probs @ np.arange(len(probs)) == pytest.approx(n - m, abs=1e-9)


def test_power_sums():
    assert power_sum(pmf(0, 1, mode="exact")) == 1
    assert power_sum(pmf(0, 2, mode="exact")) == Fraction(1, 2)
    assert power_sum(pmf(0, 3, mode="exact")) == Fraction(5, 18)
    scan = power_sum_scan([3, 12])
    assert scan[3] == pytest.approx(5 / 18, abs=1e-14)
    assert scan[12] == pytest.approx(power_sum(pmf(0, 12)), abs=1e-15)


def test_power_sum_cap_drops_a_tail_below_its_bound():
    """From the full law: P(T_n > cap) <= 2^-30/n and the dropped squares <= 2^-60 of the sum."""
    for n, laws in _steps((0,), 400):
        law = laws[:, 0]
        cap = _power_sum_cap(n)
        assert cap <= n * (n + 1) // 2
        if n >= 50:
            assert cap < n * (n + 1) // 2
        tail = law[cap + 1 :]
        assert math.fsum(tail) <= 2.0**-30 / n, n
        assert float(np.dot(tail, tail)) <= 2.0**-60 * float(np.dot(law, law)), n


def test_power_sum_caps_are_frozen():
    # recorded before the Chernoff bound moved into a helper shared with the Kolmogorov cap
    caps = {1: 1, 2: 3, 10: 55, 150: 1583, 1500: 17054, 3000: 34699}
    assert {n: _power_sum_cap(n) for n in caps} == caps


def test_power_sum_scan_matches_exact_rationals():
    ns = [1, 2, 3, 7, 20, 41, 64]
    scan = power_sum_scan(ns)
    for n in ns:
        exact = power_sum(pmf(0, n, mode="exact"))
        assert abs(scan[n] - exact) <= 1e-15 * exact, n


def test_power_sum_scan_matches_the_full_law():
    ns = [50, 100, 237, 400, 600]
    scan = power_sum_scan(ns)
    for n in ns:
        law = _law(0, n)
        full = float(np.dot(law, law))
        assert abs(scan[n] - full) <= 1e-15 * full, n


def test_power_sum_scan_values_are_frozen():
    # recorded when each value was a dot over the head of one capped sweep
    # (before the scan read its laws from the book); the last bit can depend
    # on the BLAS thread count, see power_sum_scan
    assert repr(power_sum_scan([1, 2, 100, 200, 400, 800, 1500, 3000])) == (
        "{1: 1.0, 2: 0.5, 100: 0.004647700695673937, 200: 0.002299085266623352, "
        "400: 0.0011433543561808336, 800: 0.0005701304687244314, "
        "1500: 0.0003036846674623056, 3000: 0.00015173236383947582}")


def test_power_sum_scan_value_depends_on_n_alone():
    assert power_sum_scan([400, 800])[400] == power_sum_scan([400])[400]


def test_power_sum_scan_peak_memory_is_small():
    tracemalloc.start()
    try:
        power_sum_scan([3000])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_kolmogorov_distance_values(table):
    # frozen from a direct two-atom computation: the sup sits just left of
    # the scaled atom 3/2, where the empirical CDF is still 1/2
    assert kolmogorov_distance(pmf(0, 2), table) == pytest.approx(0.281440621829556, abs=1e-12)
    d40 = kolmogorov_distance(pmf(2, 40), table)
    d400 = kolmogorov_distance(pmf(2, 400), table)
    assert 0.0 < d400 < d40 <= 1.0


def kolmogorov_per_atom(dist, table):
    """Reference: the per-atom loop the one-pass distance replaced."""
    probs = np.asarray(dist.probs, dtype=float)
    cdf_at = np.cumsum(probs)
    best = 0.0
    for v in np.nonzero(probs)[0]:
        s = v / dist.span
        d = dickman_cdf(table, s) if s <= table.x_max else 1.0
        best = max(best, abs(cdf_at[v] - d), abs((cdf_at[v] - probs[v]) - d))
    return best


@pytest.fixture(scope="module")
def table16():
    return build_rho_table(x_max=16.0, step=1e-3)


@pytest.mark.parametrize("m,n", [(0, 2), (2, 40), (10, 200), (2, 400), (5, 600)])
def test_kolmogorov_distance_is_the_per_atom_loop(table, table16, m, n):
    # (2, 400) and (5, 600) have scaled atoms past x_max, compared against
    # D = 1; the distance reads atoms only up to floor(x_max (n-m)), so the
    # law capped there gives the same value.
    dist = pmf(m, n)
    for tab in (table, table16):
        want = kolmogorov_per_atom(dist, tab)
        assert kolmogorov_distance(dist, tab) == want
        cap = math.floor(tab.x_max * (n - m))
        capped = Pmf(m, n, _law(m, n, cap), "float")
        assert kolmogorov_distance(capped, tab) == want
        if cap < len(dist.probs) - 1:
            # one atom short of the cap, the tail check passes, and the value stays
            assert kolmogorov_distance(Pmf(m, n, _law(m, n, cap - 1), "float"), tab) == want
            with pytest.raises(ValueError):  # a law too short for the tail check
                kolmogorov_distance(Pmf(m, n, _law(m, n, n - m), "float"), tab)


# sha256 of laws and rows deep in the underflow regime, recorded before the
# DP skipped its exactly-zero tail; an nz bound off by one moves them.
PMF_600_SHA256 = "933fc6c4c165feefc85b11d4cad7eb6cef704332eb1bd38c2f1a0c746d99c6cf"
LLT_ROWS_SHA256 = {
    (1, "exact-multiple", (150, 300, 600, 1250, 2500, 5000, 10000, 20000)):
        "7f4e535e40fe1692b98c8b29a130a75cca47af1d517bdfac81f0722c18e4c95a",
    (1.775, "floor", (150, 300, 600, 1000, 2000, 4000)):
        "75e3a8ce90bf72718786a23f6fbfcf329eb43931862b43c34c887505e27ca89e",
}


def _row_repr(row) -> str:
    # The digests hash each row as "AuditRow(label=..., envelope=..., ratio=...)",
    # the derived ratio last, so every stored field and the ratio keep their bits.
    fields = [*row._asdict().items(), ("ratio", row.ratio)]
    return f"AuditRow({', '.join(f'{k}={v!r}' for k, v in fields)})"


def test_underflowing_laws_and_rows_are_frozen(table):
    assert hashlib.sha256(pmf(0, 600).probs.tobytes()).hexdigest() == PMF_600_SHA256
    for (x, mode, ns), digest in LLT_ROWS_SHA256.items():
        rows = llt_table(KappaSeq(x, mode), ns, table)
        text = f"[{', '.join(map(_row_repr, rows))}]"
        assert hashlib.sha256(text.encode()).hexdigest() == digest, x


def test_pmf_ends_at_its_last_nonzero_atom():
    # Past n of about 177 the top of the support underflows: the law stops
    # at its last nonzero atom, 73,516 entries of the 180,301 in 0..S at 600.
    probs = pmf(0, 600).probs
    assert len(probs) == 73_516
    assert probs[-1] != 0.0
    assert len(pmf(0, 177).probs) == 177 * 178 // 2 + 1


def test_pmf_law_owns_its_memory():
    # The law is a copy of its own: it does not keep the 180,301-row table alive.
    probs = pmf(0, 600).probs
    assert probs.base is None
    assert probs.nbytes == 73_516 * 8


def test_dp_skips_the_zero_tail_and_no_nonzero_entry(dp_ops, table):
    # The sweep of pmf(0, 600) covers 36,180,800 cells, 16,088,552 of them
    # exact zeros above the last nonzero atom 73,515; the full sweep makes
    # 108,001,500 element operations.  Step k must still scale each nonzero
    # entry of u_{k-1} and move each one below top_k - k + 1 (two operations).
    need = last = 0
    for k, laws in _steps((0,), 600):
        need += last + 1 + 2 * max(min(last, len(laws) - 1 - k) + 1, 0)
        last = int(np.flatnonzero(laws)[-1])
    assert last == 73_515
    assert need <= dp_ops()[0] <= 0.65 * 108_001_500
    # The calibration has no zero tail to skip, and its count must not rise
    # from the 20,242,276 of the full sweep.
    before = dp_ops()[0]
    run_calibration(table)
    assert dp_ops()[0] - before <= 20_242_276


def test_point_reader_is_linear_on_dense_rows(dp_ops, table):
    # Every n to 5000 at x = 1.  Chaining every target above R - k - 1 made
    # 24.0M element operations but 6,254,901 reads, about n^2/4 chain updates.
    n = 5000
    llt_table(KappaSeq(1), range(1, n + 1), table)
    ops, reads = dp_ops()
    assert ops <= 2 * n * (n + 1) and reads <= 2 * n


def test_point_reader_costs_no_more_on_sparse_rows(dp_ops, table):
    # The x = 1 rows of the large-n tables, with the counts of the reader
    # that kept R - k - 1 and chained every target above it.
    llt_table(KappaSeq(1), (150, 300, 600, 1250, 2500, 5000, 10000, 20000), table)
    ops, reads = dp_ops()
    assert ops <= 392_050_336 and reads <= 19_809


def test_full_law_peak_memory_is_small():
    # the law of T_600 is 1.38 MB; each step's temporary is freed before the next
    tracemalloc.start()
    try:
        pmf(0, 600)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20


@given(mn=st.integers(2, 600).flatmap(lambda n: st.tuples(st.integers(1, n - 1), st.just(n))))
@example(mn=(1, 2))
@example(mn=(2, 600))
@example(mn=(599, 600))
@settings(max_examples=25, deadline=None)
def test_kolmogorov_cap_leaves_the_distance_unchanged(table, table16, mn):
    m, n = mn
    full = pmf(m, n)
    for tab in (table, table16):
        want = kolmogorov_distance(full, tab)
        capped = _law(m, n, _kolmogorov_cap(tab, m, n))
        assert kolmogorov_distance(Pmf(m, n, capped, "float"), tab) == want
        if m >= 2:
            assert w2_check(m, n, tab).lhs == want


@pytest.mark.parametrize("m,n", [(0, 40), (1, 2), (2, 40), (5, 50), (20, 600), (100, 1000),
                                 (599, 600)])
def test_kolmogorov_cap_is_the_least_certified_value(table, m, n):
    span, full = n - m, math.floor(table.x_max * (n - m))
    if m == 0:
        assert _kolmogorov_cap(table, m, n) == full
        return
    bound = m / (4 * n)
    dickman = [y for y in range(full + 1) if _dickman_tail(table, y / span) <= bound]
    want = min(full, max(_chernoff_cap(m, n, -math.log(bound)), min(dickman, default=full)))
    assert _kolmogorov_cap(table, m, n) == want
    assert math.fsum(pmf(m, n).probs[want + 1 :]) <= bound


def test_short_law_with_a_heavy_tail_raises(table):
    # a prefix holding 0.1 at 0 and nothing else up to scaled x = 10: the
    # distance found on it is 0.1, but the missing mass 0.9 could sit anywhere
    probs = np.zeros(381)
    probs[0] = 0.1
    with pytest.raises(ValueError):
        kolmogorov_distance(Pmf(2, 40, probs, "float"), table)


@given(x=st.floats(0.0, 30.0), dx=st.floats(0.0, 30.0))
@settings(max_examples=60, deadline=None)
def test_dickman_tail_bounds_the_cdf_gap(table16, x, dx):
    x = min(x, table16.x_max)
    xs = np.linspace(x, min(x + dx, table16.x_max), 257)
    assert np.abs(1.0 - dickman_cdf(table16, xs)).max() <= _dickman_tail(table16, x)


def test_kolmogorov_needs_long_table():
    short = build_rho_table(x_max=2.0, step=1e-3)
    with pytest.raises(ValueError):
        kolmogorov_distance(pmf(0, 4), short)
    # the full support top decides, even when the law passed is capped
    with pytest.raises(ValueError):
        kolmogorov_distance(Pmf(0, 4, _law(0, 4, 8), "float"), short)


def test_kappa_modes():
    k = KappaSeq(1.5)
    assert [k(n) for n in range(1, 5)] == [1, 3, 4, 6]
    assert KappaSeq(1.5, mode="round")(1) == 2
    k2 = KappaSeq(2, mode="exact-multiple")
    assert k2(7) == 14
    with pytest.raises(ValueError):
        KappaSeq(1.5, mode="exact-multiple")(3)
    with pytest.raises(ValueError):
        KappaSeq(1.5, mode="exact-multiple").first(1)
    with pytest.raises(ValueError):
        KappaSeq(-1.0)
    with pytest.raises(ValueError):
        KappaSeq(1.0, mode="ceil")


@given(x=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
       n=st.integers(min_value=1, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_kappa_tracks_slope(x, n):
    for mode in ("floor", "round"):
        k = KappaSeq(x, mode=mode)
        assert abs(k(n) / n - k.x_float) <= 1.0 / n + 1e-12


@given(x=st.integers(min_value=10**16, max_value=10**17 - 1).map(lambda d: d / 10**16),
       ns=st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=20),
       mode=st.sampled_from(["floor", "round"]))
@example(x=2.718281828459045, ns=[10**5], mode="floor")
@settings(max_examples=60, deadline=None)
def test_kappa_values_match_scalar_for_long_slopes(x, ns, mode):
    # A 17-digit slope pins to a numerator near 10^16, so p * n passes 2^63.
    k = KappaSeq(x, mode=mode)
    assert list(k.values(ns)) == [k(n) for n in ns]


def test_kappa_takes_numpy_integers_as_exact_ints():
    # p near 1.2e16: with a numpy int64 n the product p * n would wrap.
    k = KappaSeq(1.2345678901234567)
    assert k(np.int64(1000)) == k(1000) == 1234
    assert k.first(np.int64(1234)) == k.first(1234) == 1000
    assert cov_Y(k, np.int64(1500), np.int64(1501)) == cov_Y(k, 1500, 1501)
    assert cov_Y(k, 1500, 1501) == pytest.approx(-0.19666105495348402, rel=1e-12)


def test_kappa_pins_numpy_floats_by_their_decimal_repr():
    # Fraction(np.float32(2.5)) raises TypeError: every np.floating is pinned
    # through its decimal repr, as a Python float is.
    assert KappaSeq(np.float32(2.5))(10) == 25
    assert KappaSeq(np.float32(0.1)).x == Fraction(1, 10)
    assert KappaSeq(np.float64(0.1)).x == KappaSeq(0.1).x == Fraction(1, 10)


def test_kappa_values_raise_past_int64():
    k = KappaSeq(10**10)
    assert k.values([10**8]).tolist() == [10**18]
    with pytest.raises(OverflowError):
        k.values([10**9])  # kappa = 10^19 > 2^63 - 1


def test_diagonal_identity_below_n():
    # For j <= n every Z_k with k > j is 0, and prod_{k=j+1}^n (1 - 1/k) = j/n,
    # so n P(T_n = j) = j P(T_j = j) exactly; both sides vanish at j = 2.
    n = 3000
    js = range(1, n + 1)
    book = _laws([(0, n, 0, n)] + [(0, j, j, j) for j in js])
    lhs = n * book[0, n, 0, n][1:]
    rhs = np.array([j * book[0, j, j, j] for j in js])
    assert len(lhs) == n and rhs[1] == 0.0
    assert np.all(np.abs(lhs - rhs) <= 1e-13 * rhs)


@given(m=st.integers(min_value=0, max_value=6), span=st.integers(min_value=1, max_value=8))
@settings(max_examples=25, deadline=None)
def test_mass_property(m, span):
    d = pmf(m, m + span)
    probs = np.asarray(d.probs)
    assert np.all(probs >= 0.0)
    assert abs(probs.sum() - 1.0) < 1e-12


def test_point_prob_scan_matches_full_dp():
    k = KappaSeq(1, mode="exact-multiple")
    scan = point_prob_scan(k, 60)
    for n in (1, 2, 10, 37, 60):
        assert scan[n - 1] == pytest.approx(prob_at(pmf(0, n), n), abs=1e-15)
    k15 = KappaSeq(1.5)
    scan = point_prob_scan(k15, 40)
    for n in (5, 21, 40):
        assert scan[n - 1] == pytest.approx(prob_at(pmf(0, n), k15(n)), abs=1e-15)


slopes = st.one_of(
    st.integers(10**15, 10**17).map(lambda d: d / 10**16),  # 17 digits, x < 1 included
    st.fractions(Fraction(1, 20), Fraction(8), max_denominator=20),
)


def one_block_steps(m, n, cap=None):
    """The one-block float DP over k = m+1 .. n, yielding (k, law of T_m^k on 0..min(S, cap))."""
    size = (n * (n + 1) - m * (m + 1)) // 2
    if cap is not None:
        size = min(size, cap)
    probs = np.zeros(size + 1)
    probs[0] = 1.0
    top = 0
    for k in range(m + 1, n + 1):
        p = 1.0 / k
        new_top = min(top + k, size)
        moved = probs[: max(new_top - k + 1, 0)] * p
        probs[: top + 1] *= 1.0 - p
        probs[k : new_top + 1] += moved
        top = new_top
        yield k, probs


def one_block_law(m, n, cap=None):
    """The one-block float DP law, the reference each batched law must match."""
    *_, (_, probs) = one_block_steps(m, n, cap)
    return probs


def one_block_point_probs(kappa, n_max):
    """P(T_n = kappa_n), n = 1..n_max, read from one one-block DP capped at kappa_{n_max}."""
    cap = kappa(n_max)
    return np.array([probs[kappa(n)] if kappa(n) < len(probs) else 0.0
                     for n, probs in one_block_steps(0, n_max, cap)])


@given(x=slopes, mode=st.sampled_from(["floor", "round"]),
       ns=st.lists(st.integers(1, 400), min_size=1, max_size=6))
@example(x=Fraction(1), mode="floor", ns=[1])
@example(x=Fraction(5), mode="floor", ns=[1, 2, 3, 7, 9])  # targets past S_n
@example(x=Fraction(3, 10), mode="round", ns=[1, 2, 3, 4])
@example(x=Fraction(1, 20), mode="floor", ns=[1, 19, 20, 21, 39, 40, 300])  # repeated targets
@example(x=Fraction(1), mode="floor", ns=list(range(1, 301)))  # dense rows
@example(x=1.2345678901234567, mode="round", ns=[5, 80, 81, 333])  # a 17-digit slope
@settings(max_examples=80, deadline=None)
def test_point_probs_are_the_one_block_dp_bit_for_bit(x, mode, ns):
    kappa = KappaSeq(x, mode)
    ns = sorted(set(ns))
    want = one_block_point_probs(kappa, ns[-1])
    assert point_prob_scan(kappa, ns[-1]).tobytes() == want.tobytes()
    book = _laws((0, n, kappa(n), kappa(n)) for n in ns)
    got = np.array([book[0, n, kappa(n), kappa(n)] for n in ns])
    assert got.tobytes() == want[np.array(ns) - 1].tobytes()


@st.composite
def law_requests(draw):
    """Up to 8 requests (m, n, cap), 0 <= m < n <= 200, drawing m from a small pool."""
    starts = draw(st.lists(st.integers(0, 199), min_size=1, max_size=3))
    requests = []
    for _ in range(draw(st.integers(1, 8))):
        m = draw(st.sampled_from(starts))
        n = draw(st.integers(m + 1, 200))
        S = (n * (n + 1) - m * (m + 1)) // 2
        cap = draw(st.one_of(st.none(), st.just(0), st.integers(0, S - 1), st.just(S),
                             st.integers(S + 1, 2 * S + 5)))
        requests.append((m, n, cap))
    return requests


@given(requests=law_requests())
@example(requests=[(0, 200, None), (0, 200, 0), (3, 7, 2), (3, 50, 25), (199, 200, 400)])
@example(requests=[(0, 600, None)])  # the top underflows from k = 178 on: a zero tail
@example(requests=[(7, 350, None)])
@example(requests=[(0, 450, None), (5, 450, None), (40, 450, None), (5, 300, 9000),
                   (40, 400, None)])
@settings(max_examples=60, deadline=None)
def test_batched_laws_are_the_one_block_laws_bit_for_bit(requests):
    # A book law ends at the sweep's last possibly-nonzero entry; the
    # reference runs to min(S, cap), and everything past the law is 0.0.
    book = _laws((m, n, 0, cap) for m, n, cap in requests)
    for m, n, cap in requests:
        law, want = np.atleast_1d(book[m, n, 0, cap]), one_block_law(m, n, cap)
        assert law.tobytes() == want[: len(law)].tobytes(), (m, n, cap)
        assert not want[len(law):].any(), (m, n, cap)


@st.composite
def shared_requests(draw):
    """Requests for a shared book: starts with 0, n from a small pool so n repeats."""
    starts = [0] + draw(st.lists(st.integers(1, 60), max_size=3))
    ns = draw(st.lists(st.integers(1, 120), min_size=1, max_size=4))
    requests = []
    for _ in range(draw(st.integers(1, 10))):
        m = draw(st.sampled_from(starts))
        n = max(draw(st.sampled_from(ns)), m + 1)
        S = (n * (n + 1) - m * (m + 1)) // 2
        cap = draw(st.one_of(st.none(), st.integers(0, S), st.integers(S + 1, 3 * S)))
        requests.append((m, n, cap))
    return requests


@given(requests=shared_requests())
@example(requests=[(0, 10, None), (0, 100, 5), (0, 10, 100), (3, 10, 7), (3, 100, 9000)])
@example(requests=[(0, 40, 800), (2, 40, 10), (0, 120, 30), (5, 120, 2)])
@settings(max_examples=80, deadline=None)
def test_laws_with_a_falling_top_are_each_one_block_law(requests):
    # The top falls to the largest cap still pending; no law read moves.
    book = _laws((m, n, 0, cap) for m, n, cap in requests)
    for m, n, cap in requests:
        assert np.atleast_1d(book[m, n, 0, cap]).tobytes() == _law(m, n, cap).tobytes(), (m, n, cap)


@st.composite
def read_requests(draw):
    """Up to 10 requests (m, n, lo, hi), n <= 300, from a pool of starts that holds 0.

    Prefixes, interior windows, whole laws (hi None), atoms in and past the
    support, and atoms high in their support: far above every other read,
    so they are carried as chains.
    """
    starts = [0] + draw(st.lists(st.integers(1, 299), max_size=3))
    requests = []
    for _ in range(draw(st.integers(1, 10))):
        m = draw(st.sampled_from(starts))
        n = draw(st.integers(m + 1, 300))
        S = (n * (n + 1) - m * (m + 1)) // 2
        lo = draw(st.integers(0, S))
        requests.append(draw(st.sampled_from([
            (m, n, 0, draw(st.integers(1, 2 * S + 5))),  # a prefix
            (m, n, lo, draw(st.integers(lo + 1, S + 10))),  # a window
            (m, n, draw(st.sampled_from([0, lo])), None),  # the law from lo
            (m, n, lo, lo),  # an atom
            (m, n, S + 1 + lo, S + 1 + lo),  # an atom past the support
            (m, n, S - lo % (n + 1), S - lo % (n + 1)),  # an atom near the top
        ])))
    return requests


@given(requests=read_requests())
@example(requests=[(0, 300, 45000, 45000)])  # a chain from the delta at step 0
@example(requests=[(0, 30, 0, None), (60, 100, 400, 400)])  # the chain starts at m = 60,
# after step 30, the last that keeps 400
@example(requests=[(0, 200, 150, 150), (0, 200, 5000, 5000), (0, 250, 9000, 9000),
                   (7, 250, 9000, 9000), (7, 260, 9001, 9001), (0, 120, 0, None)])  # two columns
@example(requests=[(0, 100, 3000, 3000), (0, 150, 3000, 3000)])  # one chain, read twice
@example(requests=[(0, 40, 300, 300), (0, 41, 290, 290), (0, 300, 4000, 4000),
                   (3, 10, 0, 40), (3, 10, 2, 7), (3, 10, 60, 60), (0, 600, 5, None)])
@settings(max_examples=60, deadline=None)
def test_every_request_is_the_one_block_law_bit_for_bit(requests):
    # Atoms are floats, 0.0 past the law's end; a window is the law's
    # entries from lo on, cut after a possibly-nonzero entry.
    book = _laws(requests)
    assert set(book) == set(requests)
    laws = {}
    for m, n, lo, hi in requests:
        if (m, n) not in laws:
            laws[m, n] = one_block_law(m, n)
        law = laws[m, n]
        got = book[m, n, lo, hi]
        if lo == hi:
            want = float(law[lo]) if lo < len(law) else 0.0
            assert isinstance(got, float) and got.hex() == want.hex(), (m, n, lo)
        else:
            want = law[lo : None if hi is None else hi + 1]
            assert got.base is None and got.tobytes() == want[: len(got)].tobytes(), (m, n, lo, hi)
            assert not want[len(got) :].any(), (m, n, lo, hi)


def test_a_dense_covariance_row_reads_atoms_without_law_copies():
    # Reading each atom from a law capped at it copied 0..v per atom: this
    # row peaked at 16 / 62 MB to n = 1000 / 2000 under tracemalloc.
    tracemalloc.start()
    try:
        _covariances(KappaSeq(2), [(10, n) for n in range(11, 4001)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@pytest.mark.parametrize("m,n", [(0, 1), (0, 12), (3, 20), (10, 60)])
def test_capped_law_is_the_full_law_prefix(m, n):
    full = pmf(m, n).probs
    S = len(full) - 1
    for cap in (0, 1, S // 3, S - 1, S, S + 1, 2 * S + 5):
        assert _law(m, n, cap).tobytes() == full[: cap + 1].tobytes()
    assert _law(m, n).tobytes() == full.tobytes()


def test_cov_reads_the_full_law_values():
    for x in (1, 1.5, 2.7):
        k = KappaSeq(x)
        for m, n in ((2, 2), (5, 5), (3, 7), (10, 40), (20, 200)):
            km, kn = k(m), k(n)
            pm = prob_at(pmf(0, m), km)
            want = (m * m * (pm - pm * pm) if m == n else
                    (m * pm) * (n * prob_at(pmf(m, n), kn - km) - n * prob_at(pmf(0, n), kn)))
            assert cov_Y(k, m, n) == want


def test_cov_examples():
    k = KappaSeq(1, mode="exact-multiple")
    assert cov_Y(k, 2, 2) == 0.0  # T_2 never equals 2
    assert cov_Y(k, 3, 3) == pytest.approx(2.0, abs=1e-12)


def test_cov_split_matches_joint_identity():
    # P(T_n = kappa_n) must equal sum_j P(T_m = j) P(T_m^n = kappa_n - j)
    k = KappaSeq(1, mode="exact-multiple")
    m, n = 3, 6
    head, inc = pmf(0, m), pmf(m, n)
    joint = sum(prob_at(head, j) * prob_at(inc, n - j) for j in range(len(head.probs)))
    assert abs(joint - prob_at(pmf(0, n), n)) < 1e-14
    split = cov_Y(k, m, n)
    direct = (m * prob_at(head, m)) * (n * prob_at(inc, n - m) - n * joint)
    assert abs(split - direct) < 1e-14


@given(p=st.integers(min_value=1, max_value=50), q=st.integers(min_value=1, max_value=50),
       T=st.one_of(st.integers(min_value=1, max_value=200),
                   st.integers(min_value=1, max_value=10**20)),
       mode=st.sampled_from(["floor", "round", "exact-multiple"]))
@example(p=1, q=1, T=1, mode="exact-multiple")
@example(p=2, q=3, T=1, mode="floor")
@settings(max_examples=200, deadline=None)
def test_kappa_first_is_the_least_index_reaching_T(p, q, T, mode):
    if mode == "exact-multiple":
        p //= math.gcd(p, q)
        q = 1
    k = KappaSeq(Fraction(p, q), mode=mode)
    n = k.first(T)
    assert n >= 1 and k(n) >= T
    assert n == 1 or k(n - 1) < T
